"""Rule ``single-loop``: one solve loop, owned by ``bb/driver.py``.

PR 4 unified the repo's eight hand-rolled solve loops behind one audited
``SearchDriver`` select→branch→bound→eliminate iteration.  The scaling
claims (and every counter the benchmarks assert) depend on that loop
staying singular: a second ``while frontier:`` loop elsewhere silently
forks the search semantics.

The rule flags any ``while`` statement whose condition reads a
frontier/pool value — an identifier named exactly ``pool``/``frontier``
or ending in ``_pool``/``_frontier``, as a bare name or a ``self.``/
attribute access — in any module other than ``bb/driver.py``.  Loops
that legitimately iterate a pool without being a solve loop (selection
operators, pool-construction helpers) carry an inline
``# repro-lint: ignore[single-loop]`` with the rationale.

The loop also has one call site: ``run_search`` in ``bb/driver.py`` is the
only caller of ``SearchDriver.run``.  A call ``<expr>.run(<frontier
name>, ...)`` anywhere else re-assembles a search by hand (seeding,
stats finalization, the final snapshot) and fires too, with the same
ignore comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.framework import Finding, Rule, SourceModule

#: The only module allowed to run a frontier-driven ``while`` loop.
ALLOWED_PATHS = frozenset({"src/repro/bb/driver.py"})


def _is_frontier_name(name: str) -> bool:
    return name in ("pool", "frontier") or name.endswith(("_pool", "_frontier"))


def _frontier_arg(call: ast.Call) -> str | None:
    """The frontier name passed first to a ``<expr>.run(...)`` call, if any."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "run" and call.args):
        return None
    first = call.args[0]
    if isinstance(first, ast.Name) and _is_frontier_name(first.id):
        return first.id
    if isinstance(first, ast.Attribute) and _is_frontier_name(first.attr):
        return first.attr
    return None


def _frontier_names(test: ast.expr) -> list[str]:
    """Frontier/pool identifiers read by a ``while`` condition."""
    names = []
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and _is_frontier_name(node.id):
            names.append(node.id)
        elif isinstance(node, ast.Attribute) and _is_frontier_name(node.attr):
            names.append(node.attr)
    return names


class SingleLoopRule(Rule):
    name = "single-loop"
    description = (
        "solve-style while-loops over a frontier/pool, and driver runs over one, "
        "belong to bb/driver.py only"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.relpath in ALLOWED_PATHS:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _frontier_arg(node)
                if name is not None:
                    yield Finding(
                        rule=self.name,
                        path=module.relpath,
                        line=node.lineno,
                        message=(
                            f"run({name}, ...) outside bb/driver.py; start the search "
                            "through run_search or justify with "
                            "'# repro-lint: ignore[single-loop] -- <why this is not a solve loop>'"
                        ),
                    )
                continue
            if not isinstance(node, ast.While):
                continue
            names = _frontier_names(node.test)
            if not names:
                continue
            yield Finding(
                rule=self.name,
                path=module.relpath,
                line=node.lineno,
                message=(
                    f"while-loop over {', '.join(sorted(set(names)))!s} outside bb/driver.py; "
                    "route the iteration through SearchDriver or justify with "
                    "'# repro-lint: ignore[single-loop] -- <why this is not a solve loop>'"
                ),
            )
