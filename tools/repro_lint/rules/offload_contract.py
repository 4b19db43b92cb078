"""Rule ``offload-contract``: bounding backends match the driver contract.

``SearchDriver`` talks to pluggable bounding backends through exactly one
method (see ``docs/ARCHITECTURE.md``, "The bound_block offload
contract")::

    bound_block(block) -> (bounds, simulated_s, measured_s)

Four implementations exist today (local, batching service, distributed,
executor); the driver calls them interchangeably and unpacks a 3-tuple.
A fifth backend with a drifted signature or a 2-tuple return would fail
deep inside the solve loop — this rule fails it at lint time instead.

Checked per class method named ``bound_block``:

* exactly one parameter after ``self``, the block: no optional flag, no
  keyword-only or variadic parameter (the driver passes the block alone).
* every ``return`` of a tuple literal has exactly 3 elements; bare
  ``return``/``return None`` is flagged.  Non-literal returns (e.g.
  ``return future.result()``) are beyond static reach and pass.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.framework import Finding, Rule, SourceModule

CONTRACT_METHODS = ("bound_block",)


def _check_signature(fn: ast.FunctionDef) -> str | None:
    """A human message when the signature drifts from the contract."""
    spec = fn.args
    args = spec.posonlyargs + spec.args
    if args and args[0].arg in ("self", "cls"):
        args = args[1:]
    if len(args) != 1 or spec.kwonlyargs or spec.vararg or spec.kwarg:
        return "bound_block must take exactly one argument, the block: bound_block(self, block)"
    return None


def _tuple_arity_violations(fn: ast.FunctionDef) -> Iterator[tuple[int, str]]:
    """(line, message) for each return that statically breaks 3-tuple arity."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Return):
            continue
        value = node.value
        if value is None or (isinstance(value, ast.Constant) and value.value is None):
            yield (
                node.lineno,
                f"{fn.name} must return (bounds, simulated_s, measured_s); "
                "bare return/None breaks the driver's unpacking",
            )
        elif isinstance(value, ast.Tuple) and len(value.elts) != 3:
            yield (
                node.lineno,
                f"{fn.name} returns a {len(value.elts)}-tuple; the contract is "
                "the 3-tuple (bounds, simulated_s, measured_s)",
            )


class OffloadContractRule(Rule):
    name = "offload-contract"
    description = "bound_block implementations match the driver backend contract"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name not in CONTRACT_METHODS:
                    continue
                message = _check_signature(fn)
                if message is not None:
                    yield Finding(
                        rule=self.name,
                        path=module.relpath,
                        line=fn.lineno,
                        message=f"{cls.name}.{fn.name}: {message}",
                    )
                for line, msg in _tuple_arity_violations(fn):
                    yield Finding(
                        rule=self.name,
                        path=module.relpath,
                        line=line,
                        message=f"{cls.name}.{fn.name}: {msg}",
                    )
