"""Rule ``guarded-by``: a lightweight static race detector.

The threaded modules (the service dispatch/session/service trio and the
work-stealing incumbent) protect shared state with explicit locks.  The
convention this rule enforces: an attribute that the lock protects is
*declared* in ``__init__`` with a trailing annotation::

    self._pending: list[_Pending] = []  # guarded-by: _lock, _wakeup

and every later read or write of that attribute must sit lexically inside
a ``with self._lock:`` / ``with self._wakeup:`` block naming one of its
declared guards.  Accesses in the declaring ``__init__`` are free (no
other thread can see the object yet).  Deliberate unlocked accesses —
"caller holds the lock" helpers, documented-safe stale reads — carry a
targeted ``# repro-lint: ignore[guarded-by]`` with the rationale, which
is exactly the reviewer-visible record this rule exists to create.

State that is not lock-protected but *thread-confined* — written by a
worker, read by the joiner strictly after an ``Event`` hand-off —
declares the confinement instead::

    self._value: Any = None  # confined-to: _finish, result

and every later access of that attribute must sit inside one of the
listed methods (``__init__`` stays free).  Someone touching the field
from a new method — where neither the confinement nor the happens-before
edge is established — gets flagged.

This is lexical, not a happens-before analysis: it catches the dominant
bug shape (someone touches ``self._pending`` in a new method and forgets
the lock, or reads a ticket payload outside the hand-off pair) without
false certainty about the rest.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.repro_lint.framework import Finding, Rule, SourceModule

#: Modules whose classes are scanned for guarded-by declarations.
THREADED_PATHS = frozenset(
    {
        "src/repro/service/dispatch.py",
        "src/repro/service/session.py",
        "src/repro/service/service.py",
        "src/repro/bb/multicore.py",
    }
)

_ANNOTATION = re.compile(r"#\s*guarded-by:\s*(?P<guards>[A-Za-z0-9_,\s]+)")
_CONFINED = re.compile(r"#\s*confined-to:\s*(?P<methods>[A-Za-z0-9_,\s]+)")


def _declared_guards(module: SourceModule, line: int) -> frozenset[str]:
    """Guard names from a ``# guarded-by:`` comment on ``line`` (or empty)."""
    if not (1 <= line <= len(module.lines)):
        return frozenset()
    match = _ANNOTATION.search(module.lines[line - 1])
    if not match:
        return frozenset()
    return frozenset(g.strip() for g in match.group("guards").split(",") if g.strip())


def _declared_confinement(module: SourceModule, line: int) -> frozenset[str]:
    """Method names from a ``# confined-to:`` comment on ``line`` (or empty)."""
    if not (1 <= line <= len(module.lines)):
        return frozenset()
    match = _CONFINED.search(module.lines[line - 1])
    if not match:
        return frozenset()
    return frozenset(m.strip() for m in match.group("methods").split(",") if m.strip())


def _self_attr(node: ast.expr) -> str | None:
    """The attribute name of a ``self.X`` expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _with_guard_ranges(cls: ast.ClassDef) -> list[tuple[int, int, str]]:
    """(start, end, guard) for every ``with self.<guard>:`` block in ``cls``."""
    ranges = []
    for node in ast.walk(cls):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            ctx = item.context_expr
            # "with self._lock:" and "with self._cv:" both count; so does
            # "with self._value.get_lock():" (multiprocessing.Value).
            if isinstance(ctx, ast.Call):
                ctx = ctx.func
                if isinstance(ctx, ast.Attribute):  # .get_lock() / .acquire()
                    ctx = ctx.value
            guard = _self_attr(ctx)
            if guard is not None:
                ranges.append((node.lineno, node.end_lineno or node.lineno, guard))
    return ranges


class GuardedByRule(Rule):
    name = "guarded-by"
    description = "annotated shared attributes are only touched under their declared lock"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.relpath not in THREADED_PATHS:
            return
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: SourceModule, cls: ast.ClassDef) -> Iterator[Finding]:
        init = next(
            (
                n
                for n in cls.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n.name == "__init__"
            ),
            None,
        )
        if init is None:
            return

        # Pass 1: collect "# guarded-by:" / "# confined-to:" declarations
        # from __init__.
        guarded: dict[str, frozenset[str]] = {}
        confined: dict[str, frozenset[str]] = {}
        for stmt in ast.walk(init):
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                guards = _declared_guards(module, stmt.lineno)
                if guards:
                    guarded[attr] = guards
                methods = _declared_confinement(module, stmt.lineno)
                if methods:
                    confined[attr] = methods
        if not guarded and not confined:
            return

        # Pass 2: every self.<attr> access outside __init__ must be inside
        # a with-block holding one of the attribute's declared guards
        # (guarded-by) or inside one of its declared methods (confined-to).
        lock_ranges = _with_guard_ranges(cls)
        method_spans = {
            n.name: (n.lineno, n.end_lineno or n.lineno)
            for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        init_span = (init.lineno, init.end_lineno or init.lineno)
        for node in ast.walk(cls):
            attr = _self_attr(node) if isinstance(node, ast.Attribute) else None
            if attr is None or (attr not in guarded and attr not in confined):
                continue
            line = node.lineno
            if init_span[0] <= line <= init_span[1]:
                continue
            if attr in guarded:
                guards = guarded[attr]
                held = any(
                    start <= line <= end and guard in guards
                    for start, end, guard in lock_ranges
                )
                if held:
                    continue
                yield Finding(
                    rule=self.name,
                    path=module.relpath,
                    line=line,
                    message=(
                        f"'{cls.name}.{attr}' is guarded by "
                        f"{', '.join(sorted(guards))} but accessed outside a "
                        f"'with self.<guard>:' block; acquire the lock or document "
                        "the safe unlocked access with "
                        "'# repro-lint: ignore[guarded-by] -- <why>'"
                    ),
                )
                continue
            methods = confined[attr]
            inside = any(
                method_spans[name][0] <= line <= method_spans[name][1]
                for name in methods
                if name in method_spans
            )
            if inside:
                continue
            yield Finding(
                rule=self.name,
                path=module.relpath,
                line=line,
                message=(
                    f"'{cls.name}.{attr}' is confined to "
                    f"{', '.join(sorted(methods))} but accessed from another "
                    f"method, where the thread-confinement hand-off is not "
                    "established; move the access or document it with "
                    "'# repro-lint: ignore[guarded-by] -- <why>'"
                ),
            )
