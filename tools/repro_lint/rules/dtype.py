"""Rule ``dtype``: frontier columns keep their documented dtypes.

The structure-of-arrays frontier (PR 3) is int32 columns plus an int64
packed sort key ``(lb << 41 | depth << 32 | order)``; the vectorized
kernels assume those widths.  A ``np.array([...])`` without an explicit
dtype silently upcasts to int64 on one platform and int32 on another —
doubling memory traffic or corrupting the packed key.  This rule demands
that every array construction in the frontier/kernel modules name its
dtype, and that literal dtypes come from the documented set.

Non-literal dtype expressions (``dtype=arr.dtype``, ``dtype=dt``) pass:
they are deliberate propagation, not a silent default.

On top of the module-wide explicit-dtype demand, the named frontier
columns and the segmented-index cache arrays are pinned to their exact
documented dtype (:data:`COLUMN_DTYPES`): the packed selection key and
the per-segment minima must be int64, every row-id / counter column
int32, the bit-packed scheduled sets uint8 and the dirty flags boolean.  Assigning
``self._seg_krow = np.zeros(..., dtype=np.int64)`` is not an upcast bug
a width-agnostic check would catch — it is a contract violation this
rule reports directly.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from tools.repro_lint.framework import Finding, Rule, SourceModule

#: Modules holding frontier-column / kernel array constructions.
CHECKED_PATHS = frozenset(
    {
        "src/repro/bb/frontier.py",
        "src/repro/core/kernels.py",
    }
)

#: numpy constructors that take a ``dtype`` and default it silently.
CONSTRUCTORS = frozenset(
    {"array", "zeros", "empty", "ones", "full", "asarray", "arange", "fromiter"}
)

#: The documented dtype vocabulary: int32 columns, int64 packed keys,
#: float32/float64 bound vectors, bool/bool_ masks, uint8 bit-packed
#: scheduled sets.
ALLOWED_DTYPES = frozenset({"int32", "int64", "bool", "bool_", "float32", "float64", "uint8"})

#: Exact dtype contract per named frontier/index column: the node columns
#: are int32, the packed selection key and the cached per-segment key
#: minima int64, the segment row-id caches int32 (rows are int32
#: everywhere), the scheduled sets one bit per job in uint8 bytes, and the
#: segment dirty flags boolean.
COLUMN_DTYPES = {
    "_lb": {"int32"},
    "_depth": {"int32"},
    "_tid": {"int32"},
    "_release": {"int32"},
    "_key": {"int64"},
    "_bits": {"uint8"},
    "_seg_key": {"int64"},
    "_seg_krow": {"int32"},
    "_seg_omax": {"int32"},
    "_seg_orow": {"int32"},
    "_seg_dirty": {"bool", "bool_"},
}


def _np_constructor(call: ast.Call) -> Optional[str]:
    """The constructor name if ``call`` is ``np.<constructor>(...)``."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
        and func.attr in CONSTRUCTORS
    ):
        return func.attr
    return None


def _literal_dtype_name(value: ast.expr) -> Optional[str]:
    """The dtype's literal name when statically known, else ``None``."""
    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        if value.value.id in ("np", "numpy"):
            return value.attr
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value
    if isinstance(value, ast.Name) and value.id in ("bool", "int", "float"):
        return value.id
    return None


def _self_attr_target(node: ast.Assign) -> Optional[str]:
    """The attribute name for a single-target ``self.<name> = ...`` assign."""
    if len(node.targets) != 1:
        return None
    target = node.targets[0]
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


class DtypeRule(Rule):
    name = "dtype"
    description = "frontier/kernel array constructions carry explicit documented dtypes"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.relpath not in CHECKED_PATHS:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                yield from self._check_column_assign(module, node)
            if not isinstance(node, ast.Call):
                continue
            ctor = _np_constructor(node)
            if ctor is None:
                continue
            dtype_kw = next((kw for kw in node.keywords if kw.arg == "dtype"), None)
            if dtype_kw is None:
                yield Finding(
                    rule=self.name,
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"np.{ctor}(...) without an explicit dtype= in a "
                        "frontier/kernel module; the columnar layout is int32 "
                        "columns / int64 packed keys — silent platform-dependent "
                        "defaults are how upcasts reappear"
                    ),
                )
                continue
            literal = _literal_dtype_name(dtype_kw.value)
            if literal is not None and literal not in ALLOWED_DTYPES:
                yield Finding(
                    rule=self.name,
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"np.{ctor}(..., dtype={literal}) is outside the "
                        f"documented set {{{', '.join(sorted(ALLOWED_DTYPES))}}}"
                    ),
                )

    def _check_column_assign(
        self, module: SourceModule, node: ast.Assign
    ) -> Iterator[Finding]:
        """Pin named frontier/index columns to their exact documented dtype."""
        attr = _self_attr_target(node)
        if attr is None or attr not in COLUMN_DTYPES:
            return
        call = node.value
        if not isinstance(call, ast.Call) or _np_constructor(call) is None:
            return
        dtype_kw = next((kw for kw in call.keywords if kw.arg == "dtype"), None)
        if dtype_kw is None:
            return  # the module-wide explicit-dtype check already fires
        literal = _literal_dtype_name(dtype_kw.value)
        if literal is not None and literal not in COLUMN_DTYPES[attr]:
            expected = "/".join(sorted(COLUMN_DTYPES[attr]))
            yield Finding(
                rule=self.name,
                path=module.relpath,
                line=node.lineno,
                message=(
                    f"self.{attr} is documented as {expected} but is "
                    f"constructed with dtype={literal}; the columnar layout "
                    "contract (int32 rows/columns, int64 packed keys and "
                    "segment minima, uint8 bit-packed scheduled sets, boolean "
                    "dirty flags) must hold exactly"
                ),
            )
