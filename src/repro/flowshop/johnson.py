"""Johnson's algorithm for the two-machine flow shop, with and without lags.

Johnson (1954) showed that the two-machine permutation flow shop is solved
optimally in ``O(n log n)`` by ordering jobs as follows: jobs with
``a_j <= b_j`` first, by increasing ``a_j``; then jobs with ``a_j > b_j`` by
decreasing ``b_j`` (``a_j`` / ``b_j`` being the processing times on the first
and second machine).

The lower bound of Lageweg, Lenstra and Rinnooy Kan (1978) used by the paper
relaxes the ``m``-machine problem to a family of two-machine problems *with
lags*: for a machine couple ``(M_k, M_l)``, ``k < l``, job ``j`` has a lag
``d_j = sum_{u=k+1}^{l-1} p[j, u]`` that must elapse between its completion
on ``M_k`` and its start on ``M_l``.  The optimal order for this relaxation
is Johnson's order applied to the modified times ``(a_j + d_j, d_j + b_j)``.
Both the plain and the lagged variants are provided here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "johnson_order",
    "johnson_order_with_lags",
    "two_machine_makespan",
    "two_machine_makespan_with_lags",
    "johnson_makespan",
]


def _as_times(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    return arr


def johnson_order(a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray) -> np.ndarray:
    """Optimal job order for the two-machine flow shop (Johnson, 1954).

    Parameters
    ----------
    a, b:
        Processing times on the first and second machine respectively.

    Returns
    -------
    numpy.ndarray
        Permutation of job indices minimising the two-machine makespan.
    """
    a = _as_times(a, "a")
    b = _as_times(b, "b")
    if a.size != b.size:
        raise ValueError("a and b must have the same length")
    group = (a > b).astype(np.int64)
    primary = np.where(group == 0, a, -b)
    order = np.lexsort((np.arange(a.size), primary, group))
    return order.astype(np.int64)


def johnson_order_with_lags(
    a: Sequence[int] | np.ndarray,
    b: Sequence[int] | np.ndarray,
    lags: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Optimal order for the two-machine flow shop *with lags*.

    Applies Johnson's rule to the modified processing times
    ``(a_j + d_j, d_j + b_j)`` which is optimal for the lagged relaxation
    (Lageweg et al., 1978).
    """
    a = _as_times(a, "a")
    b = _as_times(b, "b")
    lags_arr = _as_times(lags, "lags")
    if not (a.size == b.size == lags_arr.size):
        raise ValueError("a, b and lags must have the same length")
    return johnson_order(a + lags_arr, lags_arr + b)


def two_machine_makespan(
    a: Sequence[int] | np.ndarray,
    b: Sequence[int] | np.ndarray,
    order: Sequence[int] | np.ndarray | None = None,
) -> int:
    """Makespan of a two-machine flow shop under ``order`` (default: given order)."""
    return two_machine_makespan_with_lags(
        a, b, np.zeros(len(np.atleast_1d(a)), dtype=np.int64), order
    )


def two_machine_makespan_with_lags(
    a: Sequence[int] | np.ndarray,
    b: Sequence[int] | np.ndarray,
    lags: Sequence[int] | np.ndarray,
    order: Sequence[int] | np.ndarray | None = None,
    start_a: int = 0,
    start_b: int = 0,
) -> int:
    """Makespan of the two-machine-with-lags relaxation for a given order.

    Machine 1 is busy until ``start_a`` and machine 2 until ``start_b``
    before the first job starts (these are the per-machine release times of
    the partial schedule in the Branch-and-Bound use-case).

    The recurrence mirrors lines (11)-(15) of the paper's pseudo-code::

        tM1 += a[job]
        tM2  = max(tM2, tM1 + lag[job]) + b[job]
    """
    a = _as_times(a, "a")
    b = _as_times(b, "b")
    lags_arr = _as_times(lags, "lags")
    if not (a.size == b.size == lags_arr.size):
        raise ValueError("a, b and lags must have the same length")
    if order is None:
        order_arr = np.arange(a.size, dtype=np.int64)
    else:
        order_arr = np.asarray(list(order), dtype=np.int64)
        if sorted(order_arr.tolist()) != list(range(a.size)):
            raise ValueError("order must be a permutation of the job indices")
    t_m1 = int(start_a)
    t_m2 = int(start_b)
    for job in order_arr:
        t_m1 += int(a[job])
        ready = t_m1 + int(lags_arr[job])
        if ready > t_m2:
            t_m2 = ready
        t_m2 += int(b[job])
    return t_m2


def johnson_makespan(
    a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray
) -> int:
    """Optimal two-machine makespan (Johnson order applied, then evaluated)."""
    order = johnson_order(a, b)
    return two_machine_makespan(a, b, order)
