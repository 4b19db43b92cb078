"""NEH constructive heuristic (Nawaz, Enscore and Ham, 1983).

The Branch-and-Bound algorithms in this library need an initial upper bound
(incumbent) to prune against.  The paper seeds its runs with "an initial
solution"; NEH is the de-facto standard constructive heuristic for the
permutation flow shop and typically lands within a few percent of the
optimum, which keeps the explored trees small enough for the benchmark
protocol to be meaningful.

The heuristic:

1. Sort the jobs by decreasing total processing time.
2. Insert jobs one at a time, each in the position of the current partial
   permutation that minimises its makespan.

Step 2 uses Taillard's acceleration (E. Taillard, EJOR 47(1):65–74, 1990):
the makespans of all ``L + 1`` insertion positions come from the partial
order's heads and tails in ``O(L * m)``, instead of ``O(L^2 * m)`` for
evaluating every candidate order from scratch.
"""

from __future__ import annotations

import numpy as np

from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.schedule import Schedule, job_cumulative_times, machine_scan

__all__ = ["neh_order", "neh_heuristic", "best_insertion"]


def _heads_and_tails(pt: np.ndarray, order: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Heads ``e`` and tails ``q`` of a partial order, ``(L + 1, m)`` each.

    ``e[i, k]`` is the completion time on machine ``k`` of the first ``i``
    jobs of ``order`` (row 0 is all zeros); ``q[i, k]`` is the time from
    the start of job ``order[i]`` on machine ``k`` to the end of the
    schedule of the remaining suffix (row ``L`` is all zeros).  The tails
    are the heads of the reversed order on the reversed machines, so both
    come from one stacked scan over a ``(m, 2, L + 1)`` array whose
    position 0 is an empty job: per machine, one add and one cumulative
    maximum along the positions of both sequences at once,
    ``e[:, k] = P + cummax(e[:, k-1] - P_before)`` with ``P`` the running
    sum of the jobs' times on ``k``.  The running sums are added back once
    at the end.
    """
    times = pt[order]  # (L, m)
    length, m = times.shape
    seq = np.zeros((m, 2, length + 1), dtype=np.int64)
    seq[:, 0, 1:] = times.T
    seq[:, 1, 1:] = times[::-1, ::-1].T
    csum = np.cumsum(seq, axis=2)
    # scan[k] = cummax(e[:, k-1] - P_before[:, k]) = cummax(scan[k-1] + step[k-1]);
    # scan[0] is zero, since P_before on the first machine never decreases
    step = csum[:-1] - (csum[1:] - seq[1:])
    scan = np.zeros_like(seq)
    for k in range(1, m):
        np.add(scan[k - 1], step[k - 1], out=scan[k])
        np.maximum.accumulate(scan[k], axis=1, out=scan[k])
    scan += csum
    return np.ascontiguousarray(scan[:, 0].T), scan[::-1, 1, ::-1].T


def _insert(
    pt: np.ndarray, order: list[int], job: int, after: np.ndarray, before: np.ndarray
) -> tuple[list[int], int]:
    """:func:`best_insertion` with the per-job cumulative times given."""
    heads, tails = _heads_and_tails(pt, order)
    finish = machine_scan(heads, job, after, before)
    finish += tails
    makespans = finish.max(axis=1)
    pos = int(np.argmin(makespans))  # first minimum: the earliest position
    return order[:pos] + [job] + order[pos:], int(makespans[pos])


def best_insertion(pt: np.ndarray, order: list[int], job: int) -> tuple[list[int], int]:
    """Insert ``job`` into ``order`` at the position minimising the makespan.

    Returns the new order and its makespan.  Ties are broken by the earliest
    position, which makes the heuristic deterministic.  All ``L + 1``
    positions are evaluated at once (Taillard's acceleration): inserted at
    position ``i``, ``job`` completes on machine ``k`` at
    ``f[i, k] = max(f[i, k-1], e[i, k]) + pt[job, k]`` — one machine scan
    of the heads by ``job`` (:func:`~repro.flowshop.schedule.machine_scan`)
    — and the makespan of that order is ``max_k f[i, k] + q[i, k]``.
    """
    return _insert(pt, order, job, *job_cumulative_times(pt, np.int64))


def neh_order(instance: FlowShopInstance) -> list[int]:
    """Job permutation produced by the NEH heuristic."""
    pt = instance.processing_times
    after, before = job_cumulative_times(pt, np.int64)
    totals = pt.sum(axis=1)
    # decreasing total processing time; stable tie-break by job index
    priority = sorted(range(instance.n_jobs), key=lambda j: (-int(totals[j]), j))
    order: list[int] = []
    for job in priority:
        order, _ = _insert(pt, order, job, after, before)
    return order


def neh_heuristic(instance: FlowShopInstance) -> Schedule:
    """Run NEH and return the resulting :class:`~repro.flowshop.schedule.Schedule`."""
    return Schedule(instance, tuple(neh_order(instance)))
