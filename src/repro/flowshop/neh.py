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
from repro.flowshop.schedule import Schedule

__all__ = ["neh_order", "neh_heuristic", "best_insertion"]


def _heads_and_tails(pt: np.ndarray, order: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Heads ``e`` and tails ``q`` of a partial order, ``(L + 1, m)`` each.

    ``e[i, k]`` is the completion time on machine ``k`` of the first ``i``
    jobs of ``order`` (row 0 is all zeros); ``q[i, k]`` is the time from
    the start of job ``order[i]`` on machine ``k`` to the end of the
    schedule of the remaining suffix (row ``L`` is all zeros).  Each
    machine column is one max-plus scan along the positions:
    ``e[:, k] = P + cummax(e[:, k-1] - P_before)`` with ``P`` the running
    sum of the jobs' times on ``k``.
    """
    times = pt[order].astype(np.int64)  # (L, m)
    length, m = times.shape
    heads = np.zeros((length + 1, m), dtype=np.int64)
    tails = np.zeros((length + 1, m), dtype=np.int64)
    if length == 0:
        return heads, tails
    scan = np.empty(length, dtype=np.int64)
    # tails are the heads of the reversed order on the reversed machines
    for table, seq, machines in (
        (heads[1:], times, range(m)),
        (tails[length - 1 :: -1], times[::-1], range(m - 1, -1, -1)),
    ):
        csum = np.cumsum(seq, axis=0)
        before = csum - seq
        prev = np.zeros(length, dtype=np.int64)
        for k in machines:
            np.subtract(prev, before[:, k], out=scan)
            np.maximum.accumulate(scan, out=scan)
            prev = table[:, k]
            np.add(csum[:, k], scan, out=prev)
    return heads, tails


def best_insertion(pt: np.ndarray, order: list[int], job: int) -> tuple[list[int], int]:
    """Insert ``job`` into ``order`` at the position minimising the makespan.

    Returns the new order and its makespan.  Ties are broken by the earliest
    position, which makes the heuristic deterministic.  All ``L + 1``
    positions are evaluated at once (Taillard's acceleration): inserted at
    position ``i``, ``job`` completes on machine ``k`` at
    ``f[i, k] = max(f[i, k-1], e[i, k]) + pt[job, k]``, and the makespan of
    that order is ``max_k f[i, k] + q[i, k]``.
    """
    heads, tails = _heads_and_tails(pt, order)
    row = pt[job].astype(np.int64)
    finish = np.zeros(len(order) + 1, dtype=np.int64)
    for k in range(pt.shape[1]):
        np.maximum(finish, heads[:, k], out=finish)
        finish += row[k]
        tails[:, k] += finish
    makespans = tails.max(axis=1)
    pos = int(np.argmin(makespans))  # first minimum: the earliest position
    return order[:pos] + [job] + order[pos:], int(makespans[pos])


def neh_order(instance: FlowShopInstance) -> list[int]:
    """Job permutation produced by the NEH heuristic."""
    pt = instance.processing_times
    totals = pt.sum(axis=1)
    # decreasing total processing time; stable tie-break by job index
    priority = sorted(range(instance.n_jobs), key=lambda j: (-int(totals[j]), j))
    order: list[int] = []
    for job in priority:
        order, _ = best_insertion(pt, order, job)
    return order


def neh_heuristic(instance: FlowShopInstance) -> Schedule:
    """Run NEH and return the resulting :class:`~repro.flowshop.schedule.Schedule`."""
    return Schedule(instance, tuple(neh_order(instance)))
