"""The static split: the ablation the work-stealing engine is measured against.

Every depth-``d`` prefix's sub-tree is solved on its own, one after another,
from the launch-time bound, with no incumbent exchange.  The merged result
does not depend on the order or the number of workers, so one serial loop
reproduces any static mapping of the prefixes onto workers.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.bb.multicore import _SubtreeSolver, frontier_prefixes
from repro.bb.sequential import BBResult, initial_incumbent
from repro.bb.stats import SearchStats
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance

__all__ = ["static_split"]


def static_split(
    instance: FlowShopInstance,
    decomposition_depth: int = 2,
    initial_upper_bound: Optional[float] = None,
) -> BBResult:
    """Solve each prefix's sub-tree from the launch-time bound; merge in prefix order.

    Statistics are summed; the result is the strictly smallest makespan
    found, else the launch-time bound itself (NEH's schedule, or an empty
    order for a caller's bound).
    """
    start = time.perf_counter()
    upper_bound, best_order = initial_incumbent(instance, initial_upper_bound)
    best_makespan = int(upper_bound) if best_order else None
    stats, completed = SearchStats(), True
    data = LowerBoundData(instance)
    for prefix in frontier_prefixes(instance.n_jobs, min(decomposition_depth, instance.n_jobs)):
        makespan, order, task_stats, task_completed = _SubtreeSolver(
            data, prefix, upper_bound
        ).run()
        stats = stats.merge(task_stats)
        completed = completed and task_completed
        if makespan is not None and (best_makespan is None or makespan < best_makespan):
            best_makespan, best_order = makespan, order
    stats.time_total_s = time.perf_counter() - start
    return BBResult(
        instance=instance,
        best_makespan=int(upper_bound) if best_makespan is None else best_makespan,
        best_order=tuple(best_order),
        proved_optimal=completed,
        stats=stats,
    )
