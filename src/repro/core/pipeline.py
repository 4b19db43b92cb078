"""Hybrid multi-core + GPU Branch-and-Bound (the paper's stated next step).

The conclusion of the paper announces work on "the combination of the
GPU-based bounding model with the multi-core parallel search tree
exploration".  This module provides that combination for the reproduction:

* the instance's root is decomposed into several independent sub-trees
  (exactly like :class:`~repro.bb.multicore.MulticoreBranchAndBound`);
* each sub-tree is explored by the GPU engine's batch search
  (:func:`~repro.core.gpu_bb.batch_search`), which off-loads its bounding
  pools to the shared simulated device;
* incumbents found by earlier sub-trees seed the later ones, so pruning
  information flows between explorers (a cooperative search).

The explorers run one after another in the calling thread: ``n_explorers``
only orders the sub-trees (round-robin ownership, each explorer's sub-trees
in turn).  The device time is accumulated across explorers.  One GPU engine
(one set of bound structures, one executor) serves every sub-tree, and
every budget of the GPU configuration bounds the whole solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bb.driver import SearchLimits
from repro.bb.stats import SearchStats
from repro.bb.worksteal import frontier_prefixes
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import (
    GpuBranchAndBound,
    GpuBBResult,
    IterationRecord,
    _ExecutorOffload,
    batch_search,
    incumbent_makespan,
    neh_upper_bound,
    search_limits,
)
from repro.flowshop.instance import FlowShopInstance

__all__ = ["HybridConfig", "HybridBranchAndBound"]


@dataclass(frozen=True)
class HybridConfig:
    """Configuration of the hybrid multi-core + GPU engine.

    The embedded :class:`~repro.core.config.GpuBBConfig` (``gpu``) carries
    every device-side knob of the bounding launches, the NEH choice and the
    budgets, which count over the whole solve.
    """

    #: number of explorers (sub-tree owners).  They run one after another,
    #: so the knob only orders the sub-trees: explorer 0's round-robin
    #: share first, then explorer 1's, and so on.
    n_explorers: int = 2
    #: depth of the initial decomposition (>=1)
    decomposition_depth: int = 1
    #: configuration shared by every explorer's GPU engine
    gpu: GpuBBConfig = field(default_factory=GpuBBConfig)

    def __post_init__(self) -> None:
        if self.n_explorers < 1:
            raise ValueError("n_explorers must be >= 1")
        if self.decomposition_depth < 1:
            raise ValueError("decomposition_depth must be >= 1")


def _exhausted(limits: SearchLimits) -> bool:
    """Whether a budget ran out before the next sub-tree could be seeded."""
    return (
        (limits.max_nodes is not None and limits.max_nodes <= 0)
        or (limits.max_iterations is not None and limits.max_iterations <= 0)
        or (limits.deadline is not None and time.time() > limits.deadline)
    )


class HybridBranchAndBound:
    """Cooperative multi-explorer search with GPU-off-loaded bounding."""

    def __init__(self, instance: FlowShopInstance, config: HybridConfig | None = None):
        self.instance = instance
        self.config = config if config is not None else HybridConfig()

    def solve(self) -> GpuBBResult:
        """Explore the decomposed sub-trees cooperatively.

        Each sub-tree is one :func:`~repro.core.gpu_bb.batch_search` from its
        prefix seed (the seed launches are not pools).  The budgets count
        over the whole solve — nodes and launches across sub-trees,
        ``max_time_s`` as one deadline — and once one runs out no further
        sub-tree is seeded and the result is not proved optimal.
        """
        start = time.perf_counter()
        gpu = self.config.gpu
        engine = GpuBranchAndBound(self.instance, gpu)
        offload = _ExecutorOffload(engine.executor)
        deadline = time.time() + gpu.max_time_s if gpu.max_time_s is not None else None
        best_makespan, best_order = neh_upper_bound(self.instance, gpu)
        launch_makespan = best_makespan

        depth = min(self.config.decomposition_depth, self.instance.n_jobs)
        prefixes = frontier_prefixes(self.instance.n_jobs, depth)
        # explorer e owns every n-th sub-tree from the e-th; explorers run in turn
        n = self.config.n_explorers
        ordered = [prefix for explorer in range(n) for prefix in prefixes[explorer::n]]

        stats = SearchStats()
        measured_total = 0.0
        overlap_sim_total = 0.0
        proved = True
        all_iterations: list[IterationRecord] = []
        for prefix in ordered:
            limits = search_limits(gpu, stats, len(all_iterations), deadline)
            if _exhausted(limits):
                proved = False
                break
            # Cooperative mode seeds each sub-tree with the best bound
            # found so far; independent mode replays the launch-time one.
            seed_bound = best_makespan if gpu.share_incumbent else launch_makespan
            sub_result = batch_search(
                self.instance,
                engine.config,
                offload,
                upper_bound=seed_bound,
                start=prefix,
                limits=limits,
                seed_is_pool=False,
            )
            stats = stats.merge(sub_result.stats)  # sums the simulated device time
            measured_total += sub_result.measured_kernel_time_s
            overlap_sim_total += sub_result.overlap_saved_sim_s
            proved = proved and sub_result.proved_optimal
            all_iterations.extend(sub_result.iterations)
            if sub_result.best_order and sub_result.best_makespan < best_makespan:
                best_makespan = sub_result.best_makespan
                best_order = sub_result.best_order

        stats.time_total_s = time.perf_counter() - start
        return GpuBBResult(
            instance=self.instance,
            best_makespan=incumbent_makespan(best_makespan),
            best_order=best_order,
            proved_optimal=proved,
            stats=stats,
            iterations=all_iterations,
            simulated_device_time_s=stats.simulated_device_time_s,
            measured_kernel_time_s=measured_total,
            overlap_saved_sim_s=overlap_sim_total,
            config=gpu,
        )
