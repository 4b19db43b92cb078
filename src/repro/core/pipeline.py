"""Hybrid multi-core + GPU Branch-and-Bound (the paper's stated next step).

The conclusion of the paper announces work on "the combination of the
GPU-based bounding model with the multi-core parallel search tree
exploration".  This module provides that combination for the reproduction:

* the instance's root is decomposed into several independent sub-trees
  (exactly like :class:`~repro.bb.multicore.MulticoreBranchAndBound`);
* each sub-tree is explored by a :class:`~repro.core.gpu_bb.GpuBranchAndBound`
  engine that off-loads its bounding pools to the shared simulated device;
* incumbents found by earlier sub-trees seed the later ones, so pruning
  information flows between explorers (a cooperative search).

Because the simulated device serialises kernel launches, the hybrid engine
models a single GPU shared by several CPU explorer threads — the device time
is accumulated across explorers while the host-side exploration is assumed
to overlap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bb.driver import SearchDriver, SearchHooks, SearchLimits
from repro.bb.frontier import BlockFrontier, Trail, seed_block
from repro.bb.stats import SearchStats
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import (
    GpuBranchAndBound,
    GpuBBResult,
    IterationRecord,
    _ExecutorOffload,
    iteration_recorder,
)
from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.neh import neh_heuristic

__all__ = ["HybridConfig", "HybridBranchAndBound"]


@dataclass(frozen=True)
class HybridConfig:
    """Configuration of the hybrid multi-core + GPU engine.

    The embedded :class:`~repro.core.config.GpuBBConfig` (``gpu``) carries
    every device-side knob, including the ``kernel`` revision selector
    (``"v1"`` / ``"v2"``) that each explorer's executor uses for its
    bounding launches.
    """

    #: number of CPU explorer "threads" (sub-tree owners)
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


class HybridBranchAndBound:
    """Cooperative multi-explorer search with GPU-off-loaded bounding."""

    def __init__(self, instance: FlowShopInstance, config: HybridConfig | None = None):
        self.instance = instance
        self.config = config if config is not None else HybridConfig()

    # ------------------------------------------------------------------ #
    def _prefixes(self) -> list[tuple[int, ...]]:
        depth = min(self.config.decomposition_depth, self.instance.n_jobs)
        prefixes: list[tuple[int, ...]] = [()]
        for _ in range(depth):
            extended = []
            for prefix in prefixes:
                used = set(prefix)
                for job in range(self.instance.n_jobs):
                    if job not in used:
                        extended.append(prefix + (job,))
            prefixes = extended
        return prefixes

    def _restrict_instance(self, prefix: tuple[int, ...]) -> FlowShopInstance:
        """The sub-tree under ``prefix`` is explored as a first-jobs-fixed search.

        Rather than specialising the engine, the hybrid search keeps the full
        instance and forces the prefix by construction: it relies on
        :class:`GpuBranchAndBound` honouring an initial pool seeded below the
        prefix.  This helper exists for clarity and future extension.
        """
        return self.instance

    # ------------------------------------------------------------------ #
    def solve(self) -> GpuBBResult:
        """Explore the decomposed sub-trees cooperatively."""
        start = time.perf_counter()
        incumbent = neh_heuristic(self.instance)
        best_makespan = incumbent.makespan
        best_order = tuple(incumbent.order)
        launch_makespan = best_makespan

        prefixes = self._prefixes()
        # round-robin assignment of sub-trees to explorers (kept for reporting)
        assignments: dict[int, list[tuple[int, ...]]] = {
            e: [] for e in range(self.config.n_explorers)
        }
        for index, prefix in enumerate(prefixes):
            assignments[index % self.config.n_explorers].append(prefix)

        stats = SearchStats()
        simulated_total = 0.0
        measured_total = 0.0
        overlap_sim_total = 0.0
        proved = True
        all_iterations = []

        share_incumbent = self.config.gpu.share_incumbent
        for explorer, owned in assignments.items():
            for prefix in owned:
                # Cooperative mode seeds each sub-tree with the best bound
                # found so far; independent mode replays the launch-time one.
                seed_bound = best_makespan if share_incumbent else launch_makespan
                sub_result = self._solve_subtree(prefix, seed_bound)
                stats = stats.merge(sub_result.stats)
                simulated_total += sub_result.simulated_device_time_s
                measured_total += sub_result.measured_kernel_time_s
                overlap_sim_total += sub_result.overlap_saved_sim_s
                proved = proved and sub_result.proved_optimal
                all_iterations.extend(sub_result.iterations)
                if sub_result.best_order and sub_result.best_makespan < best_makespan:
                    best_makespan = sub_result.best_makespan
                    best_order = sub_result.best_order

        stats.time_total_s = time.perf_counter() - start
        stats.simulated_device_time_s = simulated_total
        return GpuBBResult(
            instance=self.instance,
            best_makespan=int(best_makespan),
            best_order=best_order,
            proved_optimal=proved,
            stats=stats,
            iterations=all_iterations,
            simulated_device_time_s=simulated_total,
            measured_kernel_time_s=measured_total,
            overlap_saved_sim_s=overlap_sim_total,
            config=self.config.gpu,
        )

    # ------------------------------------------------------------------ #
    def _solve_subtree(self, prefix: tuple[int, ...], upper_bound: float) -> GpuBBResult:
        """Solve one sub-tree with a GPU engine seeded below ``prefix``.

        Always returns a result so device time and statistics are accounted
        for even when the sub-tree cannot improve the shared incumbent (its
        ``best_order`` is then empty).
        """
        engine = GpuBranchAndBound(self.instance, self.config.gpu)
        # Seed a frontier with the prefix node instead of the root.
        trail = Trail()
        seed = seed_block(self.instance, prefix, trail)
        _, sim_s, wall_s = engine._offload_block(seed)
        is_leaf = int(seed.depth[0]) == self.instance.n_jobs
        seed_lb = int(seed.lower_bound[0])
        seed_makespan = int(seed.release[0, -1])

        # Bound the seed; skip the whole sub-tree if it cannot improve.
        if is_leaf:
            improved = seed_makespan < upper_bound
            return GpuBBResult(
                instance=self.instance,
                best_makespan=seed_makespan if improved else int(upper_bound),
                best_order=tuple(prefix) if improved else (),
                proved_optimal=True,
                stats=SearchStats(nodes_bounded=1, leaves_evaluated=1),
                simulated_device_time_s=sim_s,
                measured_kernel_time_s=wall_s,
                config=self.config.gpu,
            )
        if seed_lb >= upper_bound:
            return GpuBBResult(
                instance=self.instance,
                best_makespan=int(upper_bound),
                best_order=(),
                proved_optimal=True,
                stats=SearchStats(nodes_bounded=1, nodes_pruned=1),
                simulated_device_time_s=sim_s,
                measured_kernel_time_s=wall_s,
                config=self.config.gpu,
            )

        # Explore the sub-tree with a dedicated engine starting from the seed
        # node and from the shared incumbent.
        result = _solve_from_seed(engine, seed, trail, float(upper_bound))
        result.simulated_device_time_s += sim_s
        result.measured_kernel_time_s += wall_s
        result.stats.simulated_device_time_s = result.simulated_device_time_s
        return result


def _solve_from_seed(
    engine: GpuBranchAndBound, seed, trail: Trail, upper_bound: float
) -> GpuBBResult:
    """Run the batch-shape driver from a seeded frontier.

    ``seed`` is a one-row :class:`~repro.bb.frontier.NodeBlock` produced by
    :func:`~repro.bb.frontier.seed_block`; it was bounded (and its device
    time charged) by the caller.  The only budget the sub-tree exploration
    honours is ``config.max_iterations`` — exactly the historical hybrid
    behaviour.
    """
    config = engine.config
    instance = engine.instance
    stats = SearchStats()
    iterations: list[IterationRecord] = []
    start = time.perf_counter()
    stats.nodes_bounded += 1

    frontier = BlockFrontier(
        instance.n_jobs,
        instance.n_machines,
        trail,
        strategy=config.selection,
        max_pending=config.max_frontier_nodes,
        frontier_index=config.frontier_index,
    )
    frontier.push_block(seed)
    driver = SearchDriver(
        instance,
        selection=config.selection,
        offload=_ExecutorOffload(engine),
        batch_size=config.pool_size,
        limits=SearchLimits(max_iterations=config.max_iterations),
        hooks=SearchHooks(
            on_iteration=iteration_recorder(iterations, config.threads_per_block)
        ),
        double_buffer=config.double_buffer,
    )
    outcome = driver.run(
        frontier,
        upper_bound=upper_bound,
        best_order=(),
        stats=stats,
        trail=trail,
        next_order=int(seed.order_index[0]) + 1,
        start=start,
    )
    simulated_total = outcome.simulated_s - outcome.overlap_saved_sim_s
    stats.time_total_s = time.perf_counter() - start
    stats.max_pool_size = frontier.max_size_seen
    stats.simulated_device_time_s = simulated_total
    return GpuBBResult(
        instance=instance,
        best_makespan=int(outcome.upper_bound),
        best_order=tuple(outcome.best_order),
        proved_optimal=outcome.completed,
        stats=stats,
        iterations=iterations,
        simulated_device_time_s=simulated_total,
        measured_kernel_time_s=outcome.measured_s,
        overlap_saved_sim_s=outcome.overlap_saved_sim_s,
        config=config,
    )
