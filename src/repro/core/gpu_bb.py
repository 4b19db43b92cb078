"""GPU-accelerated Branch-and-Bound (the paper's Figure 3 architecture).

The control flow follows the paper exactly:

1. The CPU keeps the pool of pending sub-problems (best-first order) and the
   incumbent (upper bound).
2. Each iteration, the *selection* operator takes up to ``pool_size`` nodes
   from the pool and the *branching* operator decomposes them into children.
3. The children are packed into device buffers and off-loaded to the
   (simulated) GPU where the bounding kernel evaluates one lower bound per
   thread.
4. The bounds travel back to the CPU, where the *elimination* operator
   prunes children whose bound cannot improve the incumbent; complete
   schedules update the incumbent; survivors re-enter the pool.
5. Repeat until the pool is empty (optimality proven) or a budget is hit.

That iteration is :class:`~repro.bb.driver.SearchDriver` in its batch
shape; :class:`GpuBranchAndBound` configures it with the executor off-load
and an ``on_iteration`` hook that records the per-launch accounting.  With
``config.double_buffer`` the driver additionally credits the overlap of
host-side selection+branching of batch N+1 with the device bounding of
batch N (the ROADMAP's pipelined off-load).

Because the executor's batched kernel returns exactly the same values as the
scalar bound, the tree explored by this engine is the same as the serial
engine's (up to tie-breaking order), which is the property the paper relies
on when comparing ``T_cpu`` and ``T_gpu`` over the same node set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.bb.driver import OffloadStep, SearchDriver, SearchHooks, SearchLimits
from repro.bb.frontier import BlockFrontier, NodeBlock, Trail, root_block
from repro.bb.sequential import BBResult
from repro.bb.stats import SearchStats
from repro.core.config import GpuBBConfig
from repro.core.kernels import KernelLaunch
from repro.core.mapping import recommend_placement
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.neh import neh_heuristic
from repro.gpu.executor import GpuExecutor

__all__ = ["GpuBranchAndBound", "GpuBBResult", "IterationRecord"]


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration accounting (one off-loaded pool)."""

    iteration: int
    launch: KernelLaunch
    nodes_offloaded: int
    nodes_pruned: int
    nodes_kept: int
    incumbent: float
    simulated_device_s: float
    measured_host_s: float


@dataclass
class GpuBBResult(BBResult):
    """Result of a GPU-accelerated run, with device-side accounting."""

    iterations: list[IterationRecord] = field(default_factory=list)
    simulated_device_time_s: float = 0.0
    measured_kernel_time_s: float = 0.0
    #: simulated seconds saved by the double-buffered off-load model
    #: (0 unless ``config.double_buffer`` was enabled)
    overlap_saved_sim_s: float = 0.0
    config: Optional[GpuBBConfig] = None

    def simulated_speedup(self, serial_seconds: float) -> float:
        """Speed-up of the simulated device time over a serial reference."""
        if self.simulated_device_time_s <= 0:
            raise ValueError("no simulated device time recorded")
        return serial_seconds / self.simulated_device_time_s


class _ExecutorOffload:
    """Driver bounding backend delegating to the engine's executor."""

    def __init__(self, engine: "GpuBranchAndBound"):
        self._engine = engine

    def bound_block(
        self, block: NodeBlock, siblings: bool = False
    ) -> tuple[np.ndarray, float, float]:
        return self._engine._offload_block(block)


def iteration_recorder(
    iterations: list[IterationRecord], threads_per_block: int
):
    """An ``on_iteration`` hook appending :class:`IterationRecord` entries."""

    def record(step: OffloadStep) -> None:
        iterations.append(
            IterationRecord(
                iteration=step.iteration,
                launch=KernelLaunch(step.nodes_offloaded, threads_per_block),
                nodes_offloaded=step.nodes_offloaded,
                nodes_pruned=step.nodes_pruned,
                nodes_kept=step.nodes_kept,
                incumbent=step.incumbent,
                simulated_device_s=step.simulated_s,
                measured_host_s=step.measured_s,
            )
        )

    return record


class GpuBranchAndBound:
    """Branch-and-Bound with GPU-off-loaded bounding.

    Parameters
    ----------
    instance:
        The flow-shop instance to solve.
    config:
        Execution configuration (pool size, block size, placement, budgets).

    Examples
    --------
    >>> from repro.flowshop import random_instance
    >>> from repro.core import GpuBBConfig, GpuBranchAndBound
    >>> inst = random_instance(8, 4, seed=1)
    >>> result = GpuBranchAndBound(inst, GpuBBConfig(pool_size=64)).solve()
    >>> result.proved_optimal
    True
    """

    def __init__(self, instance: FlowShopInstance, config: GpuBBConfig | None = None):
        self.instance = instance
        config = config if config is not None else GpuBBConfig()
        self.data = LowerBoundData(instance)
        placement = config.placement
        if placement is None:
            placement = recommend_placement(
                self.data.complexity,
                config.device,
                cost_model=config.cost_model,
                threads_per_block=config.threads_per_block,
            )
        # keep the resolved placement visible in the configuration carried by results
        self.config = config.with_placement(placement)
        self.placement = placement
        self.executor = GpuExecutor(
            self.data,
            device=self.config.device,
            placement=placement,
            cost_model=self.config.cost_model,
            threads_per_block=self.config.threads_per_block,
            include_one_machine=self.config.include_one_machine_bound or instance.n_machines == 1,
        )

    # ------------------------------------------------------------------ #
    def _initial_incumbent(self) -> tuple[float, tuple[int, ...]]:
        if not self.config.use_neh_upper_bound:
            return float("inf"), ()
        heuristic = neh_heuristic(self.instance)
        return float(heuristic.makespan), tuple(heuristic.order)

    def _offload_block(self, block: NodeBlock) -> tuple[np.ndarray, float, float]:
        """Evaluate a block on the executor — its arrays ARE the device buffers."""
        result = self.executor.evaluate_block(block)
        return result.bounds, result.simulated.total_s, result.measured_wall_s

    def _driver(self, hooks: SearchHooks) -> SearchDriver:
        config = self.config
        return SearchDriver(
            self.instance,
            selection=config.selection,
            offload=_ExecutorOffload(self),
            batch_size=config.pool_size,
            limits=SearchLimits(
                max_nodes=config.max_nodes,
                max_time_s=config.max_time_s,
                max_iterations=config.max_iterations,
            ),
            hooks=hooks,
            double_buffer=config.double_buffer,
        )

    # ------------------------------------------------------------------ #
    def solve(self) -> GpuBBResult:
        """Run the GPU-accelerated search."""
        config = self.config
        instance = self.instance
        stats = SearchStats()
        iterations: list[IterationRecord] = []

        upper_bound, best_order = self._initial_incumbent()
        if best_order:
            stats.incumbent_updates += 1

        start = time.perf_counter()

        # Bound the root on the device (a pool of one) and seed the frontier.
        trail = Trail()
        frontier = BlockFrontier(
            instance.n_jobs,
            instance.n_machines,
            trail,
            strategy=config.selection,
            max_pending=config.max_frontier_nodes,
        )
        root = root_block(instance, trail)
        _, sim_s, wall_s = self._offload_block(root)
        root_survives = int(root.lower_bound[0]) < upper_bound
        if root_survives:
            frontier.push_block(root)
        stats.nodes_bounded += 1
        stats.pools_evaluated += 1
        if not root_survives:
            stats.nodes_pruned += 1

        hooks = SearchHooks(
            on_iteration=iteration_recorder(iterations, config.threads_per_block)
        )
        outcome = self._driver(hooks).run(
            frontier,
            upper_bound=upper_bound,
            best_order=best_order,
            stats=stats,
            trail=trail,
            next_order=1,
            start=start,
        )
        simulated_total = sim_s + outcome.simulated_s - outcome.overlap_saved_sim_s
        measured_kernel = wall_s + outcome.measured_s

        stats.time_total_s = time.perf_counter() - start
        stats.max_pool_size = frontier.max_size_seen
        stats.simulated_device_time_s = simulated_total

        if not outcome.best_order:
            raise RuntimeError(
                "the search terminated without an incumbent; enable the NEH seed "
                "or provide a finite initial upper bound"
            )
        return GpuBBResult(
            instance=instance,
            best_makespan=int(outcome.upper_bound),
            best_order=tuple(outcome.best_order),
            proved_optimal=outcome.completed,
            stats=stats,
            iterations=iterations,
            simulated_device_time_s=simulated_total,
            measured_kernel_time_s=measured_kernel,
            overlap_saved_sim_s=outcome.overlap_saved_sim_s,
            config=config,
        )
