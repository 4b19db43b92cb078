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
shape.  :func:`batch_search` configures it from a :class:`GpuBBConfig` —
the GPU, cluster and hybrid engines share it — with an ``on_iteration``
hook that records the per-launch accounting, and runs it through
:func:`~repro.bb.driver.run_search`; :class:`GpuBranchAndBound` supplies
only the executor off-load.  With ``config.double_buffer`` the driver
additionally credits the overlap of host-side selection+branching of batch
N+1 with the device bounding of batch N (the ROADMAP's pipelined off-load).

Because the executor's batched kernel returns exactly the same values as the
scalar bound, the tree explored by this engine is the same as the serial
engine's (up to tie-breaking order), which is the property the paper relies
on when comparing ``T_cpu`` and ``T_gpu`` over the same node set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.bb.driver import (
    OffloadBackend,
    OffloadStep,
    SearchDriver,
    SearchHooks,
    SearchLimits,
    run_search,
)
from repro.bb.frontier import NodeBlock
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
    """Driver bounding backend: the executor bounds the block in place.

    The block's arrays ARE the device buffers (see
    :meth:`~repro.gpu.executor.GpuExecutor.evaluate_block`).
    """

    def __init__(self, executor: GpuExecutor):
        self._executor = executor

    def bound_block(
        self, block: NodeBlock, siblings: bool = False
    ) -> tuple[np.ndarray, float, float]:
        result = self._executor.evaluate_block(block)
        return result.bounds, result.simulated.total_s, result.measured_wall_s


def neh_upper_bound(
    instance: FlowShopInstance, config: GpuBBConfig
) -> tuple[float, tuple[int, ...]]:
    """The batch engines' starting incumbent: NEH unless ``use_neh_upper_bound`` is off."""
    if not config.use_neh_upper_bound:
        return math.inf, ()
    heuristic = neh_heuristic(instance)
    return float(heuristic.makespan), tuple(heuristic.order)


def search_limits(
    config: GpuBBConfig,
    spent: Optional[SearchStats] = None,
    launches: int = 0,
    deadline: Optional[float] = None,
) -> SearchLimits:
    """The config's budgets as driver limits: the one mapping every batch engine uses.

    A solve made of several searches (the hybrid's sub-trees) shares one
    budget: it passes the nodes (``spent``) and ``launches`` its earlier
    searches used, and one wall-clock ``deadline`` replaces ``max_time_s``.
    """
    explored = spent.nodes_explored if spent is not None else 0
    max_nodes, max_iterations = config.max_nodes, config.max_iterations
    return SearchLimits(
        max_nodes=None if max_nodes is None else max_nodes - explored,
        max_time_s=config.max_time_s if deadline is None else None,
        max_iterations=None if max_iterations is None else max_iterations - launches,
        deadline=deadline,
    )


def incumbent_makespan(upper_bound: float) -> int:
    """The final incumbent's makespan; a search that found none cannot report one."""
    if math.isinf(upper_bound):
        raise RuntimeError(
            "the search terminated without an incumbent; enable the NEH seed "
            "or provide a finite initial upper bound"
        )
    return int(upper_bound)


def batch_search(
    instance: FlowShopInstance,
    config: GpuBBConfig,
    offload: OffloadBackend,
    *,
    upper_bound: float,
    best_order: tuple[int, ...] = (),
    start: Sequence[int] = (),
    limits: Optional[SearchLimits] = None,
    incumbent_charge_s: Optional[Callable[[], float]] = None,
    seed_is_pool: bool = True,
) -> GpuBBResult:
    """One batch-shape search configured from ``config``: the GPU, cluster and hybrid body.

    Builds the driver (pool size, selection, budgets, double buffering),
    records one :class:`IterationRecord` per launch, runs
    :func:`~repro.bb.driver.run_search` from ``start`` and wraps the
    :class:`GpuBBResult`.  ``seed_is_pool`` counts the seed launch in
    ``pools_evaluated`` (the GPU and cluster root; the hybrid's prefix
    seeds are not pools).  ``incumbent_charge_s`` bills each incumbent
    improvement (the cluster's broadcast).
    """
    iterations: list[IterationRecord] = []

    def record(step: OffloadStep) -> None:
        iterations.append(
            IterationRecord(
                iteration=step.iteration,
                launch=KernelLaunch(step.nodes_offloaded, config.threads_per_block),
                nodes_offloaded=step.nodes_offloaded,
                nodes_pruned=step.nodes_pruned,
                nodes_kept=step.nodes_kept,
                incumbent=step.incumbent,
                simulated_device_s=step.simulated_s,
                measured_host_s=step.measured_s,
            )
        )

    driver = SearchDriver(
        instance,
        selection=config.selection,
        offload=offload,
        batch_size=config.pool_size,
        limits=limits if limits is not None else search_limits(config),
        hooks=SearchHooks(on_iteration=record, incumbent_charge_s=incumbent_charge_s),
        double_buffer=config.double_buffer,
    )
    outcome, stats = run_search(
        driver,
        start,
        upper_bound=upper_bound,
        best_order=best_order,
        max_pending=config.max_frontier_nodes,
    )
    if seed_is_pool:
        stats.pools_evaluated += 1
    return GpuBBResult(
        instance=instance,
        best_makespan=incumbent_makespan(outcome.upper_bound),
        best_order=tuple(outcome.best_order),
        proved_optimal=outcome.completed,
        stats=stats,
        iterations=iterations,
        simulated_device_time_s=stats.simulated_device_time_s,
        measured_kernel_time_s=outcome.measured_s,
        overlap_saved_sim_s=outcome.overlap_saved_sim_s,
        config=config,
    )


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
        )

    def solve(self) -> GpuBBResult:
        """Run the GPU-accelerated search from the root (bounded as a pool of one)."""
        upper_bound, best_order = neh_upper_bound(self.instance, self.config)
        return batch_search(
            self.instance,
            self.config,
            _ExecutorOffload(self.executor),
            upper_bound=upper_bound,
            best_order=best_order,
        )
