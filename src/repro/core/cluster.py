"""Cluster of GPU-accelerated nodes (the paper's second future-work item).

The conclusion of the paper plans to "extend this work to a cluster of
GPU-accelerated multi-core processors".  This module provides that extension
for the reproduction:

* :class:`ClusterSpec` — a homogeneous cluster of nodes, each hosting one
  simulated GPU and a few CPU cores, connected by an interconnect with a
  latency/bandwidth cost (an MPI-like model, in the spirit of the
  mpi4py-based deployments such a system would use).
* :class:`ClusterSimulator` — distributes a pool of sub-problems over the
  nodes (block distribution), charges each node its local GPU time via
  :class:`~repro.gpu.simulator.GpuSimulator`, adds the scatter/gather
  communication and the coordinator-side merge, and reports the resulting
  makespan of the step (the slowest node) plus scaling efficiency.
* :class:`ClusterBranchAndBound` — a functional engine: the pool of children
  produced at every iteration is split across ``n_nodes`` executors (each
  evaluating its chunk with the exact batched kernel), so the search remains
  exact while the timing model captures the distribution overheads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bb.driver import SearchDriver, SearchHooks, SearchLimits
from repro.bb.frontier import BlockFrontier, NodeBlock, Trail, root_block
from repro.bb.node import Node, root_node
from repro.bb.operators import encode_pool
from repro.bb.pool import make_pool
from repro.bb.stats import SearchStats
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import GpuBBResult, IterationRecord, iteration_recorder
from repro.core.mapping import recommend_placement
from repro.flowshop.bounds import DataStructureComplexity, LowerBoundData
from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.neh import neh_heuristic
from repro.gpu.device import DeviceSpec, TESLA_C2050
from repro.gpu.executor import GpuExecutor
from repro.gpu.simulator import GpuSimulator, KernelCostModel

__all__ = ["ClusterSpec", "ClusterStepTiming", "ClusterSimulator", "ClusterBranchAndBound"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of GPU-accelerated nodes."""

    n_nodes: int = 4
    device: DeviceSpec = TESLA_C2050
    #: interconnect latency per message (seconds); ~MPI over InfiniBand
    interconnect_latency_s: float = 30e-6
    #: interconnect bandwidth (bytes per second); ~QDR InfiniBand effective rate
    interconnect_bandwidth_bps: float = 3.0e9
    #: per-node payload bytes per sub-problem shipped by the coordinator
    node_payload_bytes: int = 128
    #: coordinator-side cost to merge one node's results (seconds)
    merge_cost_per_node_s: float = 10e-6
    #: bytes of one incumbent-bound broadcast (the tightened upper bound)
    incumbent_broadcast_bytes: int = 8

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        if self.interconnect_latency_s < 0 or self.interconnect_bandwidth_bps <= 0:
            raise ValueError("invalid interconnect parameters")

    def scatter_time_s(self, pool_size: int, payload_bytes: int | None = None) -> float:
        """Time to scatter a pool of sub-problems to the nodes.

        Each sub-problem is shipped exactly once, so the byte cost is
        ``pool_size * payload`` regardless of how the pool splits across the
        nodes (the last node's chunk may be short); only the per-message
        latency scales with the node count.
        """
        if pool_size < 0:
            raise ValueError("pool_size must be non-negative")
        payload = self.node_payload_bytes if payload_bytes is None else payload_bytes
        return self.n_nodes * self.interconnect_latency_s + (
            pool_size * payload / self.interconnect_bandwidth_bps
        )

    def incumbent_broadcast_time_s(self) -> float:
        """Time for one coordinator-to-nodes broadcast of a tightened bound.

        Charged once per incumbent improvement when the engines share the
        incumbent (one extra interconnect message carrying the new upper
        bound).
        """
        return self.interconnect_latency_s + (
            self.incumbent_broadcast_bytes / self.interconnect_bandwidth_bps
        )

    def gather_time_s(self, pool_size: int, result_bytes: int = 4) -> float:
        """Time to gather the lower bounds back to the coordinator."""
        if pool_size < 0:
            raise ValueError("pool_size must be non-negative")
        return (
            self.n_nodes * self.interconnect_latency_s
            + pool_size * result_bytes / self.interconnect_bandwidth_bps
            + self.n_nodes * self.merge_cost_per_node_s
        )


@dataclass(frozen=True)
class ClusterStepTiming:
    """Timing of one distributed bounding step."""

    pool_size: int
    n_nodes: int
    scatter_s: float
    gather_s: float
    node_compute_s: float  # slowest node's local GPU time
    per_node_pool: int

    @property
    def total_s(self) -> float:
        return self.scatter_s + self.gather_s + self.node_compute_s


class ClusterSimulator:
    """Analytical model of distributed pool bounding over a GPU cluster."""

    def __init__(
        self,
        cluster: ClusterSpec,
        cost_model: KernelCostModel | None = None,
        threads_per_block: int = 256,
    ):
        self.cluster = cluster
        self.cost_model = cost_model if cost_model is not None else KernelCostModel()
        self.threads_per_block = threads_per_block

    def _node_simulator(self, complexity: DataStructureComplexity) -> GpuSimulator:
        placement = recommend_placement(complexity, self.cluster.device, cost_model=self.cost_model)
        return GpuSimulator(
            device=self.cluster.device, placement=placement, cost_model=self.cost_model
        )

    def evaluate_pool(
        self,
        complexity: DataStructureComplexity,
        pool_size: int,
        n_remaining: int | None = None,
    ) -> ClusterStepTiming:
        """Distributed evaluation of one pool of ``pool_size`` sub-problems."""
        if pool_size < 0:
            raise ValueError("pool_size must be non-negative")
        per_node = math.ceil(pool_size / self.cluster.n_nodes) if pool_size else 0
        simulator = self._node_simulator(complexity)
        if per_node:
            node_timing = simulator.evaluate_pool(
                complexity,
                per_node,
                threads_per_block=self.threads_per_block,
                n_remaining=n_remaining,
            )
            node_compute = node_timing.total_s
        else:
            node_compute = 0.0
        return ClusterStepTiming(
            pool_size=pool_size,
            n_nodes=self.cluster.n_nodes,
            scatter_s=self.cluster.scatter_time_s(pool_size),
            gather_s=self.cluster.gather_time_s(pool_size),
            node_compute_s=node_compute,
            per_node_pool=per_node,
        )

    def scaling_efficiency(
        self,
        complexity: DataStructureComplexity,
        pool_size: int,
        n_nodes_list: Sequence[int] = (1, 2, 4, 8, 16),
    ) -> dict[int, float]:
        """Speed-up over a single node for several cluster sizes.

        Efficiency is the classic ``speedup / n_nodes``; values close to 1
        mean near-linear scaling.  Small pools scale poorly (the scatter and
        gather latencies dominate), very large pools scale almost linearly —
        the same pool-size story as the single-GPU case, one level up.
        """
        reference_cluster = ClusterSpec(
            n_nodes=1,
            device=self.cluster.device,
            interconnect_latency_s=self.cluster.interconnect_latency_s,
            interconnect_bandwidth_bps=self.cluster.interconnect_bandwidth_bps,
            node_payload_bytes=self.cluster.node_payload_bytes,
            merge_cost_per_node_s=self.cluster.merge_cost_per_node_s,
        )
        reference = ClusterSimulator(reference_cluster, self.cost_model, self.threads_per_block)
        t1 = reference.evaluate_pool(complexity, pool_size).total_s
        efficiencies: dict[int, float] = {}
        for n_nodes in n_nodes_list:
            cluster = ClusterSpec(
                n_nodes=n_nodes,
                device=self.cluster.device,
                interconnect_latency_s=self.cluster.interconnect_latency_s,
                interconnect_bandwidth_bps=self.cluster.interconnect_bandwidth_bps,
                node_payload_bytes=self.cluster.node_payload_bytes,
                merge_cost_per_node_s=self.cluster.merge_cost_per_node_s,
            )
            simulator = ClusterSimulator(cluster, self.cost_model, self.threads_per_block)
            tn = simulator.evaluate_pool(complexity, pool_size).total_s
            efficiencies[n_nodes] = (t1 / tn) / n_nodes
        return efficiencies


class ClusterBranchAndBound:
    """Exact B&B whose bounding pools are distributed over a simulated cluster.

    The coordinator keeps the pending pool, selects/branches on the CPU, and
    splits every generated pool of children into ``n_nodes`` chunks, each
    evaluated by its own :class:`~repro.gpu.executor.GpuExecutor` (the exact
    batched kernel).  The simulated time of an iteration is the slowest
    node's device time plus the scatter/gather costs.
    """

    def __init__(
        self,
        instance: FlowShopInstance,
        cluster: ClusterSpec | None = None,
        config: GpuBBConfig | None = None,
    ):
        self.instance = instance
        self.cluster = cluster if cluster is not None else ClusterSpec()
        self.config = config if config is not None else GpuBBConfig()
        self.data = LowerBoundData(instance)
        placement = self.config.placement or recommend_placement(
            self.data.complexity, self.cluster.device, cost_model=self.config.cost_model
        )
        self.executors = [
            GpuExecutor(
                self.data,
                device=self.cluster.device,
                placement=placement,
                cost_model=self.config.cost_model,
                threads_per_block=self.config.threads_per_block,
                include_one_machine=instance.n_machines == 1,
                kernel=self.config.kernel,
            )
            for _ in range(self.cluster.n_nodes)
        ]

    # ------------------------------------------------------------------ #
    def _distributed_bound(self, children: list[Node]) -> tuple[float, float]:
        """Bound ``children`` across the nodes; returns (sim step time, wall time)."""
        chunks = np.array_split(np.arange(len(children)), self.cluster.n_nodes)
        slowest = 0.0
        wall = 0.0
        for executor, chunk in zip(self.executors, chunks):
            if chunk.size == 0:
                continue
            subset = [children[i] for i in chunk]
            mask, release = encode_pool(subset, self.data.n_jobs, self.data.n_machines)
            result = executor.evaluate(mask, release)
            for node, value in zip(subset, result.bounds):
                node.lower_bound = int(value)
            slowest = max(slowest, result.simulated.total_s)
            wall += result.measured_wall_s
        scatter = self.cluster.scatter_time_s(len(children))
        gather = self.cluster.gather_time_s(len(children))
        return scatter + slowest + gather, wall

    def _distributed_bound_block(self, children: NodeBlock) -> tuple[float, float]:
        """Bound a block across the nodes; each node reads its row slice.

        ``array_split`` chunks are contiguous row ranges, so every node's
        buffers are zero-copy views of the block — the scatter is free on
        the host side and only billed by the interconnect model.  A slice
        may cut one parent's sibling run in two; the kernel groups rows by
        parent set, so both halves are still bounded incrementally.
        """
        total = len(children)
        chunks = np.array_split(np.arange(total), self.cluster.n_nodes)
        bounds = children.lower_bound
        jobs = children.jobs
        slowest = 0.0
        wall = 0.0
        for executor, chunk in zip(self.executors, chunks):
            if chunk.size == 0:
                continue
            lo, hi = int(chunk[0]), int(chunk[-1]) + 1
            result = executor.evaluate(
                children.scheduled_mask[lo:hi],
                children.release[lo:hi],
                jobs=jobs[lo:hi] if jobs is not None else None,
            )
            bounds[lo:hi] = result.bounds
            slowest = max(slowest, result.simulated.total_s)
            wall += result.measured_wall_s
        scatter = self.cluster.scatter_time_s(total)
        gather = self.cluster.gather_time_s(total)
        return scatter + slowest + gather, wall

    def solve(self) -> GpuBBResult:
        """Run the distributed search to completion (or until a budget is hit).

        The iteration is the batch shape of
        :class:`~repro.bb.driver.SearchDriver`, configured with the
        distributed bounding off-load and an ``incumbent_charge_s`` hook
        that bills one coordinator-to-nodes broadcast per incumbent
        improvement when ``config.share_incumbent`` is set.
        """
        config = self.config
        instance = self.instance
        stats = SearchStats()
        iterations: list[IterationRecord] = []

        heuristic = neh_heuristic(instance)
        upper_bound = float(heuristic.makespan)
        best_order: tuple[int, ...] = tuple(heuristic.order)
        stats.incumbent_updates += 1

        start = time.perf_counter()

        run_kwargs: dict[str, object] = {}
        if config.layout == "block":
            trail = Trail()
            store: object = BlockFrontier(
                instance.n_jobs,
                instance.n_machines,
                trail,
                strategy=config.selection,
                max_pending=config.max_frontier_nodes,
                frontier_index=config.frontier_index,
            )
            root = root_block(instance, trail)
            sim_s, wall_s = self._distributed_bound_block(root)
            root_survives = int(root.lower_bound[0]) < upper_bound
            if root_survives:
                store.push_block(root)
            run_kwargs = {"trail": trail, "next_order": 1}
        else:
            store = make_pool(config.selection)
            root = root_node(instance)
            sim_s, wall_s = self._distributed_bound([root])
            root_survives = root.lower_bound is not None and root.lower_bound < upper_bound
            if root_survives:
                store.push(root)
        stats.nodes_bounded += 1
        stats.pools_evaluated += 1
        if not root_survives:
            stats.nodes_pruned += 1

        hooks = SearchHooks(
            on_iteration=iteration_recorder(iterations, config.threads_per_block),
        )
        if config.share_incumbent:
            # the coordinator broadcasts every tightened bound to the
            # nodes so their next local elimination uses it
            hooks.incumbent_charge_s = self.cluster.incumbent_broadcast_time_s
        driver = SearchDriver(
            instance,
            layout=config.layout,
            selection=config.selection,
            offload=_DistributedOffload(self),
            batch_size=config.pool_size,
            limits=SearchLimits(
                max_nodes=config.max_nodes, max_iterations=config.max_iterations
            ),
            hooks=hooks,
            double_buffer=config.double_buffer,
            overlap=config.overlap,
        )
        outcome = driver.run(
            store,
            upper_bound=upper_bound,
            best_order=best_order,
            stats=stats,
            start=start,
            **run_kwargs,
        )
        simulated_total = sim_s + outcome.simulated_s - outcome.overlap_saved_sim_s
        measured_total = wall_s + outcome.measured_s

        stats.time_total_s = time.perf_counter() - start
        stats.max_pool_size = store.max_size_seen
        stats.simulated_device_time_s = simulated_total
        return GpuBBResult(
            instance=instance,
            best_makespan=int(outcome.upper_bound),
            best_order=tuple(outcome.best_order),
            proved_optimal=outcome.completed,
            stats=stats,
            iterations=iterations,
            simulated_device_time_s=simulated_total,
            measured_kernel_time_s=measured_total,
            overlap_saved_sim_s=outcome.overlap_saved_sim_s,
            overlap_saved_wall_s=outcome.overlap_saved_wall_s,
            config=config,
        )


class _DistributedOffload:
    """Driver bounding backend splitting each pool across the cluster nodes."""

    def __init__(self, engine: ClusterBranchAndBound):
        self._engine = engine

    def bound_nodes(self, nodes: list[Node]) -> tuple[None, float, float]:
        sim_s, wall_s = self._engine._distributed_bound(nodes)
        return None, sim_s, wall_s

    def bound_block(
        self, block: NodeBlock, siblings: bool = False
    ) -> tuple[np.ndarray, float, float]:
        sim_s, wall_s = self._engine._distributed_bound_block(block)
        return block.lower_bound, sim_s, wall_s
