"""The one canonical Branch-and-Bound iteration, shared by every engine.

Melab, Chakroun, Mezmaz & Tuyttens describe a *single* B&B iteration —
*select* pending sub-problems, *branch* them into children, *bound* the
children, *eliminate* those that cannot improve the incumbent — and vary
only where the bounding runs (CPU, GPU, cluster of GPU nodes) and which
distribution overheads are charged.  :class:`SearchDriver` is that
iteration written once.  It owns the loop over the columnar
:class:`~repro.bb.frontier.BlockFrontier` — each pool goes to the bounding
operator as flat :class:`~repro.bb.frontier.NodeBlock` arrays, as in the
paper — and is parameterized by

* an **offload** — any object with ``bound_block(block, siblings)``
  returning ``(bounds, simulated_s, measured_s)``: the bounding operator
  plus its simulated-time charge.  Bounds are written into the block's
  ``lower_bound`` column; the tuple's ``bounds`` element is advisory (the
  driver never reads it).  :class:`LocalBounding` is the host-side default
  (zero charge); the GPU, cluster and hybrid engines pass adapters around
  their executors.
* **per-step hooks** (:class:`SearchHooks`) through which engines inject
  their deployment specifics without owning a loop of their own.
* **budgets** (:class:`SearchLimits`): node, wall-clock, iteration and
  absolute-deadline stop predicates.

Two loop bodies — one per *shape* — cover every engine: the
**single-step** shape pops one node (or one best-first tie batch) per step
and bounds its sibling set — the serial engine and the work-stealing
workers; the **batch** shape (``batch_size`` set) selects up to
``batch_size`` nodes, branches them all and off-loads one large pool per
iteration — the paper's GPU architecture and its cluster/hybrid
extensions.  The batch body serves both ``overlap`` modes: ``"sync"``
bounds each pool on the driver thread, ``"async"`` on a worker thread
behind a two-slot pipeline (:mod:`repro.bb.offload`).

Deployment map (paper deployment → driver configuration)
--------------------------------------------------------
================= ==================== ====================================
Deployment        Offload              Hook / budget set
================= ==================== ====================================
serial CPU        LocalBounding        single-step; ``trace`` recording,
(paper's T_cpu)                        ``on_improve_incumbent`` user
                                       callback; ``max_nodes``/``max_time_s``
GPU (Figure 3)    executor adapter     batch mode (``batch_size`` =
                                       pool size); ``on_iteration`` records
                                       per-launch accounting; optional
                                       ``double_buffer`` overlap credit
pipeline / hybrid executor adapter     batch mode from a seeded frontier;
                                       ``max_iterations``; cooperative
                                       incumbent seeding happens *between*
                                       driver runs
cluster           distributed adapter  batch mode; ``incumbent_charge_s``
                                       bills one interconnect broadcast per
                                       incumbent improvement
multicore         LocalBounding        single-step; ``poll_bound`` +
(work stealing)                        ``poll_interval`` re-read the shared
                                       incumbent and re-prune the pool;
                                       ``on_improve_incumbent`` publishes
                                       CAS updates; ``deadline`` budget
================= ==================== ====================================

The driver reproduces the historical per-engine loops bit-for-bit: the
explored tree, the result, every node counter and the trace are identical
to the pre-driver implementations (see ``tests/test_driver.py``, which
pins golden results captured from them).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import numpy as np

from repro.bb.frontier import (
    BlockFrontier,
    NodeBlock,
    Trail,
    bound_block,
    branch_block,
    branch_row,
    leaf_improvements,
)
from repro.bb.offload import AsyncOffload, InlineOffload
from repro.bb.snapshot import CheckpointPolicy, CheckpointState
from repro.bb.stats import SearchStats
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance

__all__ = [
    "TraceEvent",
    "SearchLimits",
    "SearchHooks",
    "OffloadStep",
    "OffloadBackend",
    "LocalBounding",
    "DriverResult",
    "SearchDriver",
]


class OffloadBackend(Protocol):
    """The bounding-backend contract every offload implementation satisfies.

    Four implementations exist (:class:`LocalBounding`, the service's
    ``BatchingOffload``, the cluster's ``_DistributedOffload``, the GPU
    engine's ``_ExecutorOffload``); the driver calls them interchangeably.
    ``bound_block`` writes bounds into the block in place and returns the
    ``(bounds, simulated_s, measured_s)`` triple; ``tools/repro_lint``'s
    ``offload-contract`` rule re-checks the shape statically on every
    class that defines the method.
    """

    def bound_block(
        self, block: NodeBlock, siblings: bool = False
    ) -> tuple[np.ndarray, float, float]:
        """Bound one block's rows, writing its ``lower_bound`` column."""
        ...


@dataclass(frozen=True)
class TraceEvent:
    """One node as seen by the search (only recorded in trace mode)."""

    prefix: tuple[int, ...]
    lower_bound: int
    upper_bound_at_visit: float
    action: str  # "branched", "pruned", "leaf", "incumbent"


@dataclass(frozen=True)
class OffloadStep:
    """Accounting of one batch-mode iteration (one off-loaded pool)."""

    iteration: int
    nodes_offloaded: int
    nodes_pruned: int
    nodes_kept: int
    incumbent: float
    simulated_s: float
    measured_s: float


@dataclass(frozen=True)
class SearchLimits:
    """Stop predicates of one driver run.  Engines pass only what they honour.

    ``max_nodes`` bounds ``stats.nodes_explored``; ``max_time_s`` is a span
    from the run's ``start`` (``time.perf_counter``); ``max_iterations``
    bounds batch-mode off-load steps; ``deadline`` is an absolute
    ``time.time()`` epoch shared across worker processes.
    """

    max_nodes: Optional[int] = None
    max_time_s: Optional[float] = None
    max_iterations: Optional[int] = None
    deadline: Optional[float] = None


@dataclass
class SearchHooks:
    """Per-step hooks through which engines inject their specifics.

    on_select:
        Called with the number of nodes taken by each selection step.
    on_improve_incumbent:
        Called for every incumbent improvement with ``(makespan,
        order_supplier)`` where ``order_supplier()`` lazily materializes the
        improving permutation (trail prefixes are only walked when a
        hook actually wants them).
    incumbent_charge_s:
        Simulated-seconds charge billed per incumbent improvement — the
        cluster engine's coordinator-to-nodes bound broadcast.
    on_eliminate:
        Called with the number of children pruned by each elimination step.
    poll_bound / poll_interval:
        Work-stealing bound polling: every ``poll_interval`` pops the driver
        reads ``poll_bound()`` and, when a peer tightened the incumbent,
        adopts it and re-prunes the pending pool (``prune_to``).
    on_iteration:
        Batch mode only: called with an :class:`OffloadStep` after each
        off-loaded pool (the GPU engines build their launch records here).
    on_overlap:
        Double-buffer mode only: called with the simulated seconds saved by
        overlapping host-side selection+branching of batch N+1 with the
        device bounding of batch N.
    on_checkpoint:
        Called with a :class:`~repro.bb.snapshot.CheckpointState` whenever
        the driver's :class:`~repro.bb.snapshot.CheckpointPolicy` is due.
        Fired at the top of the loop, before the step mutates anything, so
        a snapshot written here resumes bit-identically; requires the
        driver's ``checkpoint`` policy to be set.
    """

    on_select: Optional[Callable[[int], None]] = None
    on_improve_incumbent: Optional[
        Callable[[int, Callable[[], tuple[int, ...]]], None]
    ] = None
    incumbent_charge_s: Optional[Callable[[], float]] = None
    on_eliminate: Optional[Callable[[int], None]] = None
    poll_bound: Optional[Callable[[], float]] = None
    poll_interval: int = 64
    on_iteration: Optional[Callable[[OffloadStep], None]] = None
    on_overlap: Optional[Callable[[float], None]] = None
    on_checkpoint: Optional[Callable[[CheckpointState], None]] = None


@dataclass
class DriverResult:
    """Outcome of one driver run (engines wrap it into their result types)."""

    upper_bound: float
    best_order: tuple[int, ...]
    #: makespan of the last improvement found by THIS run (``None`` when the
    #: run never improved on the initial bound — distinct from
    #: ``upper_bound``, which bound polling may tighten past local finds)
    best_value: Optional[int]
    completed: bool
    iterations: int
    simulated_s: float
    measured_s: float
    #: simulated seconds credited by the ``double_buffer`` overlap model
    overlap_saved_sim_s: float
    #: measured wall seconds actually hidden by the ``overlap="async"``
    #: two-slot pipeline: per iteration, the positive part of
    #: ``(select + branch + worker bounding + apply) - elapsed``
    overlap_saved_wall_s: float = 0.0
    #: creation index of the next node (engines persist it in snapshots so
    #: a resumed search keeps the tie-break sequence intact)
    next_order: int = 0
    trace: list[TraceEvent] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        """True when the run tightened the incumbent at least once."""
        return self.best_value is not None


class LocalBounding:
    """Host-side bounding "offload": the serial engines' default backend.

    Bounds run on the CPU with the chosen kernel revision (``"scalar"``
    keeps the paper-faithful one-call-per-child evaluation), and the
    simulated-time charge is zero — exactly the ``T_cpu`` baseline the
    paper's speed-ups are measured against.
    """

    #: host bounding is stateless per call and charges no simulated time,
    #: so the async driver may split one batch into micro-chunk launches
    #: without changing any reported figure (executor-backed offloads keep
    #: single launches: their simulated charge depends on pool contents)
    supports_chunked_overlap = True

    def __init__(
        self,
        data: LowerBoundData,
        kernel: str = "v2",
        include_one_machine: bool = False,
    ):
        self.data = data
        self.kernel = kernel
        self.include_one_machine = include_one_machine

    def bound_block(
        self, block: NodeBlock, siblings: bool = False
    ) -> tuple[np.ndarray, float, float]:
        """Bound a block's rows, writing the int32 ``lower_bound`` column in place.

        ``siblings=True`` promises the block is one parent's complete child
        set, enabling the fused single-GEMM sibling path of kernel v2.
        """
        bounds = bound_block(
            self.data,
            block,
            self.include_one_machine,
            kernel=self.kernel,
            siblings=siblings,
        )
        return bounds, 0.0, 0.0


class SearchDriver:
    """The canonical select→branch→bound→eliminate iteration.

    Parameters
    ----------
    instance:
        The flow-shop instance being solved.
    data:
        Precomputed lower-bound structures; required when no ``offload`` is
        given (the driver then builds a :class:`LocalBounding` backend).
    selection:
        Selection strategy name (drives tie batching; the frontier passed
        to :meth:`run` must have been built with the same strategy).
    offload:
        Bounding backend (see module docstring); ``None`` means local.
    batch_size:
        ``None`` selects the single-step shape; an integer selects the
        batch (off-load) shape with pools of up to that many nodes.
    limits / hooks:
        Stop predicates and per-step hooks.
    trace:
        Record a :class:`TraceEvent` per examined node (single-step only).
    tie_batching:
        Single-step shape: pop best-first ``(lb, depth)`` tie runs as
        one batch and bound all of their children in a single launch
        (provably the same pop sequence; disabled automatically in trace
        mode, for non-best-first strategies, and while a frontier memory cap
        holds the selection in its depth-first-restricted regime).
    double_buffer:
        Batch mode: credit the overlap of host-side selection+branching of
        batch N+1 with the (simulated) device bounding of batch N — the
        ROADMAP's ``NodeBlock`` pipelining follow-on.  The credit is
        reported via :attr:`DriverResult.overlap_saved_sim_s` and the
        ``on_overlap`` hook; explored tree and counters are unaffected.
    overlap:
        ``"sync"`` (default) bounds on the driver thread, one launch per
        iteration (:class:`~repro.bb.offload.InlineOffload`); ``"async"``
        runs every offload launch on a dedicated worker thread behind a
        two-slot pipeline (:class:`~repro.bb.offload.AsyncOffload`), so
        the driver selects and branches the next micro-batch while the
        previous one is being bounded.  Launches are joined in submission
        order, which keeps the explored tree bit-identical to ``"sync"``;
        the wall seconds actually hidden are reported as
        :attr:`DriverResult.overlap_saved_wall_s`.  Batch shape only; the
        single-step shapes accept the knob as a validated no-op (the next
        pop depends on the current bound, so there is nothing to overlap).
    checkpoint:
        Optional :class:`~repro.bb.snapshot.CheckpointPolicy`.  Together
        with ``hooks.on_checkpoint`` it makes the driver hand out its live
        search state every N steps / T seconds — fired at the top of the
        loop, where a snapshot resumes bit-identically.
    """

    def __init__(
        self,
        instance: FlowShopInstance,
        data: Optional[LowerBoundData] = None,
        *,
        selection: str = "best-first",
        kernel: str = "v2",
        include_one_machine: bool = False,
        offload: Optional[OffloadBackend] = None,
        batch_size: Optional[int] = None,
        limits: Optional[SearchLimits] = None,
        hooks: Optional[SearchHooks] = None,
        trace: bool = False,
        tie_batching: bool = True,
        double_buffer: bool = False,
        overlap: str = "sync",
        checkpoint: Optional[CheckpointPolicy] = None,
    ):
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 when given")
        if overlap not in ("sync", "async"):
            raise ValueError(f"overlap must be 'sync' or 'async', got {overlap!r}")
        if offload is None:
            if data is None:
                raise ValueError("either an offload backend or bound data is required")
            offload = LocalBounding(data, kernel=kernel, include_one_machine=include_one_machine)
        self.instance = instance
        self.selection = selection
        self.offload: OffloadBackend = offload
        self.batch_size = batch_size
        self.limits = limits if limits is not None else SearchLimits()
        self.hooks = hooks if hooks is not None else SearchHooks()
        self.trace_enabled = trace
        self.tie_batching = tie_batching
        self.double_buffer = double_buffer
        self.overlap = overlap
        self.checkpoint = checkpoint

    # ------------------------------------------------------------------ #
    def run(
        self,
        frontier: BlockFrontier,
        *,
        upper_bound: float,
        stats: SearchStats,
        best_order: tuple[int, ...] = (),
        trail: Optional[Trail] = None,
        next_order: int = 1,
        start: Optional[float] = None,
    ) -> DriverResult:
        """Run the iteration until the frontier drains or a budget is hit.

        ``frontier`` is a seeded :class:`~repro.bb.frontier.BlockFrontier`
        and ``trail`` its search's :class:`~repro.bb.frontier.Trail`; the
        caller bounds and pushes the root/seed and pre-credits its
        statistics.  ``start`` anchors the ``max_time_s`` budget (defaults
        to now); ``next_order`` is the creation index of the next node.
        """
        if start is None:
            start = time.perf_counter()
        if trail is None:
            raise ValueError("the driver requires the search's Trail")
        if not isinstance(frontier, BlockFrontier):
            raise TypeError("the driver requires a BlockFrontier")
        run = self._run_single if self.batch_size is None else self._run_batch
        return run(frontier, trail, upper_bound, best_order, stats, next_order, start)

    # ------------------------------------------------------------------ #
    def _notify(
        self, makespan: int, supplier: Callable[[], tuple[int, ...]]
    ) -> None:
        hook = self.hooks.on_improve_incumbent
        if hook is not None:
            hook(makespan, supplier)

    # ------------------------------------------------------------------ #
    #  Single-step shape (serial engine, worksteal workers)
    # ------------------------------------------------------------------ #
    def _run_single(
        self,
        frontier: BlockFrontier,
        trail: Trail,
        upper_bound: float,
        best_order: tuple[int, ...],
        stats: SearchStats,
        next_order: int,
        start: float,
    ) -> DriverResult:
        instance = self.instance
        offload = self.offload
        hooks = self.hooks
        limits = self.limits
        max_nodes, max_time_s, deadline = limits.max_nodes, limits.max_time_s, limits.deadline
        poll, poll_interval = hooks.poll_bound, hooks.poll_interval
        on_select, on_eliminate = hooks.on_select, hooks.on_eliminate
        n_jobs = instance.n_jobs
        pt = instance.processing_times
        trace_on = self.trace_enabled
        trace: list[TraceEvent] = []
        perf_counter = time.perf_counter

        best_value: Optional[int] = None
        best_trail: Optional[int] = None

        # Tie batching (best-first, untraced runs): every node sharing the
        # minimal (lb, depth) pair is popped in one batch and their children
        # branched + bounded in a single launch — provably the same pop
        # sequence as one-at-a-time selection (see pop_min_tie_batch).
        use_batches = (
            self.tie_batching
            and not trace_on
            and self.selection.lower() in ("best-first", "best")
        )
        on_checkpoint = hooks.on_checkpoint
        ckpt = self.checkpoint if on_checkpoint is not None else None
        last_checkpoint = start
        steps = 0
        completed = True
        pops = 0
        while frontier:
            if ckpt is not None and on_checkpoint is not None:
                steps += 1
                due = ckpt.every_steps is not None and steps % ckpt.every_steps == 0
                if not due and ckpt.every_seconds is not None and steps % 64 == 0:
                    due = perf_counter() - last_checkpoint >= ckpt.every_seconds
                if due:
                    on_checkpoint(
                        CheckpointState(
                            frontier=frontier,
                            trail=trail,
                            upper_bound=upper_bound,
                            best_order_supplier=(
                                lambda bt=best_trail, bo=best_order: (
                                    trail.prefix(bt) if bt is not None else bo
                                )
                            ),
                            next_order=next_order,
                            stats=stats,
                            steps=steps,
                        )
                    )
                    last_checkpoint = perf_counter()
            if max_nodes is not None and stats.nodes_explored >= max_nodes:
                completed = False
                break
            if max_time_s is not None and perf_counter() - start > max_time_s:
                completed = False
                break
            if deadline is not None and time.time() > deadline:
                completed = False
                break
            if poll is not None:
                pops += 1
                if pops % poll_interval == 0:
                    shared = poll()
                    if shared < upper_bound:
                        upper_bound = shared
                        stats.nodes_pruned += frontier.prune_to(upper_bound)
                        if not frontier:
                            break

            # A frontier memory cap holds best-first selection in its
            # depth-first-restricted regime while the cap is exceeded; tie
            # batching pauses (not permanently) until it re-engages.
            if use_batches and not frontier.restricted:
                remaining = max_nodes - stats.nodes_explored if max_nodes is not None else None
                t0 = perf_counter()
                batch = frontier.pop_min_tie_batch(remaining)
                stats.time_pool_s += perf_counter() - t0
                if batch is None:
                    use_batches = False  # key packing unavailable: single pops
                else:
                    k = len(batch)
                    if poll is not None and k > 1:
                        pops += k - 1
                    if on_select is not None:
                        on_select(k)
                    lb0 = int(batch.lower_bound[0])
                    depth0 = int(batch.depth[0])
                    if lb0 >= upper_bound:
                        stats.nodes_pruned += k
                        continue
                    if depth0 == n_jobs:
                        # complete schedules sharing one makespan: the first
                        # becomes the incumbent, the rest are pruned at its
                        # (now equal) bound — exactly the one-at-a-time fates
                        stats.leaves_evaluated += 1
                        upper_bound = float(lb0)
                        best_trail = int(batch.trail_id[0])
                        best_value = lb0
                        stats.incumbent_updates += 1
                        self._notify(lb0, lambda tid=best_trail: trail.prefix(tid))
                        stats.nodes_branched += 1
                        stats.nodes_pruned += k - 1
                        continue
                    if depth0 + 1 == n_jobs:
                        # leaf children tighten the incumbent between member
                        # pops, so members must be examined one at a time
                        for i in range(k):
                            if lb0 >= upper_bound:
                                stats.nodes_pruned += 1
                                continue
                            t0 = perf_counter()
                            children = branch_row(
                                batch.scheduled_mask[i],
                                batch.release[i],
                                depth0,
                                int(batch.trail_id[i]),
                                trail,
                                pt,
                                next_order,
                            )
                            stats.time_branching_s += perf_counter() - t0
                            next_order += len(children)
                            stats.nodes_branched += 1
                            t0 = perf_counter()
                            _, sim_s, _ = offload.bound_block(children, siblings=True)
                            stats.time_bounding_s += perf_counter() - t0
                            if sim_s:
                                stats.simulated_device_time_s += sim_s
                            n_children = len(children)
                            stats.nodes_bounded += n_children
                            stats.leaves_evaluated += n_children
                            makespans = children.makespans
                            improving, _ = leaf_improvements(upper_bound, makespans)
                            for j in improving:
                                makespan = int(makespans[j])
                                upper_bound = float(makespan)
                                best_trail = int(children.trail_id[j])
                                best_value = makespan
                                stats.incumbent_updates += 1
                                self._notify(
                                    makespan, lambda tid=best_trail: trail.prefix(tid)
                                )
                        continue

                    # interior batch: one branch + one bounding launch for
                    # the children of every tied node
                    t0 = perf_counter()
                    if k == 1:
                        children = branch_row(
                            batch.scheduled_mask[0],
                            batch.release[0],
                            depth0,
                            int(batch.trail_id[0]),
                            trail,
                            pt,
                            next_order,
                        )
                    else:
                        children = branch_block(batch, pt, next_order)
                    stats.time_branching_s += perf_counter() - t0
                    next_order += len(children)
                    stats.nodes_branched += k
                    t0 = perf_counter()
                    _, sim_s, _ = offload.bound_block(children, siblings=k == 1)
                    stats.time_bounding_s += perf_counter() - t0
                    if sim_s:
                        stats.simulated_device_time_s += sim_s
                    n_children = len(children)
                    stats.nodes_bounded += n_children
                    keep = children.lower_bound < upper_bound
                    pruned = n_children - int(np.count_nonzero(keep))
                    stats.nodes_pruned += pruned
                    if on_eliminate is not None:
                        on_eliminate(pruned)
                    if pruned and k > 1:
                        # reconstruct the pool sizes a one-node-at-a-time
                        # engine records between member pops (each member
                        # contributes exactly n - depth0 children)
                        per_member = n_jobs - depth0
                        kept_per = np.add.reduceat(keep, np.arange(0, k * per_member, per_member))
                        sizes = (
                            len(frontier)
                            + (k - 1 - np.arange(k))
                            + np.cumsum(kept_per)
                        )
                        populated = kept_per > 0
                        if populated.any():
                            frontier.record_size_hint(int(sizes[populated].max()))
                    t0 = perf_counter()
                    frontier.push_block(children, keep if pruned else None)
                    stats.time_pool_s += perf_counter() - t0
                    continue

            # Zero-copy pop: read the best row in place, branch from the
            # views, then swap-compact it out.
            t0 = perf_counter()
            row = frontier.peek_best()
            node_lb, node_depth, _, node_tid, mask_view, release_view = frontier.row_view(row)
            stats.time_pool_s += perf_counter() - t0
            if on_select is not None:
                on_select(1)

            if node_lb >= upper_bound:
                frontier.discard(row)
                stats.nodes_pruned += 1
                if trace_on:
                    trace.append(
                        TraceEvent(trail.prefix(node_tid), node_lb, upper_bound, "pruned")
                    )
                continue

            if node_depth == n_jobs:
                makespan = int(release_view[-1])
                frontier.discard(row)
                stats.leaves_evaluated += 1
                if makespan < upper_bound:
                    upper_bound = float(makespan)
                    best_trail = node_tid
                    best_value = makespan
                    stats.incumbent_updates += 1
                    self._notify(makespan, lambda tid=node_tid: trail.prefix(tid))
                    if trace_on:
                        trace.append(
                            TraceEvent(trail.prefix(node_tid), makespan, upper_bound, "incumbent")
                        )
                elif trace_on:
                    trace.append(
                        TraceEvent(trail.prefix(node_tid), makespan, upper_bound, "leaf")
                    )
                stats.nodes_branched += 1  # examined, produced no children
                continue

            # Branch: every sibling in one shot, straight off the row views.
            t0 = perf_counter()
            children = branch_row(
                mask_view, release_view, node_depth, node_tid, trail, pt, next_order
            )
            frontier.discard(row)
            stats.time_branching_s += perf_counter() - t0
            next_order += len(children)
            stats.nodes_branched += 1
            if trace_on:
                trace.append(TraceEvent(trail.prefix(node_tid), node_lb, upper_bound, "branched"))

            # Bound the sibling block straight off its arrays.
            t0 = perf_counter()
            _, sim_s, _ = offload.bound_block(children, siblings=True)
            stats.time_bounding_s += perf_counter() - t0
            if sim_s:
                stats.simulated_device_time_s += sim_s
            n_children = len(children)
            stats.nodes_bounded += n_children

            if node_depth + 1 == n_jobs:
                # Siblings share their depth, so either every child is a
                # complete schedule or none is.  Replicate one-at-a-time
                # in-order incumbent updates with a running min.
                stats.leaves_evaluated += n_children
                makespans = children.makespans
                improving, running = leaf_improvements(upper_bound, makespans)
                for i in improving:
                    makespan = int(makespans[i])
                    upper_bound = float(makespan)
                    best_trail = int(children.trail_id[i])
                    best_value = makespan
                    stats.incumbent_updates += 1
                    self._notify(makespan, lambda tid=best_trail: trail.prefix(tid))
                if trace_on:
                    run_after = np.minimum.accumulate(
                        np.concatenate(([running[0]], makespans.astype(np.float64)))
                    )[1:]
                    for i in range(n_children):
                        action = "incumbent" if makespans[i] < running[i] else "leaf"
                        trace.append(
                            TraceEvent(
                                children.prefix(i), int(makespans[i]), float(run_after[i]), action
                            )
                        )
                continue

            # Eliminate + insert in one masked append.
            keep = children.lower_bound < upper_bound
            pruned = n_children - int(np.count_nonzero(keep))
            stats.nodes_pruned += pruned
            if on_eliminate is not None:
                on_eliminate(pruned)
            if trace_on and pruned:
                for i in np.flatnonzero(~keep):
                    trace.append(
                        TraceEvent(
                            children.prefix(i),
                            int(children.lower_bound[i]),
                            upper_bound,
                            "pruned",
                        )
                    )
            t0 = perf_counter()
            frontier.push_block(children, keep if pruned else None)
            stats.time_pool_s += perf_counter() - t0

        if best_trail is not None:
            best_order = trail.prefix(best_trail)
        return DriverResult(
            upper_bound=upper_bound,
            best_order=best_order,
            best_value=best_value,
            completed=completed,
            iterations=0,
            simulated_s=0.0,
            measured_s=0.0,
            overlap_saved_sim_s=0.0,
            next_order=next_order,
            trace=trace,
        )

    # ------------------------------------------------------------------ #
    #  Batch (off-load) shape (GPU / cluster / hybrid)
    # ------------------------------------------------------------------ #
    #
    # One loop body serves both overlap modes; they differ only in the slot
    # a launch goes through.  overlap="sync" submits one chunk per
    # iteration to an InlineOffload, whose ticket bounds on the driver
    # thread when it is joined — the plain select→branch→bound→eliminate
    # iteration.  overlap="async" submits to the AsyncOffload worker
    # thread and — when the backend allows it — splits one batch-size
    # selection into a few deterministic micro-chunks so the driver
    # selects/branches chunk i+1 while the worker bounds chunk i.
    # Determinism is preserved because (a) chunk sizes are a pure function
    # of batch_size, (b) every pop of an iteration happens before any push
    # (chunked pops therefore concatenate to exactly the one big pop),
    # (c) launches are joined in submission order with incumbent updates
    # applied in row order, and (d) a chunk's elimination is deferred
    # until no later chunk still carries complete schedules that could
    # tighten the incumbent.  The explored tree, all counters and the
    # result are bit-identical across modes (pinned by the golden
    # fixtures and tests/test_overlap.py).

    #: micro-chunks one batch selection is split into (pure config constant)
    OVERLAP_CHUNKS = 4

    def _chunk_sizes(self, chunked: bool) -> list[int]:
        """Deterministic micro-chunk split of one batch-shape selection."""
        batch_size = self.batch_size
        assert batch_size is not None
        if not chunked:
            return [batch_size]
        parts = min(self.OVERLAP_CHUNKS, batch_size)
        base, extra = divmod(batch_size, parts)
        return [base + (1 if i < extra else 0) for i in range(parts)]

    def _run_batch(
        self,
        frontier: BlockFrontier,
        trail: Trail,
        upper_bound: float,
        best_order: tuple[int, ...],
        stats: SearchStats,
        next_order: int,
        start: float,
    ) -> DriverResult:
        instance = self.instance
        hooks = self.hooks
        limits = self.limits
        n_jobs = instance.n_jobs
        pt = instance.processing_times
        perf_counter = time.perf_counter

        overlapped = self.overlap == "async"
        # No chunking while a frontier memory cap holds selection in its
        # hysteretic restricted regime: the regime transition is itself
        # stateful per pop, so micro-chunked pops could diverge from the
        # synchronous pop sequence.  A capped frontier keeps single
        # full-batch launches (async mode still bounds them on the worker).
        chunk_sizes = self._chunk_sizes(
            overlapped
            and getattr(self.offload, "supports_chunked_overlap", False)
            and not frontier.capped
        )

        best_value: Optional[int] = None
        best_trail: Optional[int] = None
        simulated_total = 0.0
        measured_total = 0.0
        overlap_sim_saved = 0.0
        overlap_wall_saved = 0.0
        prev_sim_s: Optional[float] = None
        on_checkpoint = hooks.on_checkpoint
        ckpt = self.checkpoint if on_checkpoint is not None else None
        last_checkpoint = start
        iteration = 0
        completed = True
        slot = AsyncOffload(self.offload) if overlapped else InlineOffload(self.offload)
        try:
            while frontier:
                if ckpt is not None and on_checkpoint is not None:
                    due = (
                        ckpt.every_steps is not None
                        and iteration > 0
                        and iteration % ckpt.every_steps == 0
                    )
                    if not due and ckpt.every_seconds is not None:
                        due = perf_counter() - last_checkpoint >= ckpt.every_seconds
                    if due:
                        # batch boundary: no launch in flight, the snapshot
                        # cannot race the worker thread
                        assert slot.idle, "checkpoint with an offload launch in flight"
                        on_checkpoint(
                            CheckpointState(
                                frontier=frontier,
                                trail=trail,
                                upper_bound=upper_bound,
                                best_order_supplier=(
                                    lambda bt=best_trail, bo=best_order: (
                                        trail.prefix(bt) if bt is not None else bo
                                    )
                                ),
                                next_order=next_order,
                                stats=stats,
                                steps=iteration,
                            )
                        )
                        last_checkpoint = perf_counter()
                if limits.max_iterations is not None and iteration >= limits.max_iterations:
                    completed = False
                    break
                if limits.max_nodes is not None and stats.nodes_explored >= limits.max_nodes:
                    completed = False
                    break
                if limits.max_time_s is not None and perf_counter() - start > limits.max_time_s:
                    completed = False
                    break
                if limits.deadline is not None and time.time() > limits.deadline:
                    completed = False
                    break
                iteration += 1
                iter_t0 = perf_counter()

                # --- selection + branching + submission (all pops precede
                # any push, so chunked pops equal the one synchronous pop)
                select_s = 0.0
                branch_s = 0.0
                total_selected = 0
                launches = []  # (children, ticket, has_leaves) in pop order
                for size in chunk_sizes:
                    t0 = perf_counter()
                    parents, lazily_pruned = frontier.pop_batch(size, upper_bound)
                    select_s += perf_counter() - t0
                    stats.nodes_pruned += lazily_pruned
                    if not len(parents):
                        break  # frontier drained mid-plan
                    total_selected += len(parents)
                    t0 = perf_counter()
                    children = branch_block(parents, pt, next_order)
                    branch_s += perf_counter() - t0
                    next_order += len(children)
                    stats.nodes_branched += len(parents)
                    if not len(children):
                        continue
                    has_leaves = bool(np.any(children.depth == n_jobs))
                    launches.append(
                        (children, slot.submit_block(children, siblings=False), has_leaves)
                    )
                stats.time_pool_s += select_s
                stats.time_branching_s += branch_s
                if total_selected == 0:
                    break
                if hooks.on_select is not None:
                    hooks.on_select(total_selected)
                if not launches:
                    continue
                stats.pools_evaluated += 1

                # Double buffering: the host prepared this batch while the
                # device was still bounding the previous one — credit the
                # overlap (both terms are known before any join).
                if self.double_buffer and prev_sim_s is not None:
                    credit = min(prev_sim_s, select_s + branch_s)
                    overlap_sim_saved += credit
                    if hooks.on_overlap is not None:
                        hooks.on_overlap(credit)

                # --- join in submission order ---------------------------
                last_leaf_idx = -1
                for chunk_idx, (_, _, has_leaves) in enumerate(launches):
                    if has_leaves:
                        last_leaf_idx = chunk_idx
                sim_iter = 0.0
                wall_iter = 0.0
                worker_s = 0.0
                apply_s = 0.0
                total_offloaded = 0
                total_pruned = 0
                total_kept = 0
                deferred: list[tuple[NodeBlock, np.ndarray, int]] = []
                for chunk_idx, (children, ticket, has_leaves) in enumerate(launches):
                    t0 = perf_counter()
                    _, sim_s, wall_s = ticket.result()
                    stats.time_bounding_s += perf_counter() - t0
                    worker_s += ticket.worker_wall_s
                    sim_iter += sim_s
                    wall_iter += wall_s
                    # the launch's charge lands before any incumbent
                    # broadcast it triggers (float summation order)
                    simulated_total += sim_s
                    measured_total += wall_s
                    stats.nodes_bounded += len(children)
                    total_offloaded += len(children)

                    # incumbent updates from complete schedules, row order
                    leaf_mask = children.depth == n_jobs
                    n_leaves = int(np.count_nonzero(leaf_mask))
                    if n_leaves:
                        leaf_rows = np.flatnonzero(leaf_mask)
                        stats.leaves_evaluated += n_leaves
                        makespans = children.release[leaf_rows, -1]
                        improving, _ = leaf_improvements(upper_bound, makespans)
                        for i in improving:
                            makespan = int(makespans[i])
                            upper_bound = float(makespan)
                            best_trail = int(children.trail_id[leaf_rows[i]])
                            best_value = makespan
                            stats.incumbent_updates += 1
                            self._notify(
                                makespan, lambda tid=best_trail: trail.prefix(tid)
                            )
                            if hooks.incumbent_charge_s is not None:
                                simulated_total += hooks.incumbent_charge_s()

                    if chunk_idx < last_leaf_idx:
                        # a later chunk still carries complete schedules
                        # that may tighten the bound: defer elimination
                        deferred.append((children, leaf_mask, n_leaves))
                        continue
                    t0 = perf_counter()
                    deferred.append((children, leaf_mask, n_leaves))
                    for d_children, d_mask, d_leaves in deferred:
                        keep = d_children.lower_bound < upper_bound
                        if d_leaves:
                            keep &= ~d_mask
                        kept = int(np.count_nonzero(keep))
                        pruned = len(d_children) - d_leaves - kept
                        stats.nodes_pruned += pruned
                        total_pruned += pruned
                        total_kept += kept
                        frontier.push_block(d_children, keep)
                    deferred.clear()
                    apply_s += perf_counter() - t0
                stats.time_pool_s += apply_s
                if hooks.on_eliminate is not None:
                    hooks.on_eliminate(total_pruned)

                prev_sim_s = sim_iter

                # measured overlap: host work + worker bounding minus the
                # wall time the iteration actually took (an inline ticket
                # has no worker time, so sync mode never credits any)
                serial_s = select_s + branch_s + worker_s + apply_s
                elapsed = perf_counter() - iter_t0
                if serial_s > elapsed:
                    overlap_wall_saved += serial_s - elapsed

                if hooks.on_iteration is not None:
                    hooks.on_iteration(
                        OffloadStep(
                            iteration=iteration,
                            nodes_offloaded=total_offloaded,
                            nodes_pruned=total_pruned,
                            nodes_kept=total_kept,
                            incumbent=upper_bound,
                            simulated_s=sim_iter,
                            measured_s=wall_iter,
                        )
                    )
        finally:
            slot.close()

        if best_trail is not None:
            best_order = trail.prefix(best_trail)
        return DriverResult(
            upper_bound=upper_bound,
            best_order=best_order,
            best_value=best_value,
            completed=completed,
            iterations=iteration,
            simulated_s=simulated_total,
            measured_s=measured_total,
            overlap_saved_sim_s=overlap_sim_saved,
            overlap_saved_wall_s=overlap_wall_saved,
            next_order=next_order,
        )
