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

* an **offload** — any object with ``bound_block(block)`` returning
  ``(bounds, simulated_s, measured_s)``: the bounding operator
  plus its simulated-time charge.  Bounds are written into the block's
  ``lower_bound`` column; the tuple's ``bounds`` element is advisory (the
  driver never reads it).  :class:`LocalBounding` is the host-side default
  (zero charge); the GPU, cluster and hybrid engines pass adapters around
  their executors.
* **per-step hooks** (:class:`SearchHooks`) through which engines inject
  their deployment specifics without owning a loop of their own.
* **budgets** (:class:`SearchLimits`): node, wall-clock, iteration and
  absolute-deadline stop predicates.

Two loop shapes cover every engine, one body each.  Every step of the
**single-step** shape (the serial engine, the work-stealing workers and
the service's sessions) pops one block: a best-first ``(lb, depth)`` tie
batch where tie batching applies, otherwise one node in the strategy's
order.  The body prunes a stale block, examines leaf children member by
member at depth ``n - 1``, and otherwise branches the block once, bounds
the children in one launch and pushes the survivors.  A stale tie batch
means every pending node is stale, so that step drops the frontier at
once (under ``max_nodes`` only the smallest keys the budget still
reaches), and counters and the pending set match one-node-at-a-time pops.
The **batch** shape (``batch_size`` set) selects up to ``batch_size``
nodes, branches them all into the frontier's free rows and off-loads one
large pool per iteration, whose survivors stay where they were written —
the paper's GPU architecture and its cluster/hybrid extensions.  It
bounds each pool on the driver thread, one launch per iteration, and
selects the next pool only after that launch returns.  Both shapes stop
on one budget predicate (:meth:`SearchLimits.reached`), and every
incumbent improvement goes through one leaf examination.  No frontier
row is ever a complete schedule: a complete child or seed is examined as
a leaf, never pushed.

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
                                       per-launch accounting;
                                       ``max_nodes``/``max_time_s``/
                                       ``max_iterations``
pipeline / hybrid executor adapter     batch mode, one run per prefix
                                       seed; ``max_nodes``/``max_iterations``
                                       count over the whole solve and
                                       ``max_time_s`` is one ``deadline``;
                                       cooperative incumbent seeding
                                       happens *between* driver runs
cluster           distributed adapter  the GPU configuration plus
                                       ``incumbent_charge_s``, which bills
                                       one interconnect broadcast per
                                       incumbent improvement
multicore         LocalBounding        single-step; ``poll_bound``
(work stealing)                        re-reads the shared incumbent every
                                       ``POLL_INTERVAL`` pops and re-prunes
                                       the pool;
                                       ``on_improve_incumbent`` publishes
                                       CAS updates; ``max_nodes`` per chunk
                                       and a shared ``deadline``
service session   BatchingOffload      single-step; ``on_select`` checks
                                       cancellation; ``on_checkpoint``
                                       writes periodic snapshots;
                                       ``max_nodes``/``max_time_s``
================= ==================== ====================================

Engine assembly
---------------
No engine calls :meth:`SearchDriver.run` itself.  :func:`run_search` is the
one assembly around the loop: it starts from the root, a prefix seed or a
:class:`~repro.bb.snapshot.Snapshot`, seeds the frontier (one seed rule for
every engine), runs the driver, finalizes the statistics and hands the
state of a budget-cut run to the caller's snapshot writer.  The engines
keep only their configuration, their offload and their result type.

The driver reproduces the historical per-engine loops bit-for-bit: the
explored tree, the result, every node counter and the trace are identical
to the pre-driver implementations (see ``tests/test_driver.py``, which
pins golden results captured from them).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence, Union

import numpy as np

from repro.bb.frontier import (
    BlockFrontier,
    NodeBlock,
    Trail,
    bound_block,
    branch_block,
    branch_row,
    leaf_improvements,
    seed_block,
)
from repro.bb.snapshot import CheckpointPolicy, CheckpointState, Snapshot
from repro.bb.stats import SearchStats
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.schedule import job_cumulative_times

__all__ = [
    "TraceEvent",
    "SearchLimits",
    "SearchHooks",
    "POLL_INTERVAL",
    "OffloadStep",
    "OffloadBackend",
    "LocalBounding",
    "DriverResult",
    "SearchDriver",
    "run_search",
]


class OffloadBackend(Protocol):
    """The bounding-backend contract every offload implementation satisfies.

    Four implementations exist (:class:`LocalBounding`, the service's
    ``BatchingOffload``, the cluster's ``_DistributedOffload``, the GPU
    engine's ``_ExecutorOffload``); the driver calls them interchangeably.
    ``bound_block`` writes bounds into the block in place and returns the
    ``(bounds, simulated_s, measured_s)`` triple.  The single-step loop
    never hands it a sibling set of complete schedules, whose makespans
    branching already wrote as their bounds; a batch-shape pool goes whole,
    and a complete row's bound is its makespan on every backend.
    ``tools/repro_lint``'s ``offload-contract`` rule re-checks the shape
    statically on every class that defines the method.
    """

    def bound_block(self, block: NodeBlock) -> tuple[np.ndarray, float, float]:
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
    ``time.time()`` epoch shared across worker processes.  A budget that
    could not admit one step raises ``ValueError``: this is the one check
    every engine and the service apply to their budgets at construction.
    """

    max_nodes: Optional[int] = None
    max_time_s: Optional[float] = None
    max_iterations: Optional[int] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_time_s", "max_iterations"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # also refuses nan
                raise ValueError(f"{name} must be positive when given, got {value}")

    def reached(self, stats: SearchStats, start: float, iterations: Optional[int] = None) -> bool:
        """True once a budget stops the run (both loop shapes ask before each step).

        ``iterations`` counts batch-mode steps; the single-step shape passes none.
        """
        return (
            (self.max_nodes is not None and stats.nodes_explored >= self.max_nodes)
            or (self.max_time_s is not None and time.perf_counter() - start > self.max_time_s)
            or (self.deadline is not None and time.time() > self.deadline)
            or (
                iterations is not None
                and self.max_iterations is not None
                and iterations >= self.max_iterations
            )
        )


#: Selected nodes between two ``SearchHooks.poll_bound`` reads: the
#: work-stealing workers' polling interval.  Read at the start of every run,
#: so a test may patch it.
POLL_INTERVAL = 64


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
    poll_bound:
        Work-stealing bound polling: at the first step after every
        :data:`POLL_INTERVAL` selected nodes (tie batches and stale drains
        count every node they take) the driver reads ``poll_bound()`` and,
        when a peer tightened the incumbent, adopts it and re-prunes the
        pending pool (``prune_to``).
    on_iteration:
        Batch mode only: called with an :class:`OffloadStep` after each
        off-loaded pool (the GPU engines build their launch records here).
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
    poll_bound: Optional[Callable[[], float]] = None
    on_iteration: Optional[Callable[[OffloadStep], None]] = None
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

    def __init__(self, data: LowerBoundData, kernel: str = "v2"):
        self.data = data
        self.kernel = kernel

    def bound_block(self, block: NodeBlock) -> tuple[np.ndarray, float, float]:
        """Bound a block's rows, writing the int32 ``lower_bound`` column in place."""
        return bound_block(self.data, block, kernel=self.kernel), 0.0, 0.0


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
        one block and bound all of their children in a single launch, one
        sibling group per member; a stale batch drops the stale frontier
        in the same step (provably the same pop sequence).  Without it,
        and in trace mode, for other strategies, on unpacked keys (bounds
        from ``2**22``) and while a frontier memory cap holds selection in
        its depth-first-restricted regime, the same body pops one node per
        step.
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
        offload: Optional[OffloadBackend] = None,
        batch_size: Optional[int] = None,
        limits: Optional[SearchLimits] = None,
        hooks: Optional[SearchHooks] = None,
        trace: bool = False,
        tie_batching: bool = True,
        checkpoint: Optional[CheckpointPolicy] = None,
    ):
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 when given")
        if offload is None:
            if data is None:
                raise ValueError("either an offload backend or bound data is required")
            offload = LocalBounding(data, kernel=kernel)
        self.instance = instance
        self.selection = selection
        self.offload: OffloadBackend = offload
        self.batch_size = batch_size
        self.limits = limits if limits is not None else SearchLimits()
        self.hooks = hooks if hooks is not None else SearchHooks()
        self.trace_enabled = trace
        self.tie_batching = tie_batching
        self.checkpoint = checkpoint
        #: the int32 ``(after, before)`` per-job cumulative times that the
        #: seed and every branching call of a run read, built once
        self.tables = job_cumulative_times(instance.processing_times)

    # ------------------------------------------------------------------ #
    def run(
        self,
        frontier: BlockFrontier,
        *,
        upper_bound: float,
        stats: SearchStats,
        best_order: tuple[int, ...] = (),
        trail: Optional[Trail] = None,
        start: Optional[float] = None,
    ) -> DriverResult:
        """Run the iteration until the frontier drains or a budget is hit.

        ``frontier`` is a seeded :class:`~repro.bb.frontier.BlockFrontier`
        and ``trail`` its search's :class:`~repro.bb.frontier.Trail`, which
        numbers every node the run creates; the caller bounds and pushes
        the root/seed and pre-credits its statistics (engines call
        :func:`run_search`, which does that).  ``start`` anchors the
        ``max_time_s`` budget (defaults to now).
        """
        if start is None:
            start = time.perf_counter()
        if trail is None:
            raise ValueError("the driver requires the search's Trail")
        if not isinstance(frontier, BlockFrontier):
            raise TypeError("the driver requires a BlockFrontier")
        run = self._run_single if self.batch_size is None else self._run_batch
        return run(frontier, trail, upper_bound, best_order, stats, start)

    # ------------------------------------------------------------------ #
    def _examine_leaves(
        self,
        leaves: NodeBlock,
        rows: Optional[np.ndarray],
        upper_bound: float,
        stats: SearchStats,
        trace: Optional[list[TraceEvent]] = None,
    ) -> tuple[float, Optional[int], int]:
        """Examine complete schedules in row order, as one-at-a-time pops would.

        ``rows`` picks the complete rows of ``leaves`` (``None``: all).  A
        leaf improves iff its makespan beats the incumbent in force when it
        is examined; each improvement is counted and reaches
        ``on_improve_incumbent``, and ``trace`` receives one ``"incumbent"``
        or ``"leaf"`` event per leaf.  Returns ``(upper_bound, trail id of
        the last improving leaf or None, improvements)``.
        """
        makespans = leaves.makespans if rows is None else leaves.release[rows, -1]
        trail_ids = leaves.trail_id if rows is None else leaves.trail_id[rows]
        trail = leaves.trail
        stats.leaves_evaluated += len(makespans)
        improving, running = leaf_improvements(upper_bound, makespans)
        hook = self.hooks.on_improve_incumbent
        best_trail: Optional[int] = None
        for i in improving:
            makespan = int(makespans[i])
            upper_bound = float(makespan)
            best_trail = tid = int(trail_ids[i])
            stats.incumbent_updates += 1
            if hook is not None:
                hook(makespan, lambda tid=tid: trail.prefix(tid))
        if trace is not None:
            after = np.minimum(running, makespans)
            for i, makespan in enumerate(makespans.tolist()):
                action = "incumbent" if makespan < running[i] else "leaf"
                prefix = trail.prefix(int(trail_ids[i]))
                trace.append(TraceEvent(prefix, makespan, float(after[i]), action))
        return upper_bound, best_trail, len(improving)

    # ------------------------------------------------------------------ #
    #  Single-step shape (serial engine, worksteal workers, sessions)
    # ------------------------------------------------------------------ #
    def _run_single(
        self,
        frontier: BlockFrontier,
        trail: Trail,
        upper_bound: float,
        best_order: tuple[int, ...],
        stats: SearchStats,
        start: float,
    ) -> DriverResult:
        offload = self.offload
        hooks = self.hooks
        limits = self.limits
        max_nodes = limits.max_nodes
        poll, poll_interval = hooks.poll_bound, POLL_INTERVAL
        on_select = hooks.on_select
        n_jobs = self.instance.n_jobs
        pt = self.instance.processing_times
        tables = self.tables
        trace: Optional[list[TraceEvent]] = [] if self.trace_enabled else None
        perf_counter = time.perf_counter

        best_value: Optional[int] = None
        best_trail: Optional[int] = None

        # tie batches: provably the one-at-a-time pop sequence (see pop_min_tie_batch)
        use_batches = self.tie_batching and trace is None and self.selection == "best-first"
        on_checkpoint = hooks.on_checkpoint
        ckpt = self.checkpoint if on_checkpoint is not None else None
        last_checkpoint = start
        steps = 0
        completed = True
        # nodes selected so far; the shared bound is polled at the first
        # step after every poll_interval of them, however they were popped
        popped = 0
        next_poll = poll_interval
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
                            stats=stats,
                            steps=steps,
                        )
                    )
                    last_checkpoint = perf_counter()
            if limits.reached(stats, start):
                completed = False
                break
            if poll is not None and popped >= next_poll:
                next_poll = popped + poll_interval
                shared = poll()
                if shared < upper_bound:
                    upper_bound = shared
                    stats.nodes_pruned += frontier.prune_to(upper_bound)
                    if not frontier:
                        break

            # Select one block: a best-first tie batch while tie batching
            # applies, else one node in the strategy's order.  Tie batching
            # pauses while a frontier cap holds selection depth-first.
            t0 = perf_counter()
            remaining = max_nodes - stats.nodes_explored if max_nodes is not None else None
            block: Optional[NodeBlock] = None
            if use_batches and not frontier.restricted:
                block = frontier.pop_min_tie_batch(remaining)
                use_batches = block is not None  # None: unpacked keys, single pops
            tied = block is not None
            if block is None:
                block = frontier.pop_batch(1)[0]
            k = len(block)
            lb = int(block.lower_bound[0])
            if tied and lb >= upper_bound:
                # the minimum is stale, so every pending node is: drop them
                # in one step, under a node budget only the smallest keys it
                # still reaches (the nodes single pops would take)
                rest = len(frontier) if remaining is None else remaining - k
                if rest >= len(frontier):
                    k += frontier.prune_to(upper_bound)
                elif rest > 0:
                    k += len(frontier.pop_batch(rest)[0])
            stats.time_pool_s += perf_counter() - t0
            popped += k
            if on_select is not None:
                on_select(k)
            tid = int(block.trail_id[0])
            if lb >= upper_bound:
                stats.nodes_pruned += k
                if trace is not None:
                    trace.append(TraceEvent(trail.prefix(tid), lb, upper_bound, "pruned"))
                continue

            depth = int(block.depth[0])
            if depth + 1 == n_jobs:
                # leaf children tighten the incumbent between member pops, so
                # members are examined one at a time; branching wrote the
                # children's makespans as their bounds, so they take no launch
                members = zip(block.mask_bits, block.release, block.trail_id.tolist())
                for bits, front, tid in members:
                    if lb >= upper_bound:  # a later member of a tie batch
                        stats.nodes_pruned += 1
                        continue
                    t0 = perf_counter()
                    children = branch_row(bits, front, depth, tid, trail, pt, tables)
                    stats.time_branching_s += perf_counter() - t0
                    stats.nodes_branched += 1
                    stats.nodes_bounded += len(children)
                    if trace is not None:
                        trace.append(TraceEvent(trail.prefix(tid), lb, upper_bound, "branched"))
                    upper_bound, improved, _ = self._examine_leaves(
                        children, None, upper_bound, stats, trace
                    )
                    if improved is not None:
                        best_trail, best_value = improved, int(upper_bound)
                continue

            # interior block: one branch and one bounding launch, laid out as
            # one complete sibling set per member (parent order)
            t0 = perf_counter()
            if k == 1:
                children = branch_row(
                    block.mask_bits[0], block.release[0], depth, tid, trail, pt, tables
                )
            else:
                children = branch_block(block, pt, tables=tables)
            stats.time_branching_s += perf_counter() - t0
            stats.nodes_branched += k
            if trace is not None:
                trace.append(TraceEvent(trail.prefix(tid), lb, upper_bound, "branched"))
            t0 = perf_counter()
            _, sim_s, _ = offload.bound_block(children)
            stats.time_bounding_s += perf_counter() - t0
            if sim_s:
                stats.simulated_device_time_s += sim_s
            n_children = len(children)
            stats.nodes_bounded += n_children

            # eliminate + insert in one masked append
            keep = children.lower_bound < upper_bound
            pruned = n_children - int(np.count_nonzero(keep))
            stats.nodes_pruned += pruned
            if pruned and trace is not None:
                for i in np.flatnonzero(~keep):
                    bound = int(children.lower_bound[i])
                    trace.append(TraceEvent(children.prefix(i), bound, upper_bound, "pruned"))
            if pruned and k > 1:
                # reconstruct the pool sizes a one-node-at-a-time
                # engine records between member pops (each member
                # contributes exactly n - depth children)
                per_member = n_jobs - depth
                kept_per = np.add.reduceat(keep, np.arange(0, k * per_member, per_member))
                sizes = len(frontier) + (k - 1 - np.arange(k)) + np.cumsum(kept_per)
                populated = kept_per > 0
                if populated.any():
                    frontier.record_size_hint(int(sizes[populated].max()))
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
            trace=trace or [],
        )

    # ------------------------------------------------------------------ #
    #  Batch (off-load) shape (GPU / cluster / hybrid)
    # ------------------------------------------------------------------ #
    def _run_batch(
        self,
        frontier: BlockFrontier,
        trail: Trail,
        upper_bound: float,
        best_order: tuple[int, ...],
        stats: SearchStats,
        start: float,
    ) -> DriverResult:
        offload = self.offload
        hooks = self.hooks
        limits = self.limits
        batch_size = self.batch_size
        assert batch_size is not None
        n_jobs = self.instance.n_jobs
        pt = self.instance.processing_times
        perf_counter = time.perf_counter

        best_value: Optional[int] = None
        best_trail: Optional[int] = None
        simulated_total = 0.0
        measured_total = 0.0
        on_checkpoint = hooks.on_checkpoint
        ckpt = self.checkpoint if on_checkpoint is not None else None
        last_checkpoint = start
        iteration = 0
        completed = True
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
                            stats=stats,
                            steps=iteration,
                        )
                    )
                    last_checkpoint = perf_counter()
            if limits.reached(stats, start, iteration):
                completed = False
                break
            iteration += 1

            # --- select + branch one pool
            t0 = perf_counter()
            parents, lazily_pruned = frontier.pop_batch(batch_size, upper_bound)
            stats.time_pool_s += perf_counter() - t0
            stats.nodes_pruned += lazily_pruned
            if not len(parents):
                break
            # the children are written straight into the frontier's free
            # rows and bounded there; push_block keeps the survivors in place
            t0 = perf_counter()
            count = n_jobs * len(parents) - int(parents.depth.sum())
            children = branch_block(parents, pt, frontier.reserve(count), tables=self.tables)
            stats.time_branching_s += perf_counter() - t0
            stats.nodes_branched += len(parents)
            if hooks.on_select is not None:
                hooks.on_select(len(parents))
            n_children = len(children)
            if not n_children:
                continue
            stats.pools_evaluated += 1

            # --- bound: one launch per iteration
            t0 = perf_counter()
            _, sim_s, wall_s = offload.bound_block(children)
            stats.time_bounding_s += perf_counter() - t0
            # the launch's charge lands before any incumbent broadcast it
            # triggers (float summation order)
            simulated_total += sim_s
            measured_total += wall_s
            stats.nodes_bounded += n_children

            # incumbent updates from complete schedules, row order
            leaf_mask = children.depth == n_jobs
            n_leaves = int(np.count_nonzero(leaf_mask))
            if n_leaves:
                upper_bound, improved, n_improved = self._examine_leaves(
                    children, np.flatnonzero(leaf_mask), upper_bound, stats
                )
                if improved is not None:
                    best_trail, best_value = improved, int(upper_bound)
                if hooks.incumbent_charge_s is not None:
                    for _ in range(n_improved):
                        simulated_total += hooks.incumbent_charge_s()

            # --- eliminate + insert the survivors
            t0 = perf_counter()
            keep = children.lower_bound < upper_bound
            if n_leaves:
                keep &= ~leaf_mask
            kept = int(np.count_nonzero(keep))
            pruned = n_children - n_leaves - kept
            stats.nodes_pruned += pruned
            frontier.push_block(children, keep)
            stats.time_pool_s += perf_counter() - t0

            if hooks.on_iteration is not None:
                hooks.on_iteration(
                    OffloadStep(
                        iteration=iteration,
                        nodes_offloaded=n_children,
                        nodes_pruned=pruned,
                        nodes_kept=kept,
                        incumbent=upper_bound,
                        simulated_s=sim_s,
                        measured_s=wall_s,
                    )
                )

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
        )


# ---------------------------------------------------------------------- #
#  The engine assembly
# ---------------------------------------------------------------------- #
def run_search(
    driver: SearchDriver,
    start: Union[Sequence[int], Snapshot] = (),
    *,
    upper_bound: float = math.inf,
    best_order: tuple[int, ...] = (),
    max_pending: Optional[int] = None,
    stats: Optional[SearchStats] = None,
    seed_offload: Optional[OffloadBackend] = None,
    on_cut: Optional[Callable[[CheckpointState], None]] = None,
) -> tuple[DriverResult, SearchStats]:
    """Seed, run and finish one search: the assembly every engine shares.

    ``start`` is a job prefix (``()`` is the root) or a
    :class:`~repro.bb.snapshot.Snapshot` to continue.

    * **Fresh start.** ``upper_bound``/``best_order`` are the starting
      incumbent; a seeded schedule credits ``incumbent_updates``.  The
      frontier uses the driver's selection and the ``max_pending`` cap.
      The seed is bounded once, through ``seed_offload`` (default: the
      driver's offload), and counted in ``nodes_bounded`` and
      ``time_bounding_s``.  Then the rule children follow at elimination
      applies: a complete seed is examined as a leaf (an improving one
      updates the incumbent through ``on_improve_incumbent``), a seed
      whose bound meets the incumbent is pruned, any other is pushed.
    * **Snapshot start.** The snapshot's stats, carried wall time,
      incumbent, frontier and trail are reused; a smaller
      ``upper_bound`` (a shared bound) tightens the incumbent.

    ``stats`` (default: the snapshot's, or fresh counters) receives the
    counters; a caller that must read them after an exception passes its
    own.  ``time_total_s`` and ``max_pool_size`` are finalized even when
    the run raises.  The returned outcome's ``simulated_s`` and
    ``measured_s`` include the seed launch, and ``stats`` is charged the
    simulated seed launch plus the loop.
    When a budget cuts the run, ``on_cut`` receives its final state.
    """
    began = time.perf_counter()
    instance = driver.instance
    seed_sim_s = seed_wall_s = 0.0
    seed_value: Optional[int] = None
    seed_event: Optional[TraceEvent] = None
    if isinstance(start, Snapshot):
        stats = stats if stats is not None else start.stats
        frontier, trail = start.frontier, start.trail
        upper_bound = min(upper_bound, start.upper_bound)
        best_order = start.best_order
    else:
        stats = stats if stats is not None else SearchStats()
        if best_order:
            stats.incumbent_updates += 1
        trail = Trail()
        frontier = BlockFrontier(
            instance.n_jobs,
            instance.n_machines,
            trail,
            strategy=driver.selection,
            max_pending=max_pending,
        )
        prefix = tuple(int(job) for job in start)
        seed = seed_block(instance, prefix, trail, driver.tables)
        offload = seed_offload if seed_offload is not None else driver.offload
        t0 = time.perf_counter()
        _, seed_sim_s, seed_wall_s = offload.bound_block(seed)
        stats.time_bounding_s += time.perf_counter() - t0
        stats.nodes_bounded += 1
        seed_lb = int(seed.lower_bound[0])
        if len(prefix) == instance.n_jobs:
            events: list[TraceEvent] = []
            upper_bound, improved, _ = driver._examine_leaves(
                seed, None, upper_bound, stats, events
            )
            if improved is not None:
                best_order, seed_value = prefix, int(upper_bound)
            seed_event = events[0]
        elif seed_lb >= upper_bound:
            stats.nodes_pruned += 1
            seed_event = TraceEvent(prefix, seed_lb, upper_bound, "pruned")
        else:
            frontier.push_block(seed)
    carried_s = stats.time_total_s

    try:
        outcome = driver.run(
            frontier,
            upper_bound=upper_bound,
            best_order=best_order,
            stats=stats,
            trail=trail,
            start=began,
        )
    finally:
        stats.time_total_s = carried_s + (time.perf_counter() - began)
        stats.max_pool_size = frontier.max_size_seen
    outcome.simulated_s = seed_sim_s + outcome.simulated_s
    outcome.measured_s = seed_wall_s + outcome.measured_s
    stats.simulated_device_time_s += outcome.simulated_s
    if outcome.best_value is None:
        outcome.best_value = seed_value
    if seed_event is not None and driver.trace_enabled:
        outcome.trace.insert(0, seed_event)
    if on_cut is not None and not outcome.completed:
        final_order = outcome.best_order
        on_cut(
            CheckpointState(
                frontier=frontier,
                trail=trail,
                upper_bound=outcome.upper_bound,
                best_order_supplier=lambda: final_order,
                stats=stats,
                steps=outcome.iterations,
            )
        )
    return outcome, stats
