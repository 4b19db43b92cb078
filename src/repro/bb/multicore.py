"""Multi-core Branch-and-Bound baseline (Section V).

The paper compares its GPU-accelerated B&B against a low-level (pthread)
multi-threaded B&B in which worker threads explore disjoint parts of the
tree and share the incumbent.  :class:`MulticoreBranchAndBound` is the
facade over the two parallel modes of the reproduction:

* ``mode="worksteal"`` (default, the paper-faithful engine) — the
  :class:`~repro.bb.worksteal.WorkStealingBranchAndBound` engine: an
  oversubscribed frontier of sub-tree chunks in a shared queue that idle
  workers steal from, plus a shared incumbent that workers compare-and-swap
  on improvement and poll while exploring;
* ``mode="static"`` — the historical static split: the frontier is mapped
  onto the workers once, every worker searches from the launch-time bound,
  and nothing is exchanged until the final merge.  Kept as the ablation
  baseline the work-stealing benchmarks compare against.

Backends: ``"process"`` gives true parallelism (Python threads cannot scale
CPU-bound work because of the GIL, which the ``"thread"`` backend
demonstrates and the tests use for determinism); ``"serial"`` runs the
tasks in the calling thread to measure decomposition overhead.

The *measured* speed-up of this engine on the test machine is reported by
the benchmarks, while the Table IV reproduction uses the calibrated
:class:`~repro.perf.model.MulticoreScalingModel` (see DESIGN.md §2 for the
substitution rationale).
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.bb.driver import SearchDriver, SearchHooks, SearchLimits, run_search
from repro.bb.sequential import BBResult, SequentialBranchAndBound, initial_incumbent
from repro.bb.snapshot import CheckpointState, Snapshot, dumps_snapshot, loads_snapshot
from repro.bb.stats import SearchStats
from repro.bb.worksteal import WorkStealingBranchAndBound, frontier_prefixes
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance

__all__ = ["MulticoreBranchAndBound", "SubtreeTask"]


@dataclass(frozen=True)
class SubtreeTask:
    """A unit of work shipped to one worker: solve the sub-tree under ``prefix``."""

    instance_payload: dict
    prefix: tuple[int, ...]
    upper_bound: float
    max_nodes: Optional[int]
    #: shared wall-clock deadline (``time.time()`` epoch), not a per-task span
    deadline: Optional[float]
    selection: str
    max_frontier_nodes: Optional[int] = None


def _solve_subtree(task: SubtreeTask) -> dict:
    """Worker entry point (module level so it is picklable by processes)."""
    instance = FlowShopInstance.from_dict(task.instance_payload)
    solver = _SubtreeSolver(
        instance,
        prefix=task.prefix,
        upper_bound=task.upper_bound,
        selection=task.selection,
        max_nodes=task.max_nodes,
        deadline=task.deadline,
        max_frontier_nodes=task.max_frontier_nodes,
    )
    best_makespan, best_order, stats, completed = solver.run()
    return {
        "best_makespan": best_makespan,
        "best_order": best_order,
        "stats": stats,
        "completed": completed,
        "prefix": task.prefix,
    }


class _SubtreeSolver:
    """Serial search restricted to the sub-tree under a prefix.

    With ``incumbent=None`` (static mode) the solver prunes against the
    launch-time ``upper_bound`` only.  When the work-stealing engine passes
    a shared incumbent, the solver starts from the freshest shared bound,
    publishes every local improvement via compare-and-swap, and polls the
    shared bound every ``poll_interval`` pops — re-pruning its open frontier
    (:meth:`~repro.bb.frontier.BlockFrontier.prune_to`) when a peer
    tightened it.

    Rebalancing (the work-stealing engine's ``rebalance=True`` mode) uses
    two extra knobs: ``capture_incomplete=True`` makes a node-budget-cut
    run serialize its live frontier into ``self.resume_blob`` (an in-memory
    snapshot, see :mod:`repro.bb.snapshot`) instead of abandoning it, and
    ``resume_from=<blob>`` makes the solver continue such a captured
    frontier rather than seeding from a prefix.  Deadline-cut runs never
    capture — the global time budget stays a hard stop.
    """

    def __init__(
        self,
        instance: FlowShopInstance,
        prefix: Sequence[int],
        upper_bound: float,
        selection: str = "depth-first",
        max_nodes: Optional[int] = None,
        deadline: Optional[float] = None,
        incumbent=None,
        poll_interval: int = 64,
        max_frontier_nodes: Optional[int] = None,
        capture_incomplete: bool = False,
        resume_from: Optional[bytes] = None,
    ):
        if poll_interval < 1:
            raise ValueError("poll_interval must be >= 1")
        self.instance = instance
        self.data = LowerBoundData(instance)
        self.prefix = tuple(int(j) for j in prefix)
        self.upper_bound = float(upper_bound)
        self.selection = selection
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.incumbent = incumbent
        self.poll_interval = poll_interval
        self.max_frontier_nodes = max_frontier_nodes
        self.capture_incomplete = capture_incomplete
        self.resume_from = resume_from
        #: set by a budget-cut run when ``capture_incomplete`` is on: the
        #: serialized remainder of this chunk, ready to re-enqueue
        self.resume_blob: Optional[bytes] = None

    def _driver(self) -> SearchDriver:
        """The worker's loop: the driver's single-step shape with polling.

        ``poll_bound`` re-reads the shared incumbent every ``poll_interval``
        pops (re-pruning the open pool when a peer tightened it) and
        ``on_improve_incumbent`` publishes local improvements via the
        compare-and-swap.  Best-first workers batch ``(lb, depth)`` ties
        into one bounding launch exactly like the sequential engine — the
        driver routes both through the same ``pop_min_tie_batch`` path.
        """
        hooks = SearchHooks(poll_interval=self.poll_interval)
        if self.incumbent is not None:
            incumbent = self.incumbent
            hooks.poll_bound = incumbent.get
            hooks.on_improve_incumbent = lambda makespan, order: incumbent.try_update(makespan)
        return SearchDriver(
            self.instance,
            self.data,
            selection=self.selection,
            limits=SearchLimits(max_nodes=self.max_nodes, deadline=self.deadline),
            hooks=hooks,
        )

    def run(self) -> tuple[Optional[int], tuple[int, ...], SearchStats, bool]:
        """Exhaust this worker's sub-tree (or captured remainder).

        Returns ``(makespan, order, stats, completed)``; ``makespan`` is
        ``None`` when the chunk never improved on its starting bound.
        """
        upper_bound = self.upper_bound
        if self.incumbent is not None:
            upper_bound = min(upper_bound, self.incumbent.get())
        start: Union[tuple[int, ...], Snapshot] = self.prefix
        if self.resume_from is not None:
            start = loads_snapshot(self.resume_from)
        outcome, stats = run_search(
            self._driver(),
            start,
            upper_bound=upper_bound,
            max_pending=self.max_frontier_nodes,
            on_cut=self._capture if self.capture_incomplete else None,
        )
        return outcome.best_value, tuple(outcome.best_order), stats, outcome.completed

    def _capture(self, state: CheckpointState) -> None:
        """Serialize the live remainder of a node-budget-cut chunk for re-enqueue.

        A deadline-cut chunk is not captured: the global time budget stays
        a hard stop.  The cut segment's partial statistics travel with the
        worker that ran it (they are merged into the worker totals as
        usual), so the blob carries a *fresh* ``SearchStats`` — the resumed
        segment accounts for its own work and nothing is double counted.
        """
        if self.deadline is not None and time.time() >= self.deadline:
            return
        self.resume_blob = dumps_snapshot(
            self.instance,
            frontier=state.frontier,
            upper_bound=state.upper_bound,
            best_order=(),
            stats=SearchStats(),
            trail=state.trail,
            next_order=state.next_order,
            engine={
                "engine": "worksteal-chunk",
                "selection": self.selection,
                "prefix": list(self.prefix),
            },
        )


class MulticoreBranchAndBound:
    """Parallel tree exploration over a pool of workers.

    Every worker bounds the children of a branched node in one kernel-v2
    call; the scalar mode of the sequential engine is not available here.

    Parameters
    ----------
    instance:
        The flow-shop instance to solve.
    n_workers:
        Number of worker threads/processes (defaults to the CPU count).
    backend:
        ``"process"`` (true parallelism, default), ``"thread"`` (GIL-bound,
        deterministic — useful in tests), or ``"serial"`` (run the tasks in
        the calling thread; used to measure decomposition overhead).
    mode:
        ``"worksteal"`` (default) — the shared-incumbent work-stealing
        engine (:class:`~repro.bb.worksteal.WorkStealingBranchAndBound`);
        ``"static"`` — the historical one-shot split of the frontier over
        the workers with no incumbent exchange, kept as the ablation
        baseline.
    decomposition_depth:
        Depth down to which the root is expanded on the master before the
        sub-trees are distributed.  Depth 1 yields ``n`` tasks, depth 2
        ``n(n-1)``.  Defaults to 2 in work-stealing mode (oversubscription
        feeds the stealing) and 1 in static mode.
    selection:
        Selection strategy used inside each worker.
    poll_interval:
        Work-stealing mode only: pops between two reads of the shared
        incumbent inside a worker.
    max_frontier_nodes:
        Per-worker high-water frontier cap with a 0.8×cap hysteresis
        low-water mark (see :class:`~repro.bb.frontier.BlockFrontier`).
    """

    def __init__(
        self,
        instance: FlowShopInstance,
        n_workers: Optional[int] = None,
        backend: str = "process",
        decomposition_depth: Optional[int] = None,
        selection: str = "depth-first",
        initial_upper_bound: Optional[float] = None,
        max_nodes_per_task: Optional[int] = None,
        max_time_s: Optional[float] = None,
        mode: str = "worksteal",
        poll_interval: int = 64,
        max_frontier_nodes: Optional[int] = None,
    ):
        if backend not in ("process", "thread", "serial"):
            raise ValueError("backend must be 'process', 'thread' or 'serial'")
        if mode not in ("worksteal", "static"):
            raise ValueError("mode must be 'worksteal' or 'static'")
        if decomposition_depth is None:
            decomposition_depth = 2 if mode == "worksteal" else 1
        if decomposition_depth < 1:
            raise ValueError("decomposition_depth must be >= 1")
        self.instance = instance
        self.n_workers = n_workers or os.cpu_count() or 1
        self.backend = backend
        self.mode = mode
        self.decomposition_depth = min(decomposition_depth, instance.n_jobs)
        self.selection = selection
        self.initial_upper_bound = initial_upper_bound
        self.max_nodes_per_task = max_nodes_per_task
        self.max_time_s = max_time_s
        self.poll_interval = poll_interval
        self.max_frontier_nodes = max_frontier_nodes

    # ------------------------------------------------------------------ #
    def _frontier_prefixes(self) -> list[tuple[int, ...]]:
        """All job prefixes of length ``decomposition_depth``."""
        return frontier_prefixes(self.instance.n_jobs, self.decomposition_depth)

    # ------------------------------------------------------------------ #
    def solve(self) -> BBResult:
        """Run the parallel search and merge the workers' results."""
        if self.mode == "worksteal":
            return WorkStealingBranchAndBound(
                self.instance,
                n_workers=self.n_workers,
                backend=self.backend,
                decomposition_depth=self.decomposition_depth,
                selection=self.selection,
                initial_upper_bound=self.initial_upper_bound,
                max_nodes_per_task=self.max_nodes_per_task,
                max_time_s=self.max_time_s,
                poll_interval=self.poll_interval,
                max_frontier_nodes=self.max_frontier_nodes,
            ).solve()
        return self._solve_static()

    def _solve_static(self) -> BBResult:
        """One-shot split of the frontier over the workers (no sharing)."""
        start = time.perf_counter()
        upper_bound, best_order = initial_incumbent(self.instance, self.initial_upper_bound)
        payload = self.instance.to_dict()
        deadline = time.time() + self.max_time_s if self.max_time_s is not None else None
        tasks = [
            SubtreeTask(
                instance_payload=payload,
                prefix=prefix,
                upper_bound=upper_bound,
                max_nodes=self.max_nodes_per_task,
                deadline=deadline,
                selection=self.selection,
                max_frontier_nodes=self.max_frontier_nodes,
            )
            for prefix in self._frontier_prefixes()
        ]

        results: list[dict] = []
        if self.backend == "serial" or self.n_workers == 1:
            results = [_solve_subtree(task) for task in tasks]
        else:
            executor_cls = (
                concurrent.futures.ProcessPoolExecutor
                if self.backend == "process"
                else concurrent.futures.ThreadPoolExecutor
            )
            with executor_cls(max_workers=self.n_workers) as executor:
                results = list(executor.map(_solve_subtree, tasks))

        stats = SearchStats()
        completed = True
        best_makespan = int(upper_bound) if best_order else None
        for outcome in results:
            stats = stats.merge(outcome["stats"])
            completed = completed and bool(outcome["completed"])
            if outcome["best_makespan"] is not None:
                value = int(outcome["best_makespan"])
                if best_makespan is None or value < best_makespan:
                    best_makespan = value
                    best_order = tuple(outcome["best_order"])

        stats.time_total_s = time.perf_counter() - start
        if best_makespan is None:
            # No worker could strictly improve the initial bound, so the
            # bound itself is the result: proven when the search completed
            # (e.g. the caller passed the known optimal makespan), otherwise
            # returned with ``proved_optimal=False`` like any truncated run.
            if upper_bound == float("inf"):
                raise RuntimeError(
                    "parallel search terminated without an incumbent; provide "
                    "a finite initial upper bound or let NEH seed the search"
                )
            best_makespan = int(upper_bound)
        return BBResult(
            instance=self.instance,
            best_makespan=best_makespan,
            best_order=tuple(best_order),
            proved_optimal=completed,
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    def reference_serial(self) -> BBResult:
        """Solve the same instance with the serial engine (for speed-up ratios)."""
        solver = SequentialBranchAndBound(
            self.instance,
            selection="best-first",
            initial_upper_bound=self.initial_upper_bound,
        )
        return solver.solve()
