"""Work-stealing, shared-incumbent parallel Branch-and-Bound.

The paper's multi-threaded baseline (Section V) is a pthread B&B whose
workers explore disjoint parts of the tree while *sharing the incumbent*.
The historical static-split engine reproduced only the disjointness: every
worker searched its launch-time sub-tree from the launch-time NEH bound,
with no incumbent exchange and no load balancing.  This module supplies the
faithful dynamic engine:

* **oversubscribed decomposition** — the root is expanded to a prefix
  frontier (depth 2 by default), producing far more sub-tree chunks than
  workers;
* **work stealing** — the chunks sit in one shared queue and every idle
  worker steals the next one, so the load balances dynamically instead of
  being capped by the slowest static sub-tree;
* **shared incumbent** — a lock-protected bound (a ``multiprocessing.Value``
  in shared memory for the process backend) that workers compare-and-swap
  on improvement; each stolen chunk starts from the freshest bound, and
  workers poll the shared bound every ``poll_interval`` pops, re-pruning
  their open frontier (:meth:`~repro.bb.frontier.BlockFrontier.prune_to`)
  when a peer tightened it.

The engine is exact — it proves the same optimum as
:class:`~repro.bb.sequential.SequentialBranchAndBound` — while exploring
fewer nodes than the static split, because pruning information propagates
between workers instead of staying private (see
``benchmarks/bench_worksteal.py``).

Each worker's exploration is the single-step shape of
:class:`~repro.bb.driver.SearchDriver` (via
:class:`~repro.bb.multicore._SubtreeSolver`): the shared-bound polling and
CAS publication are the driver's ``poll_bound`` / ``on_improve_incumbent``
hooks, and best-first workers batch ``(lb, depth)`` ties into one bounding
launch exactly like the sequential engine.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from typing import Optional

from repro.bb.sequential import BBResult, initial_incumbent
from repro.bb.stats import SearchStats
from repro.flowshop.instance import FlowShopInstance

__all__ = [
    "SharedIncumbent",
    "WorkStealingBranchAndBound",
    "frontier_prefixes",
]


def frontier_prefixes(n_jobs: int, depth: int) -> list[tuple[int, ...]]:
    """All job prefixes of length ``depth`` (the decomposition frontier)."""
    prefixes: list[tuple[int, ...]] = [()]
    for _ in range(depth):
        extended: list[tuple[int, ...]] = []
        for prefix in prefixes:
            used = set(prefix)
            for job in range(n_jobs):
                if job not in used:
                    extended.append(prefix + (job,))
        prefixes = extended
    return prefixes


class SharedIncumbent:
    """Incumbent bound shared by workers in one process (threads / serial).

    ``try_update`` is the compare-and-swap of the paper's pthread baseline:
    the bound only ever tightens, and a worker learns whether its candidate
    actually improved on the global state.
    """

    def __init__(self, bound: float):
        self._value = float(bound)  # guarded-by: _lock
        self._lock = threading.Lock()

    def get(self) -> float:
        """Current shared bound (a stale read is safe: bounds only tighten)."""
        # Deliberate lock-free read: floats assign atomically under the GIL
        # and the bound only ever tightens, so a stale value merely delays
        # one pruning pass — it can never prune a node that must be kept.
        return self._value  # repro-lint: ignore[guarded-by] -- documented-safe stale read, see comment above

    def try_update(self, candidate: float) -> bool:
        """Tighten the bound to ``candidate`` if it strictly improves it."""
        candidate = float(candidate)
        with self._lock:
            if candidate < self._value:
                self._value = candidate
                return True
        return False


class _ProcessSharedIncumbent:
    """Incumbent backed by a ``multiprocessing.Value`` in shared memory."""

    def __init__(self, value):
        # The mp.Value carries its own lock; every access goes through it.
        self._value = value  # guarded-by: _value

    def get(self) -> float:
        """Current shared incumbent value (lock-protected read)."""
        with self._value.get_lock():
            return self._value.value

    def try_update(self, candidate: float) -> bool:
        """Compare-and-swap: install ``candidate`` if strictly better."""
        candidate = float(candidate)
        with self._value.get_lock():
            if candidate < self._value.value:
                self._value.value = candidate
                return True
        return False


class _TaskBoard:
    """Task queue with outstanding-work termination (threads / serial).

    The historical scheme — sentinels pre-queued *behind* the chunks — only
    works while the task set is fixed at launch.  Rebalancing re-enqueues
    the live remainder of budget-cut chunks, so shutdown instead keys off
    an outstanding-task count: the worker that finishes the last task (and
    re-enqueued nothing) broadcasts one ``None`` sentinel per worker.
    ``put`` increments *before* the item is visible and workers re-enqueue
    before calling :meth:`task_done`, so the count can never reach zero
    while work remains.
    """

    def __init__(self, n_workers: int):
        self._queue: queue_module.SimpleQueue = queue_module.SimpleQueue()
        self._lock = threading.Lock()
        self._outstanding = 0  # guarded-by: _lock
        self._n_workers = n_workers

    def put(self, task) -> None:
        with self._lock:
            self._outstanding += 1
        self._queue.put(task)

    def get(self):
        return self._queue.get()

    def task_done(self) -> None:
        with self._lock:
            self._outstanding -= 1
            drained = self._outstanding == 0
        if drained:
            for _ in range(self._n_workers):
                self._queue.put(None)


class _ProcessTaskBoard:
    """Cross-process twin of :class:`_TaskBoard` (mp.Queue + mp.Value)."""

    def __init__(self, task_queue, outstanding, n_workers: int):
        self._queue = task_queue
        # The mp.Value carries its own lock; every access goes through it.
        self._outstanding = outstanding  # guarded-by: _outstanding
        self._n_workers = n_workers

    def put(self, task) -> None:
        with self._outstanding.get_lock():
            self._outstanding.value += 1
        self._queue.put(task)

    def get(self):
        return self._queue.get()

    def task_done(self) -> None:
        with self._outstanding.get_lock():
            self._outstanding.value -= 1
            drained = self._outstanding.value == 0
        if drained:
            for _ in range(self._n_workers):
                self._queue.put(None)


def _run_tasks(instance: FlowShopInstance, board, incumbent, opts: dict) -> dict:
    """One worker's lifetime: steal chunks until a sentinel arrives.

    Tasks are either prefix tuples (seed a sub-tree) or ``("resume", blob)``
    pairs (continue a captured chunk remainder, rebalancing mode only).
    Returns the worker's merged statistics and its locally best schedule;
    the coordinator merges those across workers.
    """
    from repro.bb.multicore import _SubtreeSolver  # deferred: avoids an import cycle

    rebalance = bool(opts.get("rebalance"))
    stats = SearchStats()
    best_makespan: Optional[int] = None
    best_order: tuple[int, ...] = ()
    completed = True
    tasks_run = 0
    rebalanced = 0
    while True:
        task = board.get()
        if task is None:  # sentinel: no chunks left to steal
            break
        if task and task[0] == "resume":
            seed = {"prefix": (), "resume_from": task[1]}
        else:
            seed = {"prefix": task}
        solver = _SubtreeSolver(
            instance,
            upper_bound=opts["upper_bound"],
            selection=opts["selection"],
            max_nodes=opts["max_nodes_per_task"],
            deadline=opts["deadline"],
            incumbent=incumbent,
            poll_interval=opts["poll_interval"],
            max_frontier_nodes=opts.get("max_frontier_nodes"),
            capture_incomplete=rebalance,
            **seed,
        )
        makespan, order, task_stats, task_completed = solver.run()
        stats = stats.merge(task_stats)
        tasks_run += 1
        if rebalance and solver.resume_blob is not None:
            # The unfinished remainder goes back on the board (before
            # task_done, so the outstanding count cannot hit zero while it
            # is in flight); the cut no longer truncates the search.
            board.put(("resume", solver.resume_blob))
            rebalanced += 1
            task_completed = True
        completed = completed and task_completed
        if makespan is not None and (best_makespan is None or makespan < best_makespan):
            best_makespan = makespan
            best_order = order
        board.task_done()
    return {
        "best_makespan": best_makespan,
        "best_order": best_order,
        "stats": stats,
        "completed": completed,
        "tasks_run": tasks_run,
        "rebalanced": rebalanced,
    }


def _process_worker(
    instance_payload: dict, task_queue, outstanding, result_queue, bound_value, opts: dict
):
    """Process-backend worker entry point (module level: picklable)."""
    instance = FlowShopInstance.from_dict(instance_payload)
    incumbent = _ProcessSharedIncumbent(bound_value)
    board = _ProcessTaskBoard(task_queue, outstanding, opts["n_workers"])
    result_queue.put(_run_tasks(instance, board, incumbent, opts))


def _collect_process_results(procs, result_queue) -> list[dict]:
    """Drain one result per worker, failing loudly if a worker died."""
    results: list[dict] = []
    pending = len(procs)
    while pending:
        try:
            results.append(result_queue.get(timeout=1.0))
            pending -= 1
        except queue_module.Empty:
            if not any(p.is_alive() for p in procs):
                try:
                    while pending:
                        results.append(result_queue.get(timeout=1.0))
                        pending -= 1
                except queue_module.Empty:
                    raise RuntimeError(
                        f"{pending} work-stealing worker(s) exited without reporting results"
                    ) from None
    return results


class WorkStealingBranchAndBound:
    """Dynamic parallel tree exploration with a shared incumbent.

    Parameters
    ----------
    instance:
        The flow-shop instance to solve.
    n_workers:
        Number of workers (defaults to the CPU count); clamped to the number
        of decomposition chunks.
    backend:
        ``"process"`` (true parallelism, default), ``"thread"`` (GIL-bound
        but still cooperative — useful in tests), or ``"serial"`` (one
        worker draining the queue in the calling thread; the incumbent still
        flows between chunks, which is what makes even the serial mode
        explore fewer nodes than the static split).
    decomposition_depth:
        Depth of the prefix frontier.  The default of 2 yields ``n(n-1)``
        chunks — an oversubscription that keeps every worker busy until the
        queue drains.
    selection:
        Selection strategy inside each worker.
    initial_upper_bound:
        Starting incumbent; ``None`` seeds it with the NEH heuristic.
    poll_interval:
        Pops between two reads of the shared bound inside a worker.
    max_nodes_per_task / max_time_s:
        Optional per-chunk exploration budgets.
    rebalance:
        When ``True``, a chunk cut by ``max_nodes_per_task`` serializes its
        live frontier (an in-memory :mod:`repro.bb.snapshot` blob) and
        re-enqueues it as a fresh task instead of truncating the search —
        ``max_nodes_per_task`` then acts as a *time-slice* that keeps the
        queue full of steal-able work rather than a hard budget, and the
        search stays exact.  Deadline-cut chunks are never re-enqueued, so
        ``max_time_s`` remains a hard stop.  Default ``False``.
    max_frontier_nodes:
        Per-worker high-water frontier cap (see
        :class:`~repro.bb.frontier.BlockFrontier`); best-first workers fall
        back to a depth-first-restricted regime once over it, re-engaging
        best-first only below the 0.8×cap hysteresis low-water mark.
    """

    def __init__(
        self,
        instance: FlowShopInstance,
        n_workers: Optional[int] = None,
        backend: str = "process",
        decomposition_depth: int = 2,
        selection: str = "depth-first",
        initial_upper_bound: Optional[float] = None,
        max_nodes_per_task: Optional[int] = None,
        max_time_s: Optional[float] = None,
        poll_interval: int = 64,
        max_frontier_nodes: Optional[int] = None,
        rebalance: bool = False,
    ):
        if backend not in ("process", "thread", "serial"):
            raise ValueError("backend must be 'process', 'thread' or 'serial'")
        if decomposition_depth < 1:
            raise ValueError("decomposition_depth must be >= 1")
        if poll_interval < 1:
            raise ValueError("poll_interval must be >= 1")
        self.instance = instance
        self.n_workers = n_workers or os.cpu_count() or 1
        self.backend = backend
        self.decomposition_depth = min(decomposition_depth, instance.n_jobs)
        self.selection = selection
        self.initial_upper_bound = initial_upper_bound
        self.max_nodes_per_task = max_nodes_per_task
        self.max_time_s = max_time_s
        self.poll_interval = poll_interval
        self.max_frontier_nodes = max_frontier_nodes
        self.rebalance = rebalance
        #: observability: chunks whose remainders were re-enqueued by the
        #: last :meth:`solve` call (0 unless ``rebalance=True`` and some
        #: chunk hit its node budget)
        self.rebalanced_chunks = 0

    # ------------------------------------------------------------------ #
    def _opts(self, upper_bound: float) -> dict:
        # The time budget is global, not per chunk: one shared wall-clock
        # deadline (time.time() is comparable across worker processes).
        deadline = time.time() + self.max_time_s if self.max_time_s is not None else None
        return {
            "upper_bound": upper_bound,
            "selection": self.selection,
            "max_nodes_per_task": self.max_nodes_per_task,
            "deadline": deadline,
            "poll_interval": self.poll_interval,
            "max_frontier_nodes": self.max_frontier_nodes,
            "rebalance": self.rebalance,
        }

    # ------------------------------------------------------------------ #
    def _solve_in_process(self, prefixes, n_workers: int, opts: dict) -> list[dict]:
        """Thread / serial backends: in-process board and incumbent."""
        incumbent = SharedIncumbent(opts["upper_bound"])
        board = _TaskBoard(n_workers)
        for prefix in prefixes:
            board.put(prefix)
        if self.backend == "serial" or n_workers == 1:
            return [_run_tasks(self.instance, board, incumbent, opts)]
        results: list[Optional[dict]] = [None] * n_workers
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                results[slot] = _run_tasks(self.instance, board, incumbent, opts)
            except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError(
                f"{len(errors)} work-stealing worker thread(s) failed"
            ) from errors[0]
        return [result for result in results if result is not None]

    def _solve_multiprocess(self, prefixes, n_workers: int, opts: dict) -> list[dict]:
        """Process backend: shared-memory incumbent, queue-based stealing."""
        ctx = multiprocessing.get_context()
        bound_value = ctx.Value("d", opts["upper_bound"])
        task_queue = ctx.Queue()
        outstanding = ctx.Value("i", 0)
        result_queue = ctx.Queue()
        # Shutdown keys off the shared outstanding-task count: the worker
        # that drains the board broadcasts one sentinel per worker (see
        # _TaskBoard).  A fixed behind-the-chunks sentinel row would lose
        # any remainder re-enqueued by rebalancing.
        board = _ProcessTaskBoard(task_queue, outstanding, n_workers)
        for prefix in prefixes:
            board.put(prefix)
        payload = self.instance.to_dict()
        procs = [
            ctx.Process(
                target=_process_worker,
                args=(payload, task_queue, outstanding, result_queue, bound_value, opts),
            )
            for _ in range(n_workers)
        ]
        for proc in procs:
            proc.start()
        try:
            results = _collect_process_results(procs, result_queue)
        finally:
            for proc in procs:
                proc.join(timeout=30.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
        return results

    # ------------------------------------------------------------------ #
    def solve(self) -> BBResult:
        """Run the work-stealing search and merge the workers' results."""
        start = time.perf_counter()
        upper_bound, seed_order = initial_incumbent(self.instance, self.initial_upper_bound)
        prefixes = frontier_prefixes(self.instance.n_jobs, self.decomposition_depth)
        n_workers = max(1, min(self.n_workers, len(prefixes)))
        opts = self._opts(upper_bound)
        opts["n_workers"] = n_workers

        if self.backend == "process" and n_workers > 1:
            outcomes = self._solve_multiprocess(prefixes, n_workers, opts)
        else:
            outcomes = self._solve_in_process(prefixes, n_workers, opts)

        stats = SearchStats()
        completed = True
        best_makespan: Optional[int] = None
        best_order: tuple[int, ...] = ()
        self.rebalanced_chunks = sum(int(outcome.get("rebalanced", 0)) for outcome in outcomes)
        for outcome in outcomes:
            stats = stats.merge(outcome["stats"])
            completed = completed and bool(outcome["completed"])
            makespan = outcome["best_makespan"]
            if makespan is not None and (best_makespan is None or makespan < best_makespan):
                best_makespan = int(makespan)
                best_order = tuple(outcome["best_order"])

        stats.time_total_s = time.perf_counter() - start
        if best_makespan is None:
            # No worker could strictly improve the initial bound, so the
            # bound itself is the result: proven when the search completed
            # (e.g. the caller passed the known optimum), otherwise returned
            # with ``proved_optimal=False`` like any truncated run.
            if upper_bound == float("inf"):
                raise RuntimeError(
                    "parallel search terminated without an incumbent; provide "
                    "a finite initial upper bound or let NEH seed the search"
                )
            best_makespan = int(upper_bound)
            best_order = seed_order
        return BBResult(
            instance=self.instance,
            best_makespan=best_makespan,
            best_order=tuple(best_order),
            proved_optimal=completed,
            stats=stats,
        )
