"""Multi-core Branch-and-Bound baseline (Section V): work stealing with a shared incumbent.

The paper compares its GPU-accelerated B&B against a low-level (pthread)
multi-threaded B&B in which worker threads explore disjoint parts of the
tree while *sharing the incumbent*.  :class:`MulticoreBranchAndBound` is
that engine:

* **oversubscribed decomposition** — the root is expanded to a prefix
  frontier (depth 2 by default), producing far more sub-tree chunks than
  workers;
* **work stealing** — the chunks sit on one shared task queue and every
  idle worker steals the next one, so the load balances dynamically
  instead of being capped by the slowest sub-tree;
* **shared incumbent** — a lock-protected ``multiprocessing.Value`` in
  shared memory that workers compare-and-swap on improvement; each stolen
  chunk starts from the freshest bound, and workers poll the shared bound
  every :data:`~repro.bb.driver.POLL_INTERVAL` (64) pops, re-pruning their
  open frontier (:meth:`~repro.bb.frontier.BlockFrontier.prune_to`) when a
  peer tightened it.

The engine is exact — it proves the same optimum as
:class:`~repro.bb.sequential.SequentialBranchAndBound` — while exploring
fewer nodes than a static split of the same frontier with no incumbent
exchange (``repro.testing.static_split``, the ablation of
``benchmarks/bench_worksteal.py``), because pruning information propagates
between workers instead of staying private.

Each worker's exploration is the single-step shape of
:class:`~repro.bb.driver.SearchDriver` (via :class:`_SubtreeSolver`): the
shared-bound polling and CAS publication are the driver's ``poll_bound`` /
``on_improve_incumbent`` hooks, and best-first workers batch ``(lb,
depth)`` ties into one bounding launch exactly like the sequential engine.

Every backend runs the same worker path: one task queue, filled before
any worker starts with every prefix and then one ``None`` sentinel per
worker; one :class:`SharedIncumbent` in shared memory; and one
:func:`_worker` loop that builds its ``LowerBoundData`` once, runs chunks
until it takes a sentinel, and puts its outcome, or the exception that
ended it, on a results queue.  Only the queues and the worker type differ:
``"process"`` (``multiprocessing.Queue`` and ``Process``) gives true
parallelism; ``"thread"`` (``queue.SimpleQueue`` and ``threading.Thread``)
cannot scale CPU-bound work because of the GIL, which it demonstrates and
the tests use; ``"serial"`` runs one worker in the calling thread to
measure decomposition overhead.  A failed worker's exception is the
``__cause__`` of the ``RuntimeError`` that
:meth:`MulticoreBranchAndBound.solve` raises; its peers drain the
remaining chunks and stop at their sentinels.

The *measured* speed-up of this engine on the test machine is reported by
the benchmarks, while the Table IV reproduction uses the calibrated
:class:`~repro.perf.model.MulticoreScalingModel` (see DESIGN.md §2 for the
substitution rationale).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from typing import Any, Optional, Sequence

from repro.bb.driver import SearchDriver, SearchHooks, SearchLimits, run_search
from repro.bb.frontier import check_selection
from repro.bb.sequential import BBResult, initial_incumbent
from repro.bb.stats import SearchStats
from repro.flowshop.bounds import LowerBoundData, check_int32_total
from repro.flowshop.instance import FlowShopInstance

__all__ = ["MulticoreBranchAndBound", "SharedIncumbent", "frontier_prefixes"]


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
    """Incumbent bound shared by every worker: threads, processes or the caller.

    The bound is a ``multiprocessing.Value`` in shared memory, so one
    object serves every backend.  ``try_update`` is the compare-and-swap of
    the paper's pthread baseline: the bound only ever tightens, and a
    worker learns whether its candidate actually improved on the global
    state.
    """

    def __init__(self, bound: float):
        # The mp.Value carries its own lock; every access goes through it.
        self._value = multiprocessing.Value("d", float(bound))  # guarded-by: _value

    def get(self) -> float:
        """Current shared bound (a locked read)."""
        with self._value.get_lock():
            return self._value.value

    def try_update(self, candidate: float) -> bool:
        """Tighten the bound to ``candidate`` if it strictly improves it."""
        candidate = float(candidate)
        with self._value.get_lock():
            if candidate < self._value.value:
                self._value.value = candidate
                return True
        return False


class _SubtreeSolver:
    """Serial search restricted to the sub-tree under a prefix.

    ``data`` is the worker's bound data, built once per worker; the solver
    reads the instance from it.  With ``incumbent=None`` the solver prunes
    against the launch-time ``upper_bound`` only (the static split of
    ``repro.testing``).  When the engine passes a shared incumbent, the
    solver starts from the freshest shared bound, publishes every local
    improvement via compare-and-swap, and polls the shared bound every
    :data:`~repro.bb.driver.POLL_INTERVAL` pops — re-pruning its open
    frontier (:meth:`~repro.bb.frontier.BlockFrontier.prune_to`) when a
    peer tightened it.
    """

    def __init__(
        self,
        data: LowerBoundData,
        prefix: Sequence[int],
        upper_bound: float,
        selection: str = "depth-first",
        max_nodes: Optional[int] = None,
        deadline: Optional[float] = None,
        incumbent=None,
        max_frontier_nodes: Optional[int] = None,
    ):
        self.data = data
        self.prefix = tuple(int(j) for j in prefix)
        self.upper_bound = float(upper_bound)
        self.selection = selection
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.incumbent = incumbent
        self.max_frontier_nodes = max_frontier_nodes

    def _driver(self) -> SearchDriver:
        """The worker's loop: the driver's single-step shape with polling.

        ``poll_bound`` re-reads the shared incumbent every
        :data:`~repro.bb.driver.POLL_INTERVAL` pops (re-pruning the open
        pool when a peer tightened it) and ``on_improve_incumbent``
        publishes local improvements via the compare-and-swap.  Best-first
        workers batch ``(lb, depth)`` ties into one bounding launch exactly
        like the sequential engine — the driver routes both through the
        same ``pop_min_tie_batch`` path.
        """
        hooks = SearchHooks()
        if self.incumbent is not None:
            incumbent = self.incumbent
            hooks.poll_bound = incumbent.get
            hooks.on_improve_incumbent = lambda makespan, order: incumbent.try_update(makespan)
        return SearchDriver(
            self.data.instance,
            self.data,
            selection=self.selection,
            limits=SearchLimits(max_nodes=self.max_nodes, deadline=self.deadline),
            hooks=hooks,
        )

    def run(self) -> tuple[Optional[int], tuple[int, ...], SearchStats, bool]:
        """Exhaust this worker's sub-tree (or stop at a budget).

        Returns ``(makespan, order, stats, completed)``; ``makespan`` is
        ``None`` when the chunk never improved on its starting bound.
        """
        upper_bound = self.upper_bound
        if self.incumbent is not None:
            upper_bound = min(upper_bound, self.incumbent.get())
        outcome, stats = run_search(
            self._driver(),
            self.prefix,
            upper_bound=upper_bound,
            max_pending=self.max_frontier_nodes,
        )
        return outcome.best_value, tuple(outcome.best_order), stats, outcome.completed


def _run_tasks(instance: FlowShopInstance, tasks, incumbent, opts: dict) -> dict:
    """One worker's lifetime: steal prefix chunks until a sentinel arrives.

    The worker builds its ``LowerBoundData`` once, before its first chunk.
    Returns the worker's merged statistics and its locally best schedule;
    the coordinator merges those across workers.
    """
    data = LowerBoundData(instance)
    stats = SearchStats()
    best_makespan: Optional[int] = None
    best_order: tuple[int, ...] = ()
    completed = True
    while True:
        prefix = tasks.get()
        if prefix is None:  # sentinel: no chunks left to steal
            break
        makespan, order, task_stats, task_completed = _SubtreeSolver(
            data,
            prefix,
            upper_bound=opts["upper_bound"],
            selection=opts["selection"],
            max_nodes=opts["max_nodes_per_task"],
            deadline=opts["deadline"],
            incumbent=incumbent,
            max_frontier_nodes=opts["max_frontier_nodes"],
        ).run()
        stats = stats.merge(task_stats)
        completed = completed and task_completed
        if makespan is not None and (best_makespan is None or makespan < best_makespan):
            best_makespan = makespan
            best_order = order
    return {
        "best_makespan": best_makespan,
        "best_order": best_order,
        "stats": stats,
        "completed": completed,
    }


def _worker(instance: FlowShopInstance, tasks, incumbent, opts: dict, results) -> None:
    """Every worker's entry point (module level, so a process can pickle it).

    Puts the worker's outcome, or the exception that ended it, on
    ``results``.  A failed worker leaves its chunks to its peers, which
    drain the queue and stop at their own sentinels.
    """
    try:
        results.put(_run_tasks(instance, tasks, incumbent, opts))
    except BaseException as exc:
        results.put(exc)
        if not isinstance(exc, Exception):
            raise  # an interrupt or exit still ends this thread or process


class MulticoreBranchAndBound:
    """Dynamic parallel tree exploration with a shared incumbent.

    Every worker bounds the children of a branched node in one kernel-v2
    call; the scalar mode of the sequential engine is not available here.

    Parameters
    ----------
    instance:
        The flow-shop instance to solve.
    n_workers:
        Number of workers, at least 1 when given (defaults to the CPU
        count); clamped to the number of decomposition chunks.
    backend:
        ``"process"`` (true parallelism, default), ``"thread"`` (GIL-bound
        but still cooperative — useful in tests), or ``"serial"`` (one
        worker draining the queue in the calling thread; the incumbent still
        flows between chunks, which is what makes even the serial mode
        explore fewer nodes than a static split).
    decomposition_depth:
        Depth of the prefix frontier, clamped to the job count.  The default
        of 2 yields ``n(n-1)`` chunks — an oversubscription that keeps every
        worker busy until the queue drains.
    selection:
        Selection strategy inside each worker.
    initial_upper_bound:
        Starting incumbent; ``None`` seeds it with the NEH heuristic.
    max_nodes_per_task / max_time_s:
        Optional exploration budgets, positive when given: nodes per chunk
        (a chunk cut by it is dropped, so the result is not proved
        optimal), and one wall-clock span shared by every chunk.
    max_frontier_nodes:
        Per-worker high-water frontier cap (see
        :class:`~repro.bb.frontier.BlockFrontier`), at least 1 when given;
        best-first workers fall back to a depth-first-restricted regime once
        over it, re-engaging best-first only below the 0.8×cap hysteresis
        low-water mark.
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
        max_frontier_nodes: Optional[int] = None,
    ):
        if backend not in ("process", "thread", "serial"):
            raise ValueError("backend must be 'process', 'thread' or 'serial'")
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1 when given")
        if decomposition_depth < 1:
            raise ValueError("decomposition_depth must be >= 1")
        if max_frontier_nodes is not None and max_frontier_nodes < 1:
            raise ValueError("max_frontier_nodes must be >= 1 when given")
        SearchLimits(max_nodes=max_nodes_per_task, max_time_s=max_time_s)  # refuses empty budgets
        check_int32_total(instance)  # before any worker starts
        self.instance = instance
        self.n_workers = n_workers or os.cpu_count() or 1
        self.backend = backend
        self.decomposition_depth = min(decomposition_depth, instance.n_jobs)
        self.selection = check_selection(selection)
        self.initial_upper_bound = initial_upper_bound
        self.max_nodes_per_task = max_nodes_per_task
        self.max_time_s = max_time_s
        self.max_frontier_nodes = max_frontier_nodes

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
            "max_frontier_nodes": self.max_frontier_nodes,
        }

    def _run_workers(self, prefixes, n_workers: int, opts: dict) -> list[dict]:
        """Run ``n_workers`` workers over one task queue and one bound; return their outcomes.

        The task set is fixed at launch: every prefix, then one ``None``
        sentinel per worker, is queued before any worker starts.  Only the
        queues and the worker type depend on the backend; one worker runs
        in the calling thread.  A failed worker's exception is the
        ``__cause__`` of the ``RuntimeError`` raised here.
        """
        if self.backend == "process" and n_workers > 1:
            tasks: Any = multiprocessing.Queue()
            results: Any = multiprocessing.Queue()
            worker_type: Any = multiprocessing.Process
        else:
            tasks, results = queue_module.SimpleQueue(), queue_module.SimpleQueue()
            worker_type = threading.Thread
        for task in [*prefixes, *[None] * n_workers]:
            tasks.put(task)
        args = (self.instance, tasks, SharedIncumbent(opts["upper_bound"]), opts, results)
        workers: list = []
        if n_workers == 1:
            _worker(*args)
        else:
            workers = [worker_type(target=_worker, args=args) for _ in range(n_workers)]
            for worker in workers:
                worker.start()
        outcomes: list = []
        while len(outcomes) < n_workers:
            # Liveness is read before the get: a worker that has exited
            # already flushed its outcome, so an empty get after that means
            # the outcome never comes.
            alive = any(worker.is_alive() for worker in workers)
            try:
                outcomes.append(results.get(timeout=1.0))
            except queue_module.Empty:
                if not alive:
                    raise RuntimeError(
                        f"{n_workers - len(outcomes)} work-stealing worker(s) exited "
                        "without reporting results"
                    ) from None
        for worker in workers:
            worker.join()
        errors = [outcome for outcome in outcomes if isinstance(outcome, BaseException)]
        if errors:
            raise RuntimeError(
                f"{len(errors)} work-stealing worker {worker_type.__name__.lower()}(s) failed"
            ) from errors[0]
        return outcomes

    # ------------------------------------------------------------------ #
    def solve(self) -> BBResult:
        """Run the work-stealing search and merge the workers' results."""
        start = time.perf_counter()
        upper_bound, seed_order = initial_incumbent(self.instance, self.initial_upper_bound)
        prefixes = frontier_prefixes(self.instance.n_jobs, self.decomposition_depth)
        n_workers = 1 if self.backend == "serial" else max(1, min(self.n_workers, len(prefixes)))
        outcomes = self._run_workers(prefixes, n_workers, self._opts(upper_bound))

        stats = SearchStats()
        completed = True
        best_makespan: Optional[int] = None
        best_order: tuple[int, ...] = ()
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
