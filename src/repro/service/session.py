"""One solve session: a private frontier driven through the shared dispatcher.

A :class:`SolveSession` is the service-side unit of work for one
``solve`` request.  It owns its own :class:`~repro.bb.frontier.BlockFrontier`
(and trail, stats, incumbent) and runs the standard
:class:`~repro.bb.driver.SearchDriver` single-step loop in a worker thread —
the ONLY difference from :class:`~repro.bb.sequential.SequentialBranchAndBound`
is the bounding backend: a :class:`~repro.service.dispatch.BatchingOffload`
that parks each bounding batch on the shared dispatcher instead of
evaluating it inline.

Bit-identity contract: because the session starts the sequential
engine's assembly — the same starting incumbent
(:func:`~repro.bb.sequential.initial_incumbent`), the same
:func:`~repro.bb.driver.run_search` seeding and stats finalization, an
identical driver configuration — and because every kernel path returns
bit-identical bounds, a session's
:class:`SessionResult` carries the same makespan, permutation, optimality
flag and full counter set as a stand-alone sequential solve of the same
instance and parameters.  ``tests/test_service.py`` pins this against the
golden fixture configs.

Cancellation has two doors, covering both places a session thread can be:

* **while selecting** — the driver's ``on_select`` hook checks the
  session's cancel event and raises
  :class:`~repro.service.dispatch.SessionCancelled`;
* **while parked mid-batch** — :meth:`SolveSession.cancel` also calls the
  dispatcher's ``cancel_pending``, which fails the parked future with the
  same exception so the blocked ``bound_block`` call unwinds.

Either way :meth:`SolveSession.run` catches the exception and reports the
best incumbent known at that point with ``cancelled=True``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.bb.driver import LocalBounding, SearchDriver, SearchHooks, SearchLimits, run_search
from repro.bb.frontier import bound_block  # noqa: F401 - perfbench's traced run wraps this name
from repro.bb.sequential import initial_incumbent
from repro.bb.snapshot import (
    CheckpointPolicy,
    CheckpointState,
    Snapshot,
    SnapshotMismatch,
    dumps_snapshot,
    instance_fingerprint,
    load_snapshot,
    save_snapshot,
)
from repro.bb.stats import SearchStats
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.neh import neh_heuristic  # noqa: F401 - perfbench's traced run wraps this name
from repro.service.dispatch import BatchDispatcher, BatchingOffload, SessionCancelled

__all__ = ["SessionConfig", "SessionResult", "SolveSession"]


@dataclass(frozen=True)
class SessionConfig:
    """Per-session solver parameters (the server-side view of ``SolveParams``).

    All fields mirror :class:`~repro.bb.sequential.SequentialBranchAndBound`
    constructor arguments of the same name; defaults are the engine's
    defaults, which keeps a default session bit-identical to a default
    sequential solve.
    """

    selection: str = "best-first"
    initial_upper_bound: Optional[float] = None
    max_nodes: Optional[int] = None
    max_time_s: Optional[float] = None
    max_frontier_nodes: Optional[int] = None
    #: snapshot file this session checkpoints to (fault tolerance); ``None``
    #: disables checkpointing
    checkpoint_path: Optional[str] = None
    #: checkpoint every N driver steps (requires ``checkpoint_path``)
    checkpoint_every: Optional[int] = None
    #: snapshot file to resume from instead of starting a fresh search
    resume_from: Optional[str] = None

    def __post_init__(self) -> None:
        if self.selection not in ("best-first", "depth-first", "fifo"):
            raise ValueError(f"unknown selection strategy {self.selection!r}")
        if self.max_frontier_nodes is not None and self.max_frontier_nodes < 1:
            raise ValueError("max_frontier_nodes must be >= 1 when given")
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1 when given")
            if self.checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")


@dataclass
class SessionResult:
    """Outcome of one session (the service-side analogue of ``BBResult``).

    ``makespan``/``order``/``proved_optimal``/``stats`` match what a
    sequential solve would report; ``cancelled`` marks sessions that were
    cancelled mid-search — their fields then describe the best incumbent
    known at cancellation and ``proved_optimal`` is ``False``.
    """

    session_id: int
    makespan: int
    order: tuple[int, ...]
    proved_optimal: bool
    cancelled: bool = False
    stats: SearchStats = field(default_factory=SearchStats)

    def stats_dict(self) -> dict[str, Any]:
        """The counters as a plain dict (what ``ResultReply.stats`` carries)."""
        return self.stats.as_dict()


class SolveSession:
    """One request's search: private frontier, shared batched bounding.

    Parameters
    ----------
    session_id:
        Service-assigned identifier (echoed in results and stats).
    instance / data:
        The flow-shop instance and its precomputed bound structures.
        ``data`` MUST be the service's shared per-instance object —
        the dispatcher groups coalescible requests by its identity.
    dispatcher:
        The shared :class:`BatchDispatcher` bounding batches are parked on.
    config:
        Solver parameters (:class:`SessionConfig`).

    :meth:`run` is synchronous and is executed on a worker thread by the
    service; :meth:`cancel` may be called from any thread.
    """

    def __init__(
        self,
        session_id: int,
        instance: FlowShopInstance,
        data: LowerBoundData,
        dispatcher: BatchDispatcher,
        config: SessionConfig | None = None,
        on_event: Optional[Callable[[str, dict], None]] = None,
        fault_hook: Optional[Callable[[int], None]] = None,
    ):
        self.session_id = session_id
        self.instance = instance
        self.data = data
        self.dispatcher = dispatcher
        self.config = config if config is not None else SessionConfig()
        #: called (from the session's worker thread) with ``(kind, payload)``
        #: for observability events — currently ``"checkpoint"``
        self.on_event = on_event
        #: fault-injection seam: called with the selection-step index at
        #: every selection, before the cancel check (see repro.testing.faults)
        self.fault_hook = fault_hook
        #: newest snapshot this session wrote (or resumed from) — what the
        #: service restarts a dead session from
        self.last_checkpoint_path: Optional[Path] = (
            Path(self.config.resume_from) if self.config.resume_from else None
        )
        #: snapshots written by this session incarnation
        self.checkpoints_written = 0
        self._cancel = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (thread-safe, idempotent).

        Sets the cancel flag (picked up at the next selection step) and
        fails any bounding request this session has parked on the
        dispatcher, so a session blocked mid-batch unwinds immediately
        without stalling its peers' flush.
        """
        self._cancel.set()
        self.dispatcher.cancel_pending(self)

    @property
    def cancel_requested(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancel.is_set()

    # ------------------------------------------------------------------ #
    def run(self, registered: bool = False) -> SessionResult:
        """Solve to completion, budget exhaustion, or cancellation.

        Runs the sequential engine's assembly
        (:func:`~repro.bb.driver.run_search`) so the result is
        bit-identical to a stand-alone solve; only the bounding backend
        differs.  The root is bounded on this thread, before any peer
        session exists to coalesce with, as the serial engine bounds it.
        A cancelled session returns its best incumbent with
        ``cancelled=True``.  Raises ``RuntimeError`` when the search ends
        without any incumbent (explicit non-improvable upper bound).

        ``registered=True`` means the caller already counted this session
        into the dispatcher's active gauge (the service registers at
        admission time, so sessions still seeding their incumbent hold the
        ``all-parked`` flush for their soon-to-park batches); the gauge is
        always released here when the loop exits.
        """
        if not registered:
            self.dispatcher.session_started()
        try:
            return self._solve()
        finally:
            self.dispatcher.session_finished()

    def _engine_config(self) -> dict:
        """Engine settings recorded in this session's snapshot headers."""
        config = self.config
        return {
            "engine": "session",
            "selection": config.selection,
            "max_frontier_nodes": config.max_frontier_nodes,
            "trace": False,
        }

    def _make_checkpoint_hook(self):
        """The ``on_checkpoint`` callback: snapshot to the configured path."""
        path = Path(self.config.checkpoint_path)
        engine = self._engine_config()

        def write(state: CheckpointState) -> None:
            blob = dumps_snapshot(
                self.instance,
                frontier=state.frontier,
                trail=state.trail,
                upper_bound=state.upper_bound,
                best_order=state.best_order_supplier(),
                next_order=state.next_order,
                stats=state.stats,
                engine=engine,
            )
            save_snapshot(path, blob)
            self.checkpoints_written += 1
            self.last_checkpoint_path = path
            if self.on_event is not None:
                self.on_event(
                    "checkpoint",
                    {
                        "session_id": self.session_id,
                        "path": str(path),
                        "sequence": self.checkpoints_written,
                        "steps": state.steps,
                    },
                )

        return write

    def _load_resume_state(self) -> Snapshot:
        """Materialize ``config.resume_from`` and verify it belongs to us."""
        snapshot = load_snapshot(self.config.resume_from)
        if snapshot.header["instance"]["fingerprint"] != instance_fingerprint(self.instance):
            raise SnapshotMismatch(
                "snapshot belongs to a different instance than this session"
            )
        return snapshot

    def _solve(self) -> SessionResult:
        """The sequential-recipe solve body (gauge handling lives in ``run``)."""
        config = self.config
        if config.resume_from:
            start: Snapshot | tuple[int, ...] = self._load_resume_state()
            stats = start.stats
            upper_bound, best_order = start.upper_bound, start.best_order
        else:
            start = ()
            stats = SearchStats()
            upper_bound, best_order = initial_incumbent(self.instance, config.initial_upper_bound)
        best_makespan = upper_bound if best_order else None

        def record_incumbent(makespan, supplier):
            nonlocal best_makespan, best_order
            best_makespan = makespan
            best_order = supplier()

        fault_hook = self.fault_hook

        def check_cancel(step: int) -> None:
            if fault_hook is not None:
                fault_hook(step)
            if self._cancel.is_set():
                raise SessionCancelled("session cancelled")

        hooks = SearchHooks(on_select=check_cancel, on_improve_incumbent=record_incumbent)
        checkpoint: Optional[CheckpointPolicy] = None
        if config.checkpoint_path is not None and config.checkpoint_every is not None:
            checkpoint = CheckpointPolicy(every_steps=config.checkpoint_every)
            hooks.on_checkpoint = self._make_checkpoint_hook()
        driver = SearchDriver(
            self.instance,
            selection=config.selection,
            offload=BatchingOffload(self.dispatcher, self.data, token=self),
            limits=SearchLimits(max_nodes=config.max_nodes, max_time_s=config.max_time_s),
            hooks=hooks,
            checkpoint=checkpoint,
        )
        try:
            outcome, _ = run_search(
                driver,
                start,
                upper_bound=upper_bound,
                best_order=best_order,
                max_pending=config.max_frontier_nodes,
                stats=stats,
                seed_offload=LocalBounding(self.data),
            )
        except SessionCancelled:
            if best_makespan is None or not best_order:
                raise RuntimeError(
                    "session cancelled before any incumbent was found"
                ) from None
            return SessionResult(
                session_id=self.session_id,
                makespan=int(best_makespan),
                order=tuple(best_order),
                proved_optimal=False,
                cancelled=True,
                stats=stats,
            )

        if not outcome.best_order:
            raise RuntimeError(
                "the search terminated without an incumbent; provide a finite "
                "initial upper bound or let NEH seed the search"
            )
        return SessionResult(
            session_id=self.session_id,
            makespan=int(outcome.upper_bound),
            order=tuple(outcome.best_order),
            proved_optimal=outcome.completed,
            cancelled=False,
            stats=stats,
        )
