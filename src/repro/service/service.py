"""The solve service: asyncio orchestration of sessions over one dispatcher.

:class:`SolveService` is the in-process heart of ``repro serve`` (the TCP
server in :mod:`repro.service.server` is a thin wire adapter over it, and
tests/examples drive it directly).  It owns:

* one :class:`~repro.service.dispatch.BatchDispatcher` — ALL sessions park
  their bounding batches here, which is where the cross-session launch
  amortization happens;
* a :class:`~repro.service.scheduler.FairShareScheduler` for admission
  (bounded → ``overloaded`` backpressure; round-robin across clients);
* a worker thread pool of exactly ``max_active_sessions`` threads — each
  admitted session's synchronous driver loop runs on one of them while
  asyncio stays free for protocol work;
* a per-instance :class:`~repro.flowshop.bounds.LowerBoundData` cache,
  keyed by the instance's processing times.  Sessions solving the same
  instance share one object — which is also the dispatcher's grouping
  key, so their batches fuse into single launches.

Threading contract: all public coroutines run on the event-loop thread;
session solves run on pool threads and re-enter the loop only through
``run_in_executor`` completion.  :meth:`SolveService.cancel` reaches into
a running session from the loop thread via the session's thread-safe
``cancel``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.bb.snapshot import load_snapshot
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance
from repro.service.dispatch import BatchDispatcher, DispatchStats, FlushPolicy
from repro.service.protocol import SolveParams
from repro.service.scheduler import FairShareScheduler, SchedulerFull
from repro.service.session import SessionConfig, SessionResult, SolveSession

__all__ = ["ServiceOverloaded", "SessionHandle", "SolveService"]

logger = logging.getLogger(__name__)


class ServiceOverloaded(Exception):
    """Admission rejected: the waiting queue is full (send ``overloaded``).

    ``queued``/``limit`` mirror :class:`~repro.service.scheduler.SchedulerFull`.
    """

    def __init__(self, queued: int, limit: int):
        super().__init__(f"service overloaded ({queued}/{limit} queued)")
        self.queued = queued
        self.limit = limit


@dataclass
class SessionHandle:
    """The service's bookkeeping for one admitted session.

    ``result`` is an asyncio future resolved with the
    :class:`~repro.service.session.SessionResult` (or the session's
    exception) when the solve ends; ``running`` flips when the session is
    handed to a worker thread.
    """

    session_id: int
    session: SolveSession
    client_id: str
    result: "asyncio.Future[SessionResult]"
    running: bool = False
    done: bool = False
    #: how many times the service restarted this session after a crash
    restarts: int = 0


def _config_from_params(params: SolveParams) -> SessionConfig:
    """Translate wire-level :class:`SolveParams` into a :class:`SessionConfig`."""
    return SessionConfig(
        selection=params.selection,
        initial_upper_bound=params.initial_upper_bound,
        max_nodes=params.max_nodes,
        max_time_s=params.max_time_s,
        max_frontier_nodes=params.max_frontier_nodes,
        checkpoint_path=params.checkpoint_path,
        checkpoint_every=params.checkpoint_every,
    )


@dataclass
class _InstanceCache:
    """Share one ``LowerBoundData`` per distinct instance.

    Key: ``(n_jobs, n_machines, processing-time bytes)`` — the full
    instance content, so two requests naming the same Taillard instance
    (or shipping equal explicit matrices) resolve to the SAME object and
    therefore coalesce in the dispatcher.
    """

    _entries: dict[tuple, LowerBoundData] = field(default_factory=dict)

    def get(self, instance: FlowShopInstance) -> LowerBoundData:
        """One shared ``LowerBoundData`` per distinct processing-time matrix.

        Sessions solving the same instance must share the *same object* —
        the dispatcher groups batches by ``id(data)``, so identity is what
        makes cross-session fusion possible.
        """
        key = (
            instance.n_jobs,
            instance.n_machines,
            instance.processing_times.tobytes(),
        )
        data = self._entries.get(key)
        if data is None:
            data = LowerBoundData(instance)
            self._entries[key] = data
        return data


class SolveService:
    """Serve concurrent B&B solves with cross-session batched bounding.

    Parameters
    ----------
    max_active_sessions:
        Sessions solving concurrently (= worker threads).  ``1`` degrades
        to a serial queue — the launch-count baseline of
        ``benchmarks/bench_service.py``.
    max_queued:
        Bound of the admission queue; beyond it :meth:`submit` raises
        :class:`ServiceOverloaded`.
    flush_policy:
        Dispatcher flush policy (max-wait / max-batch); ``None`` for
        defaults.
    checkpoint_dir / checkpoint_every:
        Fault tolerance: with a directory set, every session checkpoints
        its in-flight search to ``<dir>/session-<id>.rpbb`` every
        ``checkpoint_every`` driver steps, and a session whose worker
        thread dies is restarted from its last snapshot (see
        ``max_session_restarts``).
    max_session_restarts / restart_backoff_s:
        The bounded retry budget for dead sessions: up to
        ``max_session_restarts`` restarts per session, sleeping
        ``restart_backoff_s * attempt`` before each.  Past the budget the
        session's failure propagates to its result future.
    launch_timeout_s / max_launch_retries / launch_hook:
        Forwarded to the :class:`BatchDispatcher` (per-launch watchdog,
        retry budget, fault-injection seam).
    session_fault_hook:
        Fault-injection seam: called with a ``session_id``, returns the
        per-selection hook installed into that session (or ``None``).
        See :mod:`repro.testing.faults`.
    on_event:
        Observability callback ``(request_id, kind, payload)`` — fired for
        ``"checkpoint"`` (from session worker threads!), ``"degraded"``
        (from the dispatcher thread) and ``"restart"`` (loop thread)
        events.  Async consumers must trampoline via
        ``loop.call_soon_threadsafe``.

    Lifecycle: ``start`` → any number of ``submit``/``result``/``cancel``/
    ``status`` → ``close`` (also usable as an async context manager).
    """

    def __init__(
        self,
        max_active_sessions: int = 8,
        max_queued: int = 64,
        flush_policy: Optional[FlushPolicy] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        max_session_restarts: int = 2,
        restart_backoff_s: float = 0.05,
        launch_timeout_s: Optional[float] = None,
        max_launch_retries: int = 1,
        launch_hook: Optional[Callable[[int], None]] = None,
        session_fault_hook: Optional[Callable[[int], Optional[Callable[[int], None]]]] = None,
        on_event: Optional[Callable[[str, str, dict], None]] = None,
    ):
        if max_active_sessions < 1:
            raise ValueError("max_active_sessions must be >= 1")
        if max_session_restarts < 0:
            raise ValueError("max_session_restarts must be >= 0")
        if restart_backoff_s < 0:
            raise ValueError("restart_backoff_s must be >= 0")
        self.max_active_sessions = max_active_sessions
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.checkpoint_every = checkpoint_every
        self.max_session_restarts = max_session_restarts
        self.restart_backoff_s = restart_backoff_s
        self.session_fault_hook = session_fault_hook
        self.on_event = on_event
        self.dispatcher = BatchDispatcher(
            flush_policy,
            autostart=False,
            launch_timeout_s=launch_timeout_s,
            max_launch_retries=max_launch_retries,
            launch_hook=launch_hook,
            on_degraded=self._on_degraded,
        )
        self._scheduler = FairShareScheduler(max_queued=max_queued)
        self._instance_cache = _InstanceCache()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._handles: dict[str, SessionHandle] = {}
        self._request_by_session: dict[int, str] = {}
        self._session_ids = itertools.count(1)
        self._active = 0
        self._completed = 0
        self._restarts = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    #  lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the dispatcher thread and the session worker pool."""
        if self._started:
            return
        self._started = True
        self.dispatcher.start()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_active_sessions, thread_name_prefix="solve-session"
        )

    async def close(self) -> None:
        """Cancel everything outstanding and shut both thread layers down."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            if not handle.done:
                handle.session.cancel()
        pending = [h.result for h in self._handles.values() if not h.result.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self.dispatcher.close()

    async def __aenter__(self) -> "SolveService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    #  request plane
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        request_id: str,
        instance: FlowShopInstance,
        params: SolveParams | None = None,
        client_id: str = "anonymous",
    ) -> int:
        """Admit one solve; returns the assigned ``session_id``.

        Raises :class:`ServiceOverloaded` when the waiting queue is full,
        ``KeyError`` on a duplicate ``request_id``, ``ValueError`` for bad
        parameters.  The solve itself is awaited via :meth:`result`.
        """
        if not self._started or self._closed:
            raise RuntimeError("service is not running")
        if request_id in self._handles:
            raise KeyError(f"duplicate request_id {request_id!r}")
        config = _config_from_params(params if params is not None else SolveParams())
        return self._admit(request_id, instance, config, client_id)

    async def submit_resume(
        self,
        request_id: str,
        snapshot_path: Union[str, Path],
        client_id: str = "anonymous",
    ) -> int:
        """Admit a solve that continues from a snapshot file on this host.

        The snapshot (written by an earlier checkpointing session or a
        ``repro solve --checkpoint`` run) is self-describing: the instance
        and the engine configuration are rebuilt from its header, and the
        session resumes the saved frontier instead of starting over.
        Raises :class:`~repro.bb.snapshot.SnapshotError` subclasses for
        corrupt/unsupported files — the server maps them onto ``error``
        replies.
        """
        if not self._started or self._closed:
            raise RuntimeError("service is not running")
        if request_id in self._handles:
            raise KeyError(f"duplicate request_id {request_id!r}")
        snapshot = load_snapshot(snapshot_path)
        engine = snapshot.engine
        max_frontier = engine.get("max_frontier_nodes")
        config = SessionConfig(
            selection=str(engine.get("selection", "best-first")),
            max_frontier_nodes=int(max_frontier) if max_frontier is not None else None,
            resume_from=str(snapshot_path),
        )
        return self._admit(request_id, snapshot.instance, config, client_id)

    def _admit(
        self,
        request_id: str,
        instance: FlowShopInstance,
        config: SessionConfig,
        client_id: str,
    ) -> int:
        session_id = next(self._session_ids)
        if self.checkpoint_dir is not None and config.checkpoint_path is None:
            config = dataclasses.replace(
                config,
                checkpoint_path=str(self.checkpoint_dir / f"session-{session_id}.rpbb"),
                checkpoint_every=self.checkpoint_every,
            )
        session = self._build_session(session_id, instance, config, request_id)
        handle = SessionHandle(
            session_id=session_id,
            session=session,
            client_id=client_id,
            result=asyncio.get_running_loop().create_future(),
        )
        try:
            self._scheduler.push(client_id, (request_id, handle))
        except SchedulerFull as exc:
            raise ServiceOverloaded(exc.queued, exc.limit) from None
        self._handles[request_id] = handle
        self._request_by_session[session_id] = request_id
        self._pump()
        return session_id

    def _build_session(
        self,
        session_id: int,
        instance: FlowShopInstance,
        config: SessionConfig,
        request_id: str,
    ) -> SolveSession:
        fault_hook = (
            self.session_fault_hook(session_id)
            if self.session_fault_hook is not None
            else None
        )
        return SolveSession(
            session_id,
            instance,
            self._instance_cache.get(instance),
            self.dispatcher,
            config,
            on_event=lambda kind, payload: self._emit(request_id, kind, payload),
            fault_hook=fault_hook,
        )

    # ------------------------------------------------------------------ #
    #  events
    # ------------------------------------------------------------------ #
    def _emit(self, request_id: str, kind: str, payload: dict) -> None:
        """Forward one observability event (may run on any thread)."""
        callback = self.on_event
        if callback is not None:
            callback(request_id, kind, payload)

    def _on_degraded(self, token: object, reason: str) -> None:
        """Dispatcher callback: map the degraded session token to its request."""
        session_id = getattr(token, "session_id", None)
        request_id = self._request_by_session.get(session_id)
        if request_id is not None:
            self._emit(
                request_id, "degraded", {"session_id": session_id, "reason": reason}
            )

    async def result(self, request_id: str) -> SessionResult:
        """Await the terminal :class:`SessionResult` of ``request_id``."""
        handle = self._handles.get(request_id)
        if handle is None:
            raise KeyError(f"unknown request_id {request_id!r}")
        return await asyncio.shield(handle.result)

    async def solve(
        self,
        request_id: str,
        instance: FlowShopInstance,
        params: SolveParams | None = None,
        client_id: str = "anonymous",
    ) -> SessionResult:
        """Convenience: :meth:`submit` then :meth:`result` in one await."""
        await self.submit(request_id, instance, params, client_id=client_id)
        return await self.result(request_id)

    async def cancel(self, request_id: str) -> bool:
        """Cancel ``request_id``; returns whether it was already running.

        A queued session stays queued but terminates at its first selection
        step when its turn comes, so its ``result`` (flagged cancelled)
        still resolves through the ordinary path.  Raises ``KeyError`` for
        unknown ids.
        """
        handle = self._handles.get(request_id)
        if handle is None:
            raise KeyError(f"unknown request_id {request_id!r}")
        was_running = handle.running and not handle.done
        handle.session.cancel()
        return was_running

    def stats(self) -> dict[str, object]:
        """Gauges + dispatcher statistics (the ``status_reply`` payload)."""
        return {
            "active_sessions": self._active,
            "queued_sessions": len(self._scheduler),
            "completed_sessions": self._completed,
            "session_restarts": self._restarts,
            "dispatcher": self.dispatch_stats.as_dict(),
        }

    @property
    def dispatch_stats(self) -> DispatchStats:
        """The shared dispatcher's coalescing statistics."""
        return self.dispatcher.stats

    # ------------------------------------------------------------------ #
    #  session pump (admission → worker threads)
    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        """Hand queued sessions to worker threads while slots are free."""
        while self._active < self.max_active_sessions:
            entry = self._scheduler.pop()
            if entry is None:
                return
            request_id, handle = entry
            self._active += 1
            handle.running = True
            # count the session into the all-parked gauge NOW, before its
            # thread spins up — peers that park meanwhile will wait for it
            self.dispatcher.session_started()
            asyncio.get_running_loop().create_task(self._run_session(request_id, handle))

    async def _run_session(self, request_id: str, handle: SessionHandle) -> None:
        """Run one session on a pool thread and settle its result future.

        Crash recovery: when the session's worker thread dies with an
        exception (an injected fault, a kernel failure, a bug), the
        session is rebuilt — resuming from its last snapshot when it wrote
        one, from scratch otherwise — and re-run under the bounded
        retry/backoff budget.  Only past the budget (or after an explicit
        cancel / service shutdown) does the failure reach the result
        future.
        """
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    result = await loop.run_in_executor(
                        self._executor, lambda: handle.session.run(registered=True)
                    )
                except asyncio.CancelledError:
                    raise
                # repro-lint: ignore[bare-except] -- recovery site: a dead
                # session thread is restarted from its last snapshot
                except Exception as exc:
                    if (
                        handle.restarts >= self.max_session_restarts
                        or self._closed
                        or handle.session.cancel_requested
                    ):
                        if not handle.result.done():
                            handle.result.set_exception(exc)
                        return
                    handle.restarts += 1
                    self._restarts += 1
                    resume_from = handle.session.last_checkpoint_path
                    logger.warning(
                        "session %d died (%s); restart %d/%d from %s",
                        handle.session_id,
                        exc,
                        handle.restarts,
                        self.max_session_restarts,
                        resume_from if resume_from is not None else "scratch",
                    )
                    self._emit(
                        request_id,
                        "restart",
                        {
                            "session_id": handle.session_id,
                            "attempt": handle.restarts,
                            "error": str(exc),
                            "resume_from": str(resume_from) if resume_from else None,
                        },
                    )
                    await asyncio.sleep(self.restart_backoff_s * handle.restarts)
                    dead = handle.session
                    config = dead.config
                    if resume_from is not None:
                        config = dataclasses.replace(
                            config, resume_from=str(resume_from)
                        )
                    handle.session = self._build_session(
                        handle.session_id,
                        dead.instance,
                        config,
                        request_id,
                    )
                    if dead.cancel_requested:
                        # a cancel that raced the backoff sleep carries over
                        handle.session.cancel()
                    # the dead incarnation released the all-parked gauge in
                    # run()'s finally; the replacement re-registers
                    self.dispatcher.session_started()
                    continue
                else:
                    if not handle.result.done():
                        handle.result.set_result(result)
                    return
        finally:
            handle.done = True
            self._active -= 1
            self._completed += 1
            self._pump()
