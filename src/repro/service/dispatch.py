"""Cross-session batched bounding: the dispatcher and its offload backend.

The paper's central lever is amortizing per-launch overhead by pooling many
B&B nodes into one bounding launch.  The service applies the same lever one
level up: *concurrent solve sessions* each produce small bounding batches
(the single-step driver shape bounds one sibling set per pop), and the
:class:`BatchDispatcher` coalesces the batches that are pending **across
sessions** into single fused kernel launches.

The mechanism is a rendezvous between N session threads and one dispatcher
thread:

* Every session runs its (synchronous) :class:`~repro.bb.driver.SearchDriver`
  loop in a worker thread, configured with a :class:`BatchingOffload` as its
  bounding backend.  The offload's ``bound_block`` does not evaluate
  anything — it submits the block to the dispatcher and **parks on a
  future** until the dispatcher flushes.
* The dispatcher thread collects pending requests and flushes them as ONE
  fused launch per *instance group* when its :class:`FlushPolicy` fires:

  - ``all-parked`` — every registered running session has a request parked,
    so nothing more can arrive until somebody is released: flush now.  This
    is also why a **lone session adds no latency** over a serial solve —
    its every request satisfies the condition immediately.
  - ``max-batch`` — the pending rows reached ``max_batch_nodes``.
  - ``timeout`` — the oldest pending request waited ``max_wait_s`` (bounds
    the latency a straggler session can impose on its peers).

Bit-exactness: a fused launch concatenates the blocks' ``(scheduled_mask,
release, jobs)`` arrays and evaluates them with the same batched kernel
(v2) a stand-alone solve would use.  Every kernel path in this repository
returns bit-identical bounds for a given row regardless of the surrounding batch
(the PR 1/PR 3 invariant), so coalescing changes *how many launches* are
issued — never a single bound value, and therefore never a session's
explored tree, result or counters (pinned by ``tests/test_service.py``
against the sequential-engine golden configs).

Launch accounting: requests for different instances cannot share a kernel
evaluation (the bound's precomputed tensors are per-instance), so a flush
issues one launch per distinct instance and :class:`DispatchStats` counts
honestly: ``n_launches`` is the number of kernel invocations,
``n_requests`` the number of ``bound_block`` calls they replaced.  ``benchmarks/bench_service.py`` asserts the ≥2x
launch-count reduction for 8 concurrent sessions.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.flowshop.bounds import LowerBoundData, get_batch_kernel

logger = logging.getLogger(__name__)

__all__ = [
    "SessionCancelled",
    "FlushPolicy",
    "DispatchStats",
    "BatchDispatcher",
    "BatchingOffload",
]


class SessionCancelled(Exception):
    """Raised inside a session's driver thread to unwind a cancelled solve.

    Set as the exception of a parked request's future (cancellation
    mid-batch) or raised by the session's own ``on_select`` hook; the
    session's ``run`` catches it and reports a cancelled result.
    """


@dataclass(frozen=True)
class FlushPolicy:
    """When the dispatcher turns pending requests into a fused launch.

    ``max_wait_s`` bounds how long the oldest parked session may wait for
    peers to join the batch; ``max_batch_nodes`` bounds the fused pool size
    (mirroring the paper's pool-size knob — past the cache-friendly size,
    bigger launches stop paying).  The ``all-parked`` condition is not
    configurable: flushing when every running session is parked is always
    right, because no further request can arrive until one is released.
    """

    max_wait_s: float = 0.005
    max_batch_nodes: int = 65536

    def __post_init__(self) -> None:
        if self.max_wait_s <= 0:
            raise ValueError("max_wait_s must be positive")
        if self.max_batch_nodes < 1:
            raise ValueError("max_batch_nodes must be >= 1")


@dataclass
class DispatchStats:
    """Coalescing statistics of one dispatcher (cumulative).

    ``n_requests``/``n_rows`` count the ``bound_block`` calls (and their
    nodes) that went through the dispatcher; ``n_launches`` counts the
    kernel invocations actually issued — the launch-amortization win is
    ``n_requests / n_launches``.  ``n_flushes`` counts flush cycles (one
    flush issues one launch per instance group); ``flush_reasons`` breaks
    them down by trigger; ``max_requests_coalesced`` is the largest number
    of requests ever fused into a single launch.
    """

    n_requests: int = 0
    n_rows: int = 0
    n_launches: int = 0
    n_flushes: int = 0
    n_cancelled: int = 0
    #: failed fused launches retried before giving up on the batch
    n_retries: int = 0
    #: sessions that fell back to local (uncoalesced) bounding after a
    #: fused launch exhausted its retries — correctness preserved
    n_degraded: int = 0
    max_requests_coalesced: int = 1
    max_rows_coalesced: int = 0
    flush_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def requests_per_launch(self) -> float:
        """Average number of ``bound_block`` calls amortized per launch."""
        if self.n_launches == 0:
            return 0.0
        return self.n_requests / self.n_launches

    def as_dict(self) -> dict[str, object]:
        """Plain dictionary (for status replies, reports and JSON dumps)."""
        return {
            "n_requests": self.n_requests,
            "n_rows": self.n_rows,
            "n_launches": self.n_launches,
            "n_flushes": self.n_flushes,
            "n_cancelled": self.n_cancelled,
            "n_retries": self.n_retries,
            "n_degraded": self.n_degraded,
            "requests_per_launch": self.requests_per_launch,
            "max_requests_coalesced": self.max_requests_coalesced,
            "max_rows_coalesced": self.max_rows_coalesced,
            "flush_reasons": dict(self.flush_reasons),
        }


@dataclass
class _Pending:
    """One parked ``bound_block`` call waiting for the next flush."""

    token: object
    group_key: int
    data: LowerBoundData
    block: object  # NodeBlock (duck-typed: scheduled_mask/release/lower_bound)
    future: Future
    submitted_at: float


class BatchDispatcher:
    """Coalesces pending bounding batches across sessions into fused launches.

    Parameters
    ----------
    policy:
        The :class:`FlushPolicy` (max-wait / max-batch thresholds).
    autostart:
        Start the background dispatcher thread immediately (default).
        Tests pass ``False`` and drive :meth:`flush_now` by hand to pin
        flush-policy edge cases deterministically.
    launch_timeout_s:
        Per-launch watchdog: when set, a fused kernel launch that has not
        returned after this many seconds counts as failed (the straggler
        finishes on a daemon thread; ``Future.done()`` guards make its
        late write-back a no-op).  ``None`` (default) disables the watchdog.
    max_launch_retries:
        How many times a failed fused launch is retried (same members, new
        launch) before the members' futures carry the failure and their
        sessions degrade to local bounding.  Retries are counted in
        ``DispatchStats.n_retries``.
    launch_hook:
        Called with the 1-based launch index immediately before every fused
        kernel launch (retries included).  An exception raised here fails
        the launch — this is the deterministic fault-injection seam used by
        :mod:`repro.testing.faults`.
    on_degraded:
        Called as ``on_degraded(token, reason)`` when a session falls back
        to local bounding (see :meth:`note_degraded`).

    Thread contract: :meth:`submit` is called from session worker threads
    and blocks nobody (the *caller* then parks on the returned future).
    Fused launches run on the pump thread, or on the caller of
    :meth:`flush_now`.  One instance's shared
    :class:`~repro.flowshop.bounds.LowerBoundData` *is* bounded from
    several threads at once: :meth:`flush_now` may run beside the pump, a
    watchdog straggler keeps running beside its retry, and a degraded
    session bounds locally on its own thread while the pump launches for
    its peers.  That is safe because the kernels keep their scratch
    buffers per thread and only read the shared data.
    :meth:`session_started` / :meth:`session_finished` maintain the
    running-session gauge the ``all-parked`` condition compares against.
    """

    def __init__(
        self,
        policy: FlushPolicy | None = None,
        autostart: bool = True,
        launch_timeout_s: float | None = None,
        max_launch_retries: int = 1,
        launch_hook: Optional[Callable[[int], None]] = None,
        on_degraded: Optional[Callable[[object, str], None]] = None,
    ):
        self.policy = policy if policy is not None else FlushPolicy()
        if launch_timeout_s is not None and launch_timeout_s <= 0:
            raise ValueError("launch_timeout_s must be positive when given")
        if max_launch_retries < 0:
            raise ValueError("max_launch_retries must be >= 0")
        self.launch_timeout_s = launch_timeout_s
        self.max_launch_retries = max_launch_retries
        self.launch_hook = launch_hook
        self.on_degraded = on_degraded
        self.stats = DispatchStats()
        #: True when :meth:`close` gave up waiting for the flush thread
        self.close_join_timed_out = False
        self._launch_counter = itertools.count(1)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        # _wakeup wraps _lock, so holding either means holding the same lock.
        self._pending: list[_Pending] = []  # guarded-by: _lock, _wakeup
        self._active_sessions = 0  # guarded-by: _lock, _wakeup
        self._closed = False  # guarded-by: _lock, _wakeup
        self._thread: threading.Thread | None = None  # guarded-by: _lock, _wakeup
        self._degraded_tokens: dict[int, str] = {}  # guarded-by: _lock, _wakeup
        if autostart:
            self.start()

    # ------------------------------------------------------------------ #
    #  lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the background flush thread (idempotent)."""
        with self._lock:
            if self._thread is not None or self._closed:
                return
            self._thread = threading.Thread(
                target=self._run, name="bound-dispatcher", daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        """Stop the dispatcher; parked futures fail with :class:`SessionCancelled`.

        Every parked request is cancelled (via :meth:`cancel_pending`, the
        same path a per-session cancel takes) *before* the thread join, so
        no session can wait forever on a dispatcher that is shutting down.
        If the flush thread does not exit within 5 s the leak is logged and
        surfaced on :attr:`close_join_timed_out` instead of being silent.
        """
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._thread = None
            self._wakeup.notify_all()
        # fail all parked futures first — one cancel_pending call per
        # distinct parked session token
        while True:
            with self._lock:
                if not self._pending:
                    break
                token = self._pending[0].token
            self.cancel_pending(token)
        # Join OUTSIDE the lock: the flush thread must acquire _wakeup to
        # observe _closed and exit, so joining it while holding the lock
        # would deadlock the shutdown.
        if thread is not None:
            thread.join(timeout=5.0)
            if thread.is_alive():
                self.close_join_timed_out = True
                logger.warning(
                    "dispatcher flush thread still alive 5s after close(); "
                    "a bounding launch is stuck — leaking the daemon thread"
                )

    def __enter__(self) -> "BatchDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    #  session gauge (the ``all-parked`` denominator)
    # ------------------------------------------------------------------ #
    def session_started(self) -> None:
        """Count one more running session (called before its thread starts)."""
        with self._wakeup:
            self._active_sessions += 1

    def session_finished(self) -> None:
        """A running session ended; re-evaluate the ``all-parked`` condition."""
        with self._wakeup:
            self._active_sessions = max(0, self._active_sessions - 1)
            self._wakeup.notify_all()

    @property
    def active_sessions(self) -> int:
        """Number of sessions currently registered as running."""
        with self._lock:
            return self._active_sessions

    @property
    def pending_requests(self) -> int:
        """Number of requests currently parked (at most one per session)."""
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------ #
    #  the session-facing half
    # ------------------------------------------------------------------ #
    def submit(
        self,
        token: object,
        data: LowerBoundData,
        block,
    ) -> Future:
        """Park one bounding batch; returns the future the caller waits on.

        ``token`` identifies the submitting session (used by
        :meth:`cancel_pending`); ``data`` is the instance's shared
        :class:`LowerBoundData` — its identity is the grouping key, so
        sessions that should coalesce must share one ``data`` object (the
        service guarantees this via its instance cache).  The future
        resolves to ``(bounds, simulated_s, measured_s)`` — the
        ``bound_block`` offload contract.
        """
        future: Future = Future()
        request = _Pending(
            token=token,
            group_key=id(data),
            data=data,
            block=block,
            future=future,
            submitted_at=time.monotonic(),
        )
        with self._wakeup:
            if self._closed:
                raise RuntimeError("dispatcher is closed")
            self._pending.append(request)
            self._wakeup.notify_all()
        return future

    def cancel_pending(self, token: object) -> int:
        """Fail this session's parked request(s) with :class:`SessionCancelled`.

        Cancellation mid-batch: the request is removed from the pending set
        (the next flush simply fuses the survivors) and the parked session
        thread unwinds through its ``bound_block`` call.  Returns the
        number of requests cancelled (0 or 1 in practice — a session parks
        at most one request at a time).
        """
        with self._wakeup:
            mine = [request for request in self._pending if request.token is token]
            if not mine:
                return 0
            self._pending = [request for request in self._pending if request.token is not token]
            self.stats.n_cancelled += len(mine)
            self._wakeup.notify_all()
        for request in mine:
            request.future.set_exception(SessionCancelled("session cancelled while parked"))
        return len(mine)

    # ------------------------------------------------------------------ #
    #  the flush half
    # ------------------------------------------------------------------ #
    def _flush_reason(self, now: float) -> str | None:  # repro-lint: ignore[guarded-by] -- caller holds the lock (only called from _run's with-self._wakeup block)
        """The policy trigger that fires right now (caller holds the lock)."""
        if not self._pending:
            return None
        if sum(len(request.block) for request in self._pending) >= self.policy.max_batch_nodes:
            return "max-batch"
        if len(self._pending) >= max(1, self._active_sessions):
            return "all-parked"
        if now - self._pending[0].submitted_at >= self.policy.max_wait_s:
            return "timeout"
        return None

    def flush_now(self, reason: str = "forced") -> int:
        """Flush everything pending immediately; returns the request count.

        The deterministic entry used by tests (and by :meth:`close` via the
        drain) — the background thread uses the same execution path.
        """
        with self._wakeup:
            batch = self._pending
            self._pending = []
        if batch:
            self._execute(batch, reason)
        return len(batch)

    def _run(self) -> None:
        """Background loop: wait for a trigger, then flush outside the lock."""
        while True:
            with self._wakeup:
                while True:
                    if self._closed:
                        return
                    now = time.monotonic()
                    reason = self._flush_reason(now)
                    if reason is not None:
                        batch = self._pending
                        self._pending = []
                        break
                    if self._pending:
                        # sleep exactly until the oldest request times out
                        timeout = self.policy.max_wait_s - (
                            now - self._pending[0].submitted_at
                        )
                        self._wakeup.wait(timeout=max(timeout, 0.0))
                    else:
                        self._wakeup.wait()
            self._execute(batch, reason)

    def _execute(self, batch: list[_Pending], reason: str) -> None:
        """Fuse one batch of requests into one launch per instance group.

        Rows are concatenated in submission order per group, evaluated with
        the group's batched kernel, and the bound slices written back into
        each request's block — the same in-place contract as
        :func:`repro.bb.frontier.bound_block`.
        """
        stats = self.stats
        stats.n_flushes += 1
        stats.flush_reasons[reason] = stats.flush_reasons.get(reason, 0) + 1

        groups: dict[tuple, list[_Pending]] = {}
        for request in batch:
            groups.setdefault(request.group_key, []).append(request)

        for members in groups.values():
            rows = sum(len(request.block) for request in members)
            stats.n_launches += 1
            stats.n_requests += len(members)
            stats.n_rows += rows
            stats.max_requests_coalesced = max(stats.max_requests_coalesced, len(members))
            stats.max_rows_coalesced = max(stats.max_rows_coalesced, rows)
            self._launch_group(members)

    def _launch_group(self, members: list[_Pending]) -> None:
        """Launch one instance group, retrying failures up to the budget.

        Each retry is a fresh launch over the same members; once the budget
        is exhausted the members' futures carry the failure and their
        sessions fall back to local bounding (see
        :meth:`BatchingOffload.bound_block`).
        """
        attempts = 0
        while True:
            try:
                self._evaluate_with_timeout(members)
                return
            # repro-lint: ignore[bare-except] -- recovery site: a failed fused
            # launch is retried, then degraded to local bounding; never pass
            except Exception as exc:
                attempts += 1
                if attempts <= self.max_launch_retries:
                    with self._lock:
                        self.stats.n_retries += 1
                        self.stats.n_launches += 1
                    logger.warning(
                        "fused bounding launch failed (%s); retry %d/%d",
                        exc,
                        attempts,
                        self.max_launch_retries,
                    )
                    continue
                for request in members:
                    if not request.future.done():
                        request.future.set_exception(exc)
                return

    def _evaluate_with_timeout(self, members: list[_Pending]) -> None:
        """Run one fused launch, optionally under the per-launch watchdog.

        With ``launch_timeout_s`` set, the launch runs on a helper daemon
        thread and :class:`TimeoutError` is raised when it overruns.  The
        straggler keeps bounding the same rows of the same shared
        ``LowerBoundData`` while :meth:`_launch_group` retries them on this
        thread.  Its late write-back is value-identical (same kernel, same
        rows) only because the kernels keep their scratch buffers per
        thread; its future updates are ``done()``-guarded no-ops.
        """
        if self.launch_timeout_s is None:
            self._evaluate_group(members)
            return
        failure: list[BaseException] = []

        def _target() -> None:
            try:
                self._evaluate_group(members)
            # repro-lint: ignore[bare-except] -- recovery site: the launch
            # error crosses back to _launch_group via the failure list
            except Exception as exc:
                failure.append(exc)

        worker = threading.Thread(target=_target, name="bound-launch", daemon=True)
        worker.start()
        worker.join(timeout=self.launch_timeout_s)
        if worker.is_alive():
            raise TimeoutError(
                f"bounding launch exceeded launch_timeout_s={self.launch_timeout_s}"
            )
        if failure:
            raise failure[0]

    def _evaluate_group(self, members: list[_Pending]) -> None:
        """One fused kernel launch over every block of one instance group.

        Future updates are ``done()``-guarded: after a watchdog timeout the
        members may already carry a result/exception, and a straggler
        launch finishing late must not raise ``InvalidStateError``.
        """
        launch_index = next(self._launch_counter)
        hook = self.launch_hook
        if hook is not None:
            hook(launch_index)
        first = members[0]
        kernel = get_batch_kernel("v2")
        started = time.perf_counter()
        if len(members) == 1:
            block = first.block
            bounds = kernel(first.data, block.scheduled_mask, block.release, jobs=block.jobs)
            wall = time.perf_counter() - started
            block.lower_bound[:] = bounds
            if not first.future.done():
                first.future.set_result((block.lower_bound, 0.0, wall))
            return
        mask = np.concatenate([request.block.scheduled_mask for request in members])
        release = np.concatenate([request.block.release for request in members])
        jobs = [request.block.jobs for request in members]
        jobs = None if any(column is None for column in jobs) else np.concatenate(jobs)
        bounds = kernel(first.data, mask, release, jobs=jobs)
        wall = time.perf_counter() - started
        total = mask.shape[0]
        offset = 0
        for request in members:
            block = request.block
            count = len(block)
            block.lower_bound[:] = bounds[offset : offset + count]
            offset += count
            # apportion the measured kernel wall time by row share
            if not request.future.done():
                request.future.set_result(
                    (block.lower_bound, 0.0, wall * (count / total))
                )

    # ------------------------------------------------------------------ #
    #  degradation accounting
    # ------------------------------------------------------------------ #
    def note_degraded(self, token: object, reason: str) -> None:
        """Record that ``token``'s session fell back to local bounding.

        Called by :class:`BatchingOffload` when a request's future carries
        a launch failure; bumps ``DispatchStats.n_degraded``, remembers the
        reason for :meth:`degraded_for` and fires ``on_degraded``.
        """
        with self._lock:
            self.stats.n_degraded += 1
            self._degraded_tokens[id(token)] = reason
        callback = self.on_degraded
        if callback is not None:
            callback(token, reason)

    def degraded_for(self, token: object) -> str | None:
        """The degradation reason recorded for ``token`` (``None`` if none)."""
        with self._lock:
            return self._degraded_tokens.get(id(token))


class BatchingOffload:
    """The async-aware offload backend: ``bound_block`` parks on the dispatcher.

    Implements the driver's offload contract (``bound_block(block,
    siblings) -> (bounds, simulated_s, measured_s)``) by submitting every
    batch to a :class:`BatchDispatcher` and blocking the calling session
    thread on the returned future until the dispatcher flushes.  Semantics
    match :class:`~repro.bb.driver.LocalBounding` exactly:

    * sibling blocks of complete schedules short-circuit locally (their
      makespans were filled in at branch time — no kernel work exists to
      coalesce, and the serial engines issue no launch there either);
    * empty blocks return immediately;
    * all other blocks produce bit-identical bounds via the dispatcher's
      fused launch, written into ``block.lower_bound`` in place.

    **Graceful degradation**: when a parked future carries a launch failure
    (the dispatcher exhausted its retries — see
    ``BatchDispatcher.max_launch_retries``), the offload does not fail the
    solve.  It evaluates the block locally with the same batched kernel a
    stand-alone solve uses (bit-identical bounds) and stays local for the
    rest of the session: correctness is preserved, coalescing is lost.
    The fallback is recorded in ``DispatchStats.n_degraded`` and via the
    dispatcher's ``on_degraded`` callback.  Pass ``allow_degraded=False``
    to propagate launch failures instead (fail-fast).
    """

    def __init__(
        self,
        dispatcher: BatchDispatcher,
        data: LowerBoundData,
        token: object,
        allow_degraded: bool = True,
    ):
        self.dispatcher = dispatcher
        self.data = data
        self.token = token
        self.allow_degraded = allow_degraded
        self._degraded_reason: str | None = None

    @property
    def degraded(self) -> bool:
        """True once this session fell back to local (uncoalesced) bounding."""
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> str | None:
        """Why the session degraded (``None`` while still coalescing)."""
        return self._degraded_reason

    def _bound_locally(self, block):
        """LocalBounding semantics: same batched kernel, no dispatcher."""
        kernel = get_batch_kernel("v2")
        started = time.perf_counter()
        bounds = kernel(self.data, block.scheduled_mask, block.release, jobs=block.jobs)
        wall = time.perf_counter() - started
        block.lower_bound[:] = bounds
        return block.lower_bound, 0.0, wall

    def bound_block(self, block, siblings: bool = False):
        """Bound one block through the dispatcher (parks until the flush).

        Returns the ``(bounds, simulated_s, measured_s)`` triple of the
        offload contract; raises :class:`SessionCancelled` when the session
        was cancelled while parked.
        """
        if len(block) == 0:
            return np.zeros(0, dtype=np.int64), 0.0, 0.0
        if siblings and int(block.depth[0]) == block.n_jobs:
            # complete-schedule siblings: bounds ARE the makespans, set at
            # branch time (mirror of frontier.bound_block's fast path)
            return block.lower_bound, 0.0, 0.0
        if self._degraded_reason is not None:
            return self._bound_locally(block)
        future = self.dispatcher.submit(self.token, self.data, block)
        try:
            return future.result()
        except SessionCancelled:
            raise
        # repro-lint: ignore[bare-except] -- recovery site: launch failure
        # degrades this session to local bounding instead of failing it
        except Exception as exc:
            if not self.allow_degraded:
                raise
            reason = f"{type(exc).__name__}: {exc}"
            self._degraded_reason = reason
            logger.warning(
                "session %r degrading to local bounding: %s", self.token, reason
            )
            self.dispatcher.note_degraded(self.token, reason)
            return self._bound_locally(block)
