"""Asynchronous offload: the two-slot host-thread pipeline of the driver.

The paper's GPU architecture hides offload latency by double buffering:
the host prepares pool N+1 while the device bounds pool N.  Until this
module existed the repo only *modeled* that overlap (the driver's
``double_buffer`` simulated-time credit); here the overlap is real.  A
:class:`SlotWorker` owns one dedicated worker thread fed through a
bounded hand-off queue of depth 1 — two slots total: the launch the
worker is executing plus at most one more parked in the queue.  A third
``submit`` blocks the caller, which is exactly the back-pressure a
two-slot pipeline wants (the driver can run at most one batch ahead).

:class:`AsyncOffload` adapts any :class:`~repro.bb.driver.OffloadBackend`
to that worker: ``bound_block`` becomes ``submit_block`` returning an
:class:`OffloadTicket` join handle.  :class:`InlineOffload` is the
synchronous slot behind the same interface: its ticket runs the backend
call on the driver thread when joined, so ``overlap="sync"`` and
``overlap="async"`` share one batch loop.  The driver joins tickets **in
submission order**, so eliminations apply in the same order in both
modes and the explored tree stays bit-identical (pinned by
``tests/test_driver.py`` and the sync/async property tests in
``tests/test_overlap.py``).

The wall-clock win is real on the host backend because the fused kernel
v2 path spends its time inside BLAS GEMM calls with the GIL released;
the worker bounds while the driver thread selects and branches.

Thread-safety contract (enforced by ``tools/repro_lint``'s guarded-by
rule): counters shared between the submitting thread and the worker are
annotated ``guarded-by: _lock``; ticket payload fields are written by
the worker and read by the joiner strictly across the ticket's ``Event``
(annotated ``confined-to:`` the writer/reader pair), which provides the
happens-before edge.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Optional

from repro.bb.frontier import NodeBlock

__all__ = ["OffloadTicket", "SlotWorker", "AsyncOffload", "InlineOffload"]

#: sentinel shutting the worker thread down (queue item, never a launch)
_STOP = object()


class OffloadTicket:
    """Join handle of one in-flight launch.

    The worker fills in the payload and then sets the event; the joining
    thread waits on the event and then reads the payload.  ``Event.set``
    / ``Event.wait`` give the happens-before edge, so the payload fields
    need no lock of their own.
    """

    __slots__ = ("_done", "_value", "_error", "worker_wall_s")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value: Any = None  # confined-to: _finish, result
        self._error: Optional[BaseException] = None  # confined-to: _finish, result
        #: wall seconds the worker spent inside the backend call (valid
        #: once :meth:`result` has returned)
        self.worker_wall_s: float = 0.0  # confined-to: _finish, result

    def _finish(
        self, value: Any, error: Optional[BaseException], worker_wall_s: float
    ) -> None:
        """Worker side: publish the outcome, then release joiners."""
        self._value = value
        self._error = error
        self.worker_wall_s = worker_wall_s
        self._done.set()

    @property
    def done(self) -> bool:
        """True once the launch has finished (success or error)."""
        return self._done.is_set()

    def result(self) -> Any:
        """Block until the launch finishes; return its value or re-raise."""
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._value


class SlotWorker:
    """A single worker thread behind a bounded queue of depth 1.

    Two slots: one launch executing on the worker plus one parked in the
    queue.  ``submit`` of a third launch blocks until the worker frees a
    slot.  ``idle`` is True only when every submitted launch has been
    joined-fetchable *and* accounted — the driver asserts it before
    taking a checkpoint so snapshots can never race an in-flight launch.
    """

    def __init__(self, name: str = "bound-offload"):
        self._queue: queue.Queue = queue.Queue(maxsize=1)
        self._lock = threading.Lock()
        self._inflight = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def submit(self, fn: Callable[[], Any]) -> OffloadTicket:
        """Queue ``fn`` for the worker; blocks while both slots are busy."""
        with self._lock:
            if self._closed:
                raise RuntimeError("SlotWorker is closed")
            self._inflight += 1
        ticket = OffloadTicket()
        self._queue.put((fn, ticket))
        return ticket

    def _run(self) -> None:
        while True:  # repro-lint: ignore[single-loop] -- worker drain loop, not a solve loop
            item = self._queue.get()
            if item is _STOP:
                return
            fn, ticket = item
            t0 = time.perf_counter()
            try:
                value, error = fn(), None
            except BaseException as exc:  # noqa: BLE001 - re-raised at join
                value, error = None, exc
            wall = time.perf_counter() - t0
            with self._lock:
                self._inflight -= 1
            # decrement precedes _finish: once result() returns, idle is
            # already observable as True when nothing else was submitted
            ticket._finish(value, error, wall)

    @property
    def idle(self) -> bool:
        """True when no launch is queued, executing, or unaccounted."""
        with self._lock:
            return self._inflight == 0

    def close(self) -> None:
        """Stop accepting launches, drain the queue, join the thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # The put may wait for the worker to free a slot; the worker never
        # blocks on anything but the queue, so this always completes.
        self._queue.put(_STOP)
        self._thread.join()

    def __enter__(self) -> "SlotWorker":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AsyncOffload:
    """Run any ``OffloadBackend`` call on a dedicated slot worker.

    The wrapper does **not** implement the backend protocol itself: its
    submit methods return :class:`OffloadTicket` handles instead of
    results, making the asynchrony explicit at the call site.  The driver
    keeps determinism by joining tickets in submission order.
    """

    def __init__(self, backend: Any, name: str = "bound-offload"):
        self.backend = backend
        self._worker = SlotWorker(name=name)

    def submit_block(self, block: NodeBlock, siblings: bool = False) -> OffloadTicket:
        """Asynchronous ``backend.bound_block(block, siblings=...)``."""
        return self._worker.submit(
            lambda: self.backend.bound_block(block, siblings=siblings)
        )

    @property
    def idle(self) -> bool:
        """True when no launch is in flight (checkpoint-safety predicate)."""
        return self._worker.idle

    def close(self) -> None:
        self._worker.close()

    def __enter__(self) -> "AsyncOffload":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class _InlineTicket:
    """Join handle of an inline launch: the backend call runs in :meth:`result`."""

    __slots__ = ("_call",)

    #: no worker thread: an inline launch hides no wall time
    worker_wall_s = 0.0

    def __init__(self, call: Callable[[], Any]):
        self._call = call

    def result(self) -> Any:
        """Run the launch on the joining thread and return its value."""
        return self._call()


class InlineOffload:
    """The synchronous slot: :class:`AsyncOffload`'s interface, no thread.

    ``submit_block`` only records the launch; the returned ticket calls
    ``backend.bound_block`` on the driver thread when it is joined, which
    is exactly where a plain synchronous iteration bounds.
    """

    #: nothing runs off the driver thread, so a checkpoint cannot race
    idle = True

    def __init__(self, backend: Any):
        self.backend = backend

    def submit_block(self, block: NodeBlock, siblings: bool = False) -> _InlineTicket:
        """Deferred ``backend.bound_block(block, siblings=...)``."""
        return _InlineTicket(lambda: self.backend.bound_block(block, siblings=siblings))

    def close(self) -> None:
        """Nothing to release: there is no worker thread."""
