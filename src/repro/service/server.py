"""JSON-lines TCP front of the solve service (the ``repro serve`` entry).

:class:`SolveServer` binds an asyncio TCP listener and adapts the wire
protocol (:mod:`repro.service.protocol`) onto one shared
:class:`~repro.service.service.SolveService`.  Per connection it reads one
JSON object per line, dispatches by message type, and writes replies back
as JSON lines — replies of concurrent requests interleave freely, matched
to their request by the echoed ``request_id`` (the client's job to
demultiplex; :class:`~repro.service.client.ServiceClient` does).

Error containment: a malformed line — invalid JSON, not UTF-8, or longer
than :data:`LINE_LIMIT` bytes — answers with an ``error`` reply and the
connection stays up; only EOF or a transport error ends a connection.
``request_id`` namespacing is per-connection (two connections may both use
``"req-1"``) — the server prefixes ids internally before they reach the
shared service.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Callable, Optional

from repro.bb.snapshot import SnapshotError
from repro.service import protocol
from repro.service.protocol import (
    AcceptedReply,
    CancelledReply,
    CancelRequest,
    CheckpointReply,
    DegradedReply,
    ErrorReply,
    OverloadedReply,
    ProtocolError,
    ResultReply,
    ResumeRequest,
    SolveRequest,
    StatusReply,
    StatusRequest,
)
from repro.service.service import ServiceOverloaded, SolveService

__all__ = ["SolveServer", "LINE_LIMIT"]

#: Longest request line the server reads, in bytes (asyncio's stream default).
LINE_LIMIT = 2**16


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Drop an over-limit line through its newline, one buffer at a time.

    ``readuntil`` leaves an over-limit line in the buffer and reports how
    much of it to consume (up to the newline when it is buffered already).
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)


class SolveServer:
    """Serve :class:`SolveService` over newline-delimited JSON on TCP.

    Parameters
    ----------
    service:
        The (started) service instance requests are forwarded to.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start` — how the tests run hermetically).
    """

    def __init__(self, service: SolveService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_ids = itertools.count(1)
        # scoped request id -> (connection send, connection-local request id);
        # lets service events (checkpoint/degraded) flow back to their client.
        self._event_routes: dict[str, tuple[Callable, str]] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._prior_on_event: Optional[Callable[[str, str, dict], None]] = None

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listener and begin accepting connections."""
        if self._server is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._prior_on_event = self.service.on_event
        self.service.on_event = self._forward_event
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port, limit=LINE_LIMIT
        )

    async def close(self) -> None:
        """Stop accepting and close the listener (service stays up)."""
        if self._server is None:
            return
        self.service.on_event = self._prior_on_event
        self._prior_on_event = None
        self._loop = None
        self._event_routes.clear()
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "SolveServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled (the CLI's main loop)."""
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection's read loop; replies share one write lock."""
        conn = next(self._conn_ids)
        write_lock = asyncio.Lock()

        async def send(message) -> None:
            async with write_lock:
                writer.write(protocol.encode(message).encode() + b"\n")
                await writer.drain()

        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    raw = exc.partial  # EOF: the unterminated tail, or b""
                except asyncio.LimitOverrunError:
                    await _discard_line(reader)
                    await send(
                        ErrorReply(
                            request_id="?",
                            message=f"request line longer than {LINE_LIMIT} bytes",
                        )
                    )
                    continue
                if not raw:
                    break
                try:
                    line = raw.decode().strip()
                except UnicodeDecodeError as exc:
                    await send(ErrorReply(request_id="?", message=f"request line: {exc}"))
                    continue
                if not line:
                    continue
                try:
                    message = protocol.decode(line)
                except ProtocolError as exc:
                    await send(ErrorReply(request_id="?", message=str(exc)))
                    continue
                if isinstance(message, SolveRequest):
                    await self._handle_solve(conn, message, send)
                elif isinstance(message, ResumeRequest):
                    await self._handle_resume(conn, message, send)
                elif isinstance(message, CancelRequest):
                    await self._handle_cancel(conn, message, send)
                elif isinstance(message, StatusRequest):
                    await self._handle_status(message, send)
                else:
                    await send(
                        ErrorReply(
                            request_id=getattr(message, "request_id", "?"),
                            message=f"unexpected message type {message.type!r}",
                        )
                    )
        except (ConnectionError, asyncio.IncompleteReadError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _scoped(self, conn: int, request_id: str) -> str:
        """Namespace a connection-local request id for the shared service."""
        return f"c{conn}:{request_id}"

    async def _handle_solve(self, conn: int, request: SolveRequest, send) -> None:
        """Admit a solve; follow up with its ``result`` when the session ends."""
        scoped = self._scoped(conn, request.request_id)
        # route events before admission: a fast session may checkpoint
        # between submit() returning and the accepted reply going out
        self._event_routes[scoped] = (send, request.request_id)
        try:
            instance = request.instance.to_instance()
            session_id = await self.service.submit(
                scoped,
                instance,
                request.params,
                client_id=request.client_id,
            )
        except ServiceOverloaded as exc:
            self._event_routes.pop(scoped, None)
            await send(
                OverloadedReply(
                    request_id=request.request_id, queued=exc.queued, limit=exc.limit
                )
            )
            return
        except (ProtocolError, ValueError, KeyError) as exc:
            self._event_routes.pop(scoped, None)
            await send(ErrorReply(request_id=request.request_id, message=str(exc)))
            return
        await send(AcceptedReply(request_id=request.request_id, session_id=session_id))
        self._spawn_result_delivery(scoped, request.request_id, send)

    async def _handle_resume(self, conn: int, request: ResumeRequest, send) -> None:
        """Admit a solve resumed from a snapshot file on the server's host."""
        scoped = self._scoped(conn, request.request_id)
        self._event_routes[scoped] = (send, request.request_id)
        try:
            session_id = await self.service.submit_resume(
                scoped, request.snapshot_path, client_id=request.client_id
            )
        except ServiceOverloaded as exc:
            self._event_routes.pop(scoped, None)
            await send(
                OverloadedReply(
                    request_id=request.request_id, queued=exc.queued, limit=exc.limit
                )
            )
            return
        except (SnapshotError, ProtocolError, ValueError, KeyError, OSError) as exc:
            self._event_routes.pop(scoped, None)
            await send(ErrorReply(request_id=request.request_id, message=str(exc)))
            return
        await send(AcceptedReply(request_id=request.request_id, session_id=session_id))
        self._spawn_result_delivery(scoped, request.request_id, send)

    def _spawn_result_delivery(self, scoped: str, request_id: str, send) -> None:
        """Follow up with the request's ``result`` when its session ends."""

        async def deliver_result() -> None:
            try:
                try:
                    result = await self.service.result(scoped)
                except Exception as exc:
                    await send(ErrorReply(request_id=request_id, message=str(exc)))
                    return
                await send(
                    ResultReply(
                        request_id=request_id,
                        session_id=result.session_id,
                        makespan=result.makespan,
                        order=list(result.order),
                        proved_optimal=result.proved_optimal,
                        cancelled=result.cancelled,
                        stats=result.stats_dict(),
                    )
                )
            finally:
                self._event_routes.pop(scoped, None)

        asyncio.get_running_loop().create_task(deliver_result())

    # ------------------------------------------------------------------ #
    #  event forwarding (checkpoint / degraded frames)
    # ------------------------------------------------------------------ #
    def _forward_event(self, request_id: str, kind: str, payload: dict) -> None:
        """Service observability callback — may fire on any worker thread.

        Maps the scoped request id back to the owning connection and posts
        a ``checkpoint``/``degraded`` frame onto the loop thread.  Other
        event kinds (``restart``) stay server-side.
        """
        prior = self._prior_on_event
        if prior is not None:
            prior(request_id, kind, payload)
        loop = self._loop
        route = self._event_routes.get(request_id)
        if loop is None or route is None:
            return
        send, local_id = route
        if kind == "checkpoint":
            message: object = CheckpointReply(
                request_id=local_id,
                session_id=int(payload.get("session_id", 0)),
                sequence=int(payload.get("sequence", 0)),
                path=str(payload.get("path", "")),
                steps=int(payload.get("steps", 0)),
            )
        elif kind == "degraded":
            message = DegradedReply(
                request_id=local_id,
                session_id=int(payload.get("session_id", 0)),
                reason=str(payload.get("reason", "")),
            )
        else:
            return
        try:
            loop.call_soon_threadsafe(self._post_event, send, message)
        except RuntimeError:  # loop already closed; event is best-effort
            return

    def _post_event(self, send, message) -> None:
        """Loop-thread trampoline: send one event frame, tolerate EOF."""

        async def send_safely() -> None:
            try:
                await send(message)
            except (ConnectionError, OSError):  # client went away mid-event
                pass

        asyncio.get_running_loop().create_task(send_safely())

    async def _handle_cancel(self, conn: int, request: CancelRequest, send) -> None:
        """Acknowledge a cancel; the session's ``result`` still follows."""
        try:
            was_running = await self.service.cancel(self._scoped(conn, request.request_id))
        except KeyError as exc:
            await send(ErrorReply(request_id=request.request_id, message=str(exc)))
            return
        await send(CancelledReply(request_id=request.request_id, was_running=was_running))

    async def _handle_status(self, request: StatusRequest, send) -> None:
        """Answer with the service's gauges and dispatcher statistics."""
        snapshot = self.service.stats()
        await send(
            StatusReply(
                request_id=request.request_id,
                active_sessions=snapshot["active_sessions"],
                queued_sessions=snapshot["queued_sessions"],
                completed_sessions=snapshot["completed_sessions"],
                dispatcher=snapshot["dispatcher"],
            )
        )
