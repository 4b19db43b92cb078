"""Wire protocol of the solve service: typed messages over JSON lines.

The service speaks **newline-delimited JSON** ("JSON lines"): every message
is one JSON object on one line, and every object carries a ``"type"`` field
naming its message class.  This module defines the message dataclasses, the
``encode``/``decode`` codec between them and wire lines, and nothing else —
it imports no asyncio and no solver machinery, so clients in other
processes (or other languages) only need this file's *schema*, not the
repository.

Message inventory
-----------------
Client → server:

``solve``
    Submit one instance for solving (:class:`SolveRequest`).  The server
    answers with ``accepted`` (a session was opened), ``overloaded`` (the
    bounded admission queue is full — backpressure, try again later) or
    ``error`` (the request itself was malformed).  When the session ends, a
    ``result`` message with the same ``request_id`` follows.
``cancel``
    Cancel a previously submitted request (:class:`CancelRequest`), whether
    it is still queued or already running.  Answered by ``cancelled`` (or
    ``error`` for unknown ids); the session's ``result`` message still
    arrives, flagged ``cancelled: true``.
``status``
    Ask for service health and dispatcher statistics
    (:class:`StatusRequest` → :class:`StatusReply`).
``resume``
    Continue a checkpointed solve from a snapshot file on the server's
    host (:class:`ResumeRequest`).  The snapshot is self-describing
    (instance + engine config travel in its header), so the request names
    only the path; ``header`` optionally carries the client's view of the
    snapshot header — the server rejects unsupported ``format_version``
    values with ``error`` before touching the file.  Answered like
    ``solve`` (``accepted``/``overloaded``/``error``, then ``result``).

Server → client:

``accepted`` / ``overloaded`` / ``cancelled`` / ``error`` / ``status_reply``
    Control-plane answers, each echoing the ``request_id`` it refers to
    (``status_reply`` echoes the ``status`` request's id).
``result``
    Terminal message of one session (:class:`ResultReply`): makespan,
    permutation, optimality proof, cancellation flag and the solve
    counters.
``checkpoint``
    Progress event of a checkpointing session (:class:`CheckpointReply`):
    the session wrote snapshot number ``sequence`` to ``path``.  Purely
    informational — a client can crash and later ``resume`` from that path.
``degraded``
    Fault event (:class:`DegradedReply`): the session fell back from
    coalesced batched bounding to session-local bounding after a fused
    launch exhausted its retries.  The solve continues and stays exact;
    only the cross-session coalescing is lost.

Invariants
----------
* Every request carries a client-chosen ``request_id``; every reply echoes
  it, so one connection can multiplex any number of in-flight requests.
* ``decode(encode(message))`` round-trips every message type bit-for-bit
  (``tests/test_service_protocol.py`` pins this).
* Unknown ``type`` fields and malformed JSON raise :class:`ProtocolError`
  on decode — a server turns that into an ``error`` reply instead of
  dropping the connection.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

if TYPE_CHECKING:  # annotation-only: the module stays solver-free at runtime
    from repro.flowshop.instance import FlowShopInstance

__all__ = [
    "ProtocolError",
    "SUPPORTED_SNAPSHOT_VERSIONS",
    "MAX_JOBS",
    "MAX_MACHINES",
    "InstanceSpec",
    "SolveParams",
    "SolveRequest",
    "CancelRequest",
    "StatusRequest",
    "ResumeRequest",
    "AcceptedReply",
    "OverloadedReply",
    "CancelledReply",
    "ErrorReply",
    "ResultReply",
    "StatusReply",
    "CheckpointReply",
    "DegradedReply",
    "Message",
    "encode",
    "decode",
]

#: Snapshot header ``format_version`` values this protocol revision accepts
#: in ``resume`` requests.  Kept as a local literal (NOT imported from
#: :mod:`repro.bb.snapshot`) so the protocol module stays importable
#: without the solver stack; ``tests/test_service_protocol.py`` pins it
#: against ``snapshot.SNAPSHOT_FORMAT_VERSION``.
SUPPORTED_SNAPSHOT_VERSIONS = (1, 2)

#: Largest instance a request may describe.  Taillard's largest class is
#: 500x20.  The server materializes a request's instance on its event-loop
#: thread, so a larger one would stall every connection: a 2x8,000
#: explicit matrix fits one request line yet makes the bound tables list
#: 32 million machine couples, and generating a 10**7-job Taillard
#: instance takes minutes.
MAX_JOBS = 500
MAX_MACHINES = 50


class ProtocolError(ValueError):
    """A wire line could not be decoded into a known message.

    Raised by :func:`decode` for malformed JSON, missing/unknown ``type``
    fields, or payloads whose fields do not match the message dataclass.
    Servers answer the offending line with an ``error`` reply.
    """


@dataclass(frozen=True)
class InstanceSpec:
    """Portable description of the flow-shop instance a request wants solved.

    Two kinds are supported: ``"taillard"`` names a Taillard-class instance
    by ``(jobs, machines, index)`` and is regenerated server-side (nothing
    but three integers travels on the wire); ``"explicit"`` ships the full
    ``processing_times`` matrix (jobs × machines, row-major lists).

    Invariants: ``kind`` is one of the two literals above; a taillard spec
    has ``jobs``/``machines`` set; an explicit spec has a non-empty
    rectangular ``processing_times``; either describes 1 to
    :data:`MAX_JOBS` jobs on 1 to :data:`MAX_MACHINES` machines.
    """

    kind: str = "taillard"
    jobs: Optional[int] = None
    machines: Optional[int] = None
    index: int = 1
    processing_times: Optional[list[list[int]]] = None
    name: Optional[str] = None

    @classmethod
    def taillard(cls, jobs: int, machines: int, index: int = 1) -> "InstanceSpec":
        """Spec for the Taillard-style instance ``(jobs, machines, index)``."""
        return cls(kind="taillard", jobs=jobs, machines=machines, index=index)

    @classmethod
    def explicit(
        cls, processing_times: Sequence[Sequence[int]], name: Optional[str] = None
    ) -> "InstanceSpec":
        """Spec shipping an explicit jobs × machines processing-time matrix."""
        matrix = [[int(v) for v in row] for row in processing_times]
        return cls(kind="explicit", processing_times=matrix, name=name)

    def to_instance(self) -> "FlowShopInstance":
        """Materialize the :class:`~repro.flowshop.instance.FlowShopInstance`.

        Imports lazily so the protocol module stays importable without the
        solver stack (thin clients only need the schema).  A spec beyond
        :data:`MAX_JOBS` or :data:`MAX_MACHINES` raises
        :class:`ProtocolError` before anything is built.
        """
        if self.kind == "taillard":
            if self.jobs is None or self.machines is None:
                raise ProtocolError("taillard spec requires 'jobs' and 'machines'")
            _check_dimensions(int(self.jobs), int(self.machines))
            from repro.flowshop.taillard import taillard_instance

            return taillard_instance(int(self.jobs), int(self.machines), index=int(self.index))
        if self.kind == "explicit":
            rows = self.processing_times
            if not rows:
                raise ProtocolError("explicit spec requires 'processing_times'")
            try:
                machines = max(len(row) for row in rows)
            except TypeError:
                raise ProtocolError("explicit 'processing_times' must be a list of rows") from None
            _check_dimensions(len(rows), machines)
            from repro.flowshop.instance import FlowShopInstance

            return FlowShopInstance(self.processing_times, name=self.name)
        raise ProtocolError(f"unknown instance kind {self.kind!r}")


def _check_dimensions(jobs: int, machines: int) -> None:
    if not 1 <= jobs <= MAX_JOBS:
        raise ProtocolError(
            f"instance has {jobs} jobs; a request may ask for 1 to MAX_JOBS={MAX_JOBS}"
        )
    if not 1 <= machines <= MAX_MACHINES:
        raise ProtocolError(
            f"instance has {machines} machines; "
            f"a request may ask for 1 to MAX_MACHINES={MAX_MACHINES}"
        )


@dataclass(frozen=True)
class SolveParams:
    """Per-session solver knobs a request may set (all optional).

    The subset of :class:`~repro.bb.sequential.SequentialBranchAndBound`'s
    configuration that makes sense per request: selection strategy, the
    NEH/explicit initial bound, the session's private
    :class:`~repro.bb.driver.SearchLimits` budgets, and an optional
    per-request checkpoint (``checkpoint_path`` + ``checkpoint_every``
    driver steps — overrides the service-wide ``checkpoint_dir``).
    ``None`` everywhere means "the engine's defaults" — which keeps
    service sessions bit-identical to a default sequential solve.
    """

    selection: str = "best-first"
    initial_upper_bound: Optional[float] = None
    max_nodes: Optional[int] = None
    max_time_s: Optional[float] = None
    max_frontier_nodes: Optional[int] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: Optional[int] = None


@dataclass(frozen=True)
class SolveRequest:
    """Open a session solving ``instance`` under ``params``.

    ``request_id`` is chosen by the client and echoed by every reply about
    this session; ``client_id`` is the fair-share scheduling bucket (all
    sessions of one client share one round-robin slot).
    """

    request_id: str
    instance: InstanceSpec
    params: SolveParams = field(default_factory=SolveParams)
    client_id: str = "anonymous"
    type: str = "solve"


@dataclass(frozen=True)
class CancelRequest:
    """Cancel the session opened by ``request_id`` (queued or running)."""

    request_id: str
    type: str = "cancel"


@dataclass(frozen=True)
class StatusRequest:
    """Ask for service health and dispatcher statistics."""

    request_id: str = "status"
    type: str = "status"


@dataclass(frozen=True)
class ResumeRequest:
    """Continue a checkpointed solve from ``snapshot_path`` on the server.

    ``header`` optionally carries the snapshot's JSON header as the client
    read it; when present, :func:`decode` rejects unsupported
    ``format_version`` values immediately (see
    :data:`SUPPORTED_SNAPSHOT_VERSIONS`), so a stale client cannot make
    the server load a snapshot it cannot understand.
    """

    request_id: str
    snapshot_path: str
    header: Optional[dict[str, Any]] = None
    client_id: str = "anonymous"
    type: str = "resume"


@dataclass(frozen=True)
class AcceptedReply:
    """The request was admitted; ``session_id`` names the opened session."""

    request_id: str
    session_id: int
    type: str = "accepted"


@dataclass(frozen=True)
class OverloadedReply:
    """Backpressure: the bounded admission queue is full; retry later.

    ``queued`` is the number of sessions waiting when the request was
    rejected and ``limit`` the queue bound — clients can use the pair to
    pick a backoff.
    """

    request_id: str
    queued: int
    limit: int
    type: str = "overloaded"


@dataclass(frozen=True)
class CancelledReply:
    """Acknowledgement of a ``cancel`` request (the result still follows)."""

    request_id: str
    was_running: bool
    type: str = "cancelled"


@dataclass(frozen=True)
class ErrorReply:
    """The request could not be processed; ``message`` says why."""

    request_id: str
    message: str
    type: str = "error"


@dataclass(frozen=True)
class ResultReply:
    """Terminal message of one session.

    ``makespan``/``order``/``proved_optimal`` mirror
    :class:`~repro.bb.sequential.BBResult`; ``cancelled`` marks sessions
    ended by a ``cancel`` request (their partial result is still reported);
    ``stats`` is the session's ``SearchStats.as_dict()``.
    """

    request_id: str
    session_id: int
    makespan: int
    order: list[int]
    proved_optimal: bool
    cancelled: bool = False
    stats: dict[str, Any] = field(default_factory=dict)
    type: str = "result"


@dataclass(frozen=True)
class StatusReply:
    """Service health snapshot: session gauges plus dispatcher statistics."""

    request_id: str
    active_sessions: int
    queued_sessions: int
    completed_sessions: int
    dispatcher: dict[str, Any] = field(default_factory=dict)
    type: str = "status_reply"


@dataclass(frozen=True)
class CheckpointReply:
    """Progress event: the session wrote snapshot ``sequence`` to ``path``.

    ``steps`` is the driver-step count at capture time.  A client that
    loses its server can later send a ``resume`` request naming ``path``.
    """

    request_id: str
    session_id: int
    sequence: int
    path: str
    steps: int = 0
    type: str = "checkpoint"


@dataclass(frozen=True)
class DegradedReply:
    """Fault event: the session fell back to local (uncoalesced) bounding.

    ``reason`` describes the launch failure that exhausted the retry
    budget.  The solve continues bit-exactly; the event is accounting
    (mirrored in ``DispatchStats.n_degraded``), not an error.
    """

    request_id: str
    session_id: int
    reason: str
    type: str = "degraded"


#: Every message that can travel on the wire, in either direction.
Message = Union[
    SolveRequest,
    CancelRequest,
    StatusRequest,
    ResumeRequest,
    AcceptedReply,
    OverloadedReply,
    CancelledReply,
    ErrorReply,
    ResultReply,
    StatusReply,
    CheckpointReply,
    DegradedReply,
]

_MESSAGE_TYPES: dict[str, type[Any]] = {
    "solve": SolveRequest,
    "cancel": CancelRequest,
    "status": StatusRequest,
    "resume": ResumeRequest,
    "accepted": AcceptedReply,
    "overloaded": OverloadedReply,
    "cancelled": CancelledReply,
    "error": ErrorReply,
    "result": ResultReply,
    "status_reply": StatusReply,
    "checkpoint": CheckpointReply,
    "degraded": DegradedReply,
}


def encode(message: Message) -> str:
    """Encode a message dataclass as one JSON line (no trailing newline).

    The inverse of :func:`decode`; nested dataclasses
    (:class:`InstanceSpec`, :class:`SolveParams`) are flattened to plain
    objects.
    """
    payload = asdict(message)
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def decode(line: str) -> Message:
    """Decode one wire line into its message dataclass.

    Raises :class:`ProtocolError` for malformed JSON, an unknown or missing
    ``type``, or fields that do not match the message's schema.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    kind = payload.get("type")
    cls = _MESSAGE_TYPES.get(kind)
    if cls is None:
        raise ProtocolError(f"unknown message type {kind!r}")
    if cls is SolveRequest:
        instance = payload.get("instance")
        if not isinstance(instance, dict):
            raise ProtocolError("solve request requires an 'instance' object")
        payload = dict(payload)
        try:
            payload["instance"] = InstanceSpec(**instance)
            payload["params"] = SolveParams(**payload.get("params") or {})
        except TypeError as exc:
            raise ProtocolError(f"bad solve payload: {exc}") from exc
    if cls is ResumeRequest:
        header = payload.get("header")
        if header is not None:
            if not isinstance(header, dict):
                raise ProtocolError("resume 'header' must be an object when given")
            version = header.get("format_version")
            if version not in SUPPORTED_SNAPSHOT_VERSIONS:
                raise ProtocolError(
                    f"unsupported snapshot format_version {version!r} "
                    f"(supported: {SUPPORTED_SNAPSHOT_VERSIONS})"
                )
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ProtocolError(f"bad {kind!r} payload: {exc}") from exc
