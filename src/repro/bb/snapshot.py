"""Versioned, checksummed serialization of complete search state.

The block frontier keeps the entire search in a handful of int32 arrays
— this module turns that observation into fault tolerance.  A
**snapshot** captures everything a resumed solve needs to continue
bit-identically to the run that wrote it:

* the pending frontier — the first ``size`` rows of every
  :class:`~repro.bb.frontier.BlockFrontier` column plus the shared
  :class:`~repro.bb.frontier.Trail`;
* the incumbent (``upper_bound`` + permutation) and every
  :class:`~repro.bb.stats.SearchStats` counter;
* the RNG-free tie state: ``next_order``, the creation index the next
  branched node will receive (selection ties break on creation index, so
  this is the only "random state" of the search);
* the instance itself (``processing_times`` travels in the payload, so a
  snapshot file is self-describing) and the engine configuration that
  produced it.

Container format (see the table in ``docs/ARCHITECTURE.md``)::

    magic b"RPBB" | header length (4 bytes BE) | JSON header | npz payload

The header carries the format version, the instance/engine fingerprints
and the payload's SHA-256 + length; :func:`loads_snapshot` re-hashes the
payload and rejects corrupt or truncated files with a typed error —
truncation at *any* byte offset fails loudly (``tests/test_chaos.py``
checks every offset).  :func:`save_snapshot` writes through a temp file in
the destination directory followed by ``os.replace``, so a crash
mid-checkpoint never destroys the previous good snapshot.

:class:`CheckpointPolicy` and :class:`CheckpointState` are the driver-side
half: :class:`~repro.bb.driver.SearchDriver` fires
``SearchHooks.on_checkpoint`` with a :class:`CheckpointState` whenever the
policy is due, and the engine (sequential CLI solve, service session)
turns the state into a snapshot file.  Checkpointing reads the live
arrays without mutating them, so firing at any step cannot perturb the
explored tree.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.bb.frontier import BlockFrontier, Trail
from repro.bb.stats import SearchStats
from repro.flowshop.instance import FlowShopInstance

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotCorrupt",
    "SnapshotVersionError",
    "SnapshotMismatch",
    "CheckpointPolicy",
    "CheckpointState",
    "Snapshot",
    "instance_fingerprint",
    "config_fingerprint",
    "dumps_snapshot",
    "loads_snapshot",
    "loads_header",
    "save_snapshot",
    "load_snapshot",
    "load_header",
]

#: Version of the container format; bumped on any incompatible change.
SNAPSHOT_FORMAT_VERSION = 1

#: The ``layout`` every header carries.  Version-1 files of the removed
#: ``"object"`` layout still parse, but :func:`loads_snapshot` refuses them.
SNAPSHOT_LAYOUT = "block"

#: First four bytes of every snapshot file.
MAGIC = b"RPBB"

#: ``SearchStats`` fields serialized into the header (explicit list — the
#: derived ``as_dict`` keys like ``nodes_explored`` are recomputed, never
#: stored).
_STATS_FIELDS = (
    "nodes_bounded",
    "nodes_branched",
    "nodes_pruned",
    "leaves_evaluated",
    "incumbent_updates",
    "pools_evaluated",
    "max_pool_size",
    "time_total_s",
    "time_bounding_s",
    "time_branching_s",
    "time_pool_s",
    "simulated_device_time_s",
)

class SnapshotError(Exception):
    """Base class of every snapshot load/save failure."""


class SnapshotCorrupt(SnapshotError):
    """The file is truncated, fails its checksum, or does not parse."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an unsupported format version or layout."""


class SnapshotMismatch(SnapshotError):
    """The snapshot does not belong to the instance/engine resuming it."""


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the driver fires ``on_checkpoint``: every N steps / T seconds.

    ``every_steps`` fires deterministically (step counts are identical
    across runs); ``every_seconds`` fires on wall clock and is checked at
    a coarse cadence so an idle policy costs one integer comparison per
    step.  At least one trigger must be set.
    """

    every_steps: Optional[int] = None
    every_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every_steps is None and self.every_seconds is None:
            raise ValueError("set every_steps and/or every_seconds")
        if self.every_steps is not None and self.every_steps < 1:
            raise ValueError("every_steps must be >= 1")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValueError("every_seconds must be > 0")


@dataclass
class CheckpointState:
    """Live search state handed to ``SearchHooks.on_checkpoint``.

    Everything is a *reference* to the driver's working state — valid only
    for the duration of the hook call.  ``best_order_supplier`` lazily
    materializes the incumbent permutation (trail prefixes are only walked
    when a checkpoint is actually written); ``next_order`` is the creation
    index of the next node.
    """

    frontier: BlockFrontier
    trail: Trail
    upper_bound: float
    best_order_supplier: Callable[[], tuple[int, ...]]
    next_order: int
    stats: SearchStats
    steps: int


# --------------------------------------------------------------------- #
#  fingerprints
# --------------------------------------------------------------------- #
def instance_fingerprint(instance: FlowShopInstance) -> str:
    """SHA-256 over the instance's dimensions and processing times."""
    digest = hashlib.sha256()
    digest.update(struct.pack(">II", instance.n_jobs, instance.n_machines))
    digest.update(np.ascontiguousarray(instance.processing_times, dtype=np.int64).tobytes())
    return digest.hexdigest()


def config_fingerprint(engine: dict) -> str:
    """SHA-256 of the canonical JSON form of an engine-config dict."""
    canonical = json.dumps(engine, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
#  capture
# --------------------------------------------------------------------- #
def _stats_dict(stats: SearchStats) -> dict:
    return {name: getattr(stats, name) for name in _STATS_FIELDS}


def _stats_from_dict(payload: dict) -> SearchStats:
    stats = SearchStats()
    for name in _STATS_FIELDS:
        if name in payload:
            setattr(stats, name, type(getattr(stats, name))(payload[name]))
    return stats


def _capture_block(
    frontier: BlockFrontier, trail: Trail, arrays: dict, header: dict
) -> None:
    size = len(frontier)
    trail_size = len(trail)
    arrays["trail_parent"] = trail._parent[:trail_size].copy()
    arrays["trail_job"] = trail._job[:trail_size].copy()
    arrays["f_mask"] = frontier._mask[:size].copy()
    arrays["f_release"] = frontier._release[:size].copy()
    arrays["f_lb"] = frontier._lb[:size].copy()
    arrays["f_depth"] = frontier._depth[:size].copy()
    arrays["f_order"] = frontier._order[:size].copy()
    arrays["f_tid"] = frontier._tid[:size].copy()
    header["frontier"] = {
        "size": size,
        "trail_size": trail_size,
        "strategy": frontier.strategy,
        "max_pending": frontier._cap,
        "max_size": frontier._max_size,
        "packed": bool(frontier._packed),
        # cap-hysteresis state: a resumed capped run must re-enter the
        # exact selection regime the interrupted run was in, or the
        # concatenated segments stop being bit-identical to a golden run
        "restricted": bool(frontier._restricted_now),
        "regime_switches": int(frontier.regime_switches),
    }


def dumps_snapshot(
    instance: FlowShopInstance,
    *,
    frontier: BlockFrontier,
    trail: Trail,
    upper_bound: float,
    best_order: tuple[int, ...],
    stats: SearchStats,
    next_order: int = 0,
    engine: Optional[dict] = None,
) -> bytes:
    """Serialize complete search state into one snapshot blob.

    The inverse of :func:`loads_snapshot`.  ``engine`` is the engine's
    configuration dict; it travels verbatim in the header (plus its
    fingerprint) so ``repro resume`` can rebuild the exact solver.
    """
    if not isinstance(frontier, BlockFrontier) or not isinstance(trail, Trail):
        raise ValueError("a snapshot requires a BlockFrontier and its Trail")
    engine = dict(engine or {})
    arrays: dict = {
        "processing_times": np.ascontiguousarray(
            instance.processing_times, dtype=np.int64
        )
    }
    header: dict = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "layout": SNAPSHOT_LAYOUT,
        "instance": {
            "name": instance.name,
            "n_jobs": instance.n_jobs,
            "n_machines": instance.n_machines,
            "fingerprint": instance_fingerprint(instance),
        },
        "engine": engine,
        "engine_fingerprint": config_fingerprint(engine),
        "upper_bound": None if upper_bound == float("inf") else float(upper_bound),
        "best_order": [int(j) for j in best_order],
        "next_order": int(next_order),
        "stats": _stats_dict(stats),
    }
    _capture_block(frontier, trail, arrays, header)

    # Raw concatenated buffers, not npz: snapshots are written on the
    # search's hot path (every checkpoint interval) and read once after a
    # crash, so write latency beats container convenience — the zip
    # wrapper alone costs ~6x the memcpy.  The manifest in the header
    # (name, dtype, shape per array) is what np.load would have stored,
    # and the sha256 below is the integrity check.
    chunks = []
    manifest = []
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        chunks.append(contiguous.tobytes())
        manifest.append([name, contiguous.dtype.str, list(contiguous.shape)])
    payload = b"".join(chunks)
    header["payload"] = {
        "sha256": hashlib.sha256(payload).hexdigest(),
        "length": len(payload),
        "format": "raw",
        "arrays": manifest,
    }
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack(">I", len(header_bytes)) + header_bytes + payload


# --------------------------------------------------------------------- #
#  restore
# --------------------------------------------------------------------- #
@dataclass
class Snapshot:
    """A fully materialized snapshot: ready-to-run search state.

    ``frontier``/``trail`` are freshly rebuilt objects — pushing the
    result of :func:`loads_snapshot` straight into
    :meth:`~repro.bb.driver.SearchDriver.run` continues the interrupted
    search bit-identically.
    """

    header: dict
    instance: FlowShopInstance
    frontier: BlockFrontier
    trail: Trail
    upper_bound: float
    best_order: tuple[int, ...]
    next_order: int
    stats: SearchStats

    @property
    def engine(self) -> dict:
        """The engine-configuration dict stored at capture time."""
        return self.header.get("engine", {})


def loads_header(blob: bytes) -> dict:
    """Parse and validate the JSON header of a snapshot blob.

    Verifies the magic, the declared lengths and the payload checksum;
    raises :class:`SnapshotCorrupt` on any truncation or corruption and
    :class:`SnapshotVersionError` for unsupported format versions.
    """
    if len(blob) < len(MAGIC) + 4:
        raise SnapshotCorrupt("snapshot truncated before the header length")
    if blob[: len(MAGIC)] != MAGIC:
        raise SnapshotCorrupt("bad magic: not a snapshot file")
    (header_len,) = struct.unpack(">I", blob[len(MAGIC) : len(MAGIC) + 4])
    header_start = len(MAGIC) + 4
    if len(blob) < header_start + header_len:
        raise SnapshotCorrupt("snapshot truncated inside the header")
    try:
        header = json.loads(blob[header_start : header_start + header_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotCorrupt(f"snapshot header does not parse: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotCorrupt("snapshot header is not a JSON object")
    version = header.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotVersionError(
            f"unsupported snapshot format version {version!r} "
            f"(supported: {SNAPSHOT_FORMAT_VERSION})"
        )
    payload = blob[header_start + header_len :]
    declared = header.get("payload", {})
    if len(payload) != declared.get("length"):
        raise SnapshotCorrupt(
            f"snapshot payload truncated: {len(payload)} bytes, "
            f"header declares {declared.get('length')}"
        )
    if hashlib.sha256(payload).hexdigest() != declared.get("sha256"):
        raise SnapshotCorrupt("snapshot payload fails its checksum")
    return header


def _restore_block(header: dict, arrays, instance: FlowShopInstance):
    meta = header["frontier"]
    size = int(meta["size"])
    trail_size = int(meta["trail_size"])
    trail = Trail(capacity=max(trail_size, 1))
    trail._ensure(trail_size)
    trail._parent[:trail_size] = arrays["trail_parent"]
    trail._job[:trail_size] = arrays["trail_job"]
    trail._size = trail_size
    # The selection index is derived state: it is rebuilt on restore, never
    # serialized, so the container format does not depend on it (headers
    # of older snapshots may still name an index; the key is ignored).
    frontier = BlockFrontier(
        instance.n_jobs,
        instance.n_machines,
        trail,
        strategy=meta["strategy"],
        capacity=max(size, 64),
        max_pending=meta["max_pending"],
    )
    frontier._mask[:size] = arrays["f_mask"]
    frontier._release[:size] = arrays["f_release"]
    frontier._lb[:size] = arrays["f_lb"]
    frontier._depth[:size] = arrays["f_depth"]
    frontier._order[:size] = arrays["f_order"]
    frontier._tid[:size] = arrays["f_tid"]
    frontier._packed = bool(meta["packed"])
    if frontier._packed and size:
        frontier._key[:size] = (
            (frontier._lb[:size].astype(np.int64) << 41)
            | (frontier._depth[:size].astype(np.int64) << 32)
            | frontier._order[:size]
        )
    frontier._size = size
    frontier._max_size = int(meta["max_size"])
    # rows were written behind push_block's back: every segment is stale
    frontier._seg_dirty[:] = True
    frontier._seg_any_dirty = True
    if frontier._cap is not None:
        # pre-hysteresis snapshots carry no regime state: fall back to the
        # stateless rule (restricted iff at/above the cap)
        frontier._restricted_now = bool(
            meta.get("restricted", size >= frontier._cap)
        )
        frontier.regime_switches = int(meta.get("regime_switches", 0))
    return frontier, trail


def _parse_raw_payload(manifest, payload: bytes) -> dict:
    """Slice the raw concatenated payload back into named arrays.

    Views over ``payload`` (no copy): every consumer either reads the
    arrays or assigns them *into* freshly allocated search structures.
    """
    arrays: dict = {}
    offset = 0
    for name, dtype_str, shape in manifest:
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(payload):
            raise SnapshotCorrupt(
                f"snapshot payload truncated inside array {name!r}"
            )
        arrays[name] = np.frombuffer(
            payload, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
        offset += nbytes
    if offset != len(payload):
        raise SnapshotCorrupt(
            f"snapshot payload has {len(payload) - offset} trailing bytes"
        )
    return arrays


def loads_snapshot(blob: bytes) -> Snapshot:
    """Rebuild complete search state from a snapshot blob.

    Raises :class:`SnapshotCorrupt` / :class:`SnapshotVersionError` for
    bad blobs (see :func:`loads_header`), and :class:`SnapshotVersionError`
    for a file of the removed object layout; the returned state continues
    the interrupted search bit-identically.
    """
    header = loads_header(blob)
    header_start = len(MAGIC) + 4
    (header_len,) = struct.unpack(">I", blob[len(MAGIC) : header_start])
    payload = blob[header_start + header_len :]
    try:
        if header.get("payload", {}).get("format") == "raw":
            arrays = _parse_raw_payload(header["payload"]["arrays"], payload)
        else:
            # pre-manifest blobs carried an npz container
            arrays = np.load(io.BytesIO(payload), allow_pickle=False)
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotCorrupt(f"snapshot payload does not parse: {exc}") from exc
    try:
        layout = header["layout"]
        if layout != SNAPSHOT_LAYOUT:
            raise SnapshotVersionError(
                f"snapshot stores the {layout!r} node layout; the object layout "
                f"was removed and only {SNAPSHOT_LAYOUT!r} snapshots can be resumed"
            )
        instance_meta = header["instance"]
        instance = FlowShopInstance(
            arrays["processing_times"], name=instance_meta.get("name")
        )
        if instance_fingerprint(instance) != instance_meta.get("fingerprint"):
            raise SnapshotCorrupt("instance payload does not match its fingerprint")
        upper_bound = header["upper_bound"]
        stats = _stats_from_dict(header.get("stats", {}))
        frontier, trail = _restore_block(header, arrays, instance)
        next_order = int(header["next_order"])
    except SnapshotError:
        raise
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise SnapshotCorrupt(f"snapshot is missing or mangles a field: {exc}") from exc
    return Snapshot(
        header=header,
        instance=instance,
        frontier=frontier,
        trail=trail,
        upper_bound=float("inf") if upper_bound is None else float(upper_bound),
        best_order=tuple(int(j) for j in header.get("best_order", [])),
        next_order=next_order,
        stats=stats,
    )


# --------------------------------------------------------------------- #
#  file wrappers (atomic write)
# --------------------------------------------------------------------- #
def save_snapshot(path: Union[str, Path], blob: bytes) -> Path:
    """Write a snapshot blob atomically: temp file + fsync + ``os.replace``.

    A crash at any point leaves either the previous snapshot or the new
    one — never a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_snapshot(path: Union[str, Path]) -> Snapshot:
    """Load and fully materialize the snapshot at ``path``."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    return loads_snapshot(blob)


def load_header(path: Union[str, Path]) -> dict:
    """Parse and checksum-verify only the header of the snapshot at ``path``."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    return loads_header(blob)
