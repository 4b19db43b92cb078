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
* the RNG-free tie state: selection ties break on trail id, which is a
  node's creation index, so the trail's length (the id the next branched
  node receives) is the only "random state" of the search;
* the instance itself (``processing_times`` travels in the payload, so a
  snapshot file is self-describing) and the engine configuration that
  produced it.

Container format (see the table in ``docs/ARCHITECTURE.md``)::

    magic b"RPBB" | header length (4 bytes BE) | JSON header | raw array buffers

The header carries the format version, the instance/engine fingerprints
and the payload's length, manifest (name, dtype and shape of each
concatenated array buffer; only pre-manifest files carry an npz payload,
which still loads) and SHA-256.  That digest covers every byte of the
file, its own 64 hex digits read as zeros; a version-1 file's covers its
payload only, and still loads.  :func:`loads_snapshot` re-hashes the file
and rejects corrupt or truncated files with a typed error — truncation at
*any* byte offset fails loudly (``tests/test_snapshot.py`` checks every
offset).  :func:`save_snapshot` writes through a temp file in
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

from repro.bb.frontier import BlockFrontier, NodeBlock, Trail
from repro.bb.stats import SearchStats
from repro.flowshop.bounds import pack_mask
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
#: Version 2's digest covers the header too.  Version-1 files still load;
#: the copy of the trail ids and the trail's length that they also carry
#: are ignored.
SNAPSHOT_FORMAT_VERSION = 2

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
    when a checkpoint is actually written).
    """

    frontier: BlockFrontier
    trail: Trail
    upper_bound: float
    best_order_supplier: Callable[[], tuple[int, ...]]
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
    frontier._compact()  # rows [0, len) are then exactly the pending nodes
    size = len(frontier)
    trail_size = len(trail)
    arrays["trail_parent"] = trail._parent[:trail_size].copy()
    arrays["trail_job"] = trail._job[:trail_size].copy()
    arrays["f_bits"] = frontier._bits[:size].copy()
    arrays["f_release"] = frontier._release[:size].copy()
    arrays["f_lb"] = frontier._lb[:size].copy()
    arrays["f_depth"] = frontier._depth[:size].copy()
    arrays["f_tid"] = frontier._tid[:size].copy()
    header["frontier"] = {
        "size": size,
        "trail_size": trail_size,
        "strategy": frontier.strategy,
        "max_pending": frontier._cap,
        "max_size": frontier._max_size,
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
        "stats": _stats_dict(stats),
    }
    _capture_block(frontier, trail, arrays, header)

    # Raw concatenated buffers, not npz: snapshots are written on the
    # search's hot path (every checkpoint interval) and read once after a
    # crash, so write latency beats container convenience — the zip
    # wrapper alone costs ~6x the memcpy.  The manifest in the header
    # (name, dtype, shape per array) is what np.load would have stored,
    # and the sha256 that _seal writes is the integrity check.
    chunks = []
    manifest = []
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        chunks.append(contiguous.tobytes())
        manifest.append([name, contiguous.dtype.str, list(contiguous.shape)])
    payload = b"".join(chunks)
    header["payload"] = {"length": len(payload), "format": "raw", "arrays": manifest}
    return _seal(header, payload)


def _framed(header: dict) -> bytes:
    """Magic, header length and the canonical JSON of ``header``."""
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack(">I", len(header_bytes)) + header_bytes


def _digest(framed: bytes, payload: bytes) -> str:
    """SHA-256 of a blob, its header's ``sha256`` value read as 64 zeros."""
    digest = hashlib.sha256(framed)
    digest.update(payload)
    return digest.hexdigest()


def _seal(header: dict, payload: bytes) -> bytes:
    """The snapshot blob of ``header`` and ``payload``, sealed by one digest.

    ``header["payload"]["sha256"]`` receives the SHA-256 of the whole blob
    (magic, header length, header and payload), computed with that value
    set to 64 zeros.
    """
    header["payload"]["sha256"] = "0" * 64
    header["payload"]["sha256"] = _digest(_framed(header), payload)
    return _framed(header) + payload


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
    stats: SearchStats

    @property
    def engine(self) -> dict:
        """The engine-configuration dict stored at capture time."""
        return self.header.get("engine", {})


def loads_header(blob: bytes) -> dict:
    """Parse and validate the JSON header of a snapshot blob.

    Verifies the magic, the declared lengths and the checksum (over the
    whole blob; over the payload alone in a version-1 file); raises
    :class:`SnapshotCorrupt` on any truncation or corruption and
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
    if version not in (1, SNAPSHOT_FORMAT_VERSION):
        raise SnapshotVersionError(
            f"unsupported snapshot format version {version!r} "
            f"(supported: 1, {SNAPSHOT_FORMAT_VERSION})"
        )
    payload = blob[header_start + header_len :]
    declared = header.get("payload")
    if not isinstance(declared, dict):
        raise SnapshotCorrupt("snapshot header has no payload record")
    if len(payload) != declared.get("length"):
        raise SnapshotCorrupt(
            f"snapshot payload truncated: {len(payload)} bytes, "
            f"header declares {declared.get('length')}"
        )
    signed = declared.get("sha256")
    if version == 1:  # written before the digest covered the header
        digest = hashlib.sha256(payload).hexdigest()
    else:
        framed = blob[: header_start + header_len].replace(
            f'"sha256":"{signed}"'.encode("utf-8"), b'"sha256":"' + b"0" * 64 + b'"'
        )
        digest = _digest(framed, payload)
    if digest != signed:
        raise SnapshotCorrupt("snapshot fails its checksum")
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
    # The selection index and the packed keys are derived state: push_block
    # rebuilds them, so the container format does not depend on them
    # (headers of older snapshots may still name an index; the key is ignored).
    frontier = BlockFrontier(
        instance.n_jobs,
        instance.n_machines,
        trail,
        strategy=meta["strategy"],
        capacity=max(size, 64),
        max_pending=meta["max_pending"],
    )
    rows = NodeBlock(
        # a file written before the packed layout holds one bool per job
        mask_bits=arrays["f_bits"] if "f_bits" in arrays else pack_mask(arrays["f_mask"]),
        release=arrays["f_release"],
        lower_bound=arrays["f_lb"],
        depth=arrays["f_depth"],
        trail_id=arrays["f_tid"],
        trail=trail,
        n_jobs=instance.n_jobs,
    )
    if len(rows) != size:
        raise SnapshotCorrupt(f"snapshot frontier holds {len(rows)} rows, header declares {size}")
    depths = rows.depth
    if size and (int(depths.min()) < 0 or int(depths.max()) >= instance.n_jobs):
        # no engine pushes a complete schedule (it is examined as a leaf),
        # and the driver would branch such a row into nothing
        raise SnapshotCorrupt(
            f"snapshot frontier holds a row outside depths [0, {instance.n_jobs})"
        )
    frontier.push_block(rows)
    frontier._max_size = int(meta["max_size"])
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
    bad blobs (see :func:`loads_header`) and for a frontier row whose depth
    lies outside ``[0, n)`` (no engine writes one), and
    :class:`SnapshotVersionError` for a file of the removed object layout;
    the returned state continues the interrupted search bit-identically.
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
