"""Snapshot container: round-trip fidelity, corruption/truncation rejection."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.bb.frontier import BlockFrontier
from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    CheckpointPolicy,
    SnapshotCorrupt,
    SnapshotError,
    SnapshotVersionError,
    instance_fingerprint,
    load_header,
    load_snapshot,
    loads_header,
    loads_snapshot,
    save_snapshot,
    _seal,
)
from repro.flowshop.generators import random_instance

#: A cut solve of ``random_instance(10, 5, seed=3)`` (``max_nodes=60``), as
#: the version-1 format wrote it: digest over the payload only, plus the
#: ``f_order`` column, ``next_order`` and ``packed`` that version 2 dropped.
V1_FILE = Path(__file__).parent / "data" / "v1_random_10x5_seed3_cut60.rpbb"


def _interrupted_blob(instance, tmp_path, selection="best-first", max_nodes=12):
    """Run a budget-cut solve so the engine writes a real mid-search snapshot."""
    path = tmp_path / "snap.rpbb"
    engine = SequentialBranchAndBound(
        instance,
        selection=selection,
        max_nodes=max_nodes,
        checkpoint_path=path,
    )
    result = engine.solve()
    assert not result.proved_optimal, "budget too large for this fixture"
    assert engine.checkpoints_written == 1
    return path.read_bytes(), result


def _as_object_layout(header):
    """Relabel a header as the removed object layout (a legacy v1 file)."""
    header["layout"] = "object"


def _rebuild_with_header(blob, mutate):
    """Re-serialize ``blob`` after applying ``mutate`` to its JSON header.

    The rebuilt blob is re-signed, so its checksum holds and a load
    reaches the check the mutation is about.
    """
    (header_len,) = struct.unpack(">I", blob[4:8])
    header = json.loads(blob[8 : 8 + header_len])
    payload = blob[8 + header_len :]
    mutate(header)
    return _seal(header, payload)


# --------------------------------------------------------------------- #
#  round trip
# --------------------------------------------------------------------- #
def test_roundtrip_restores_full_state(small_instance, tmp_path):
    blob, result = _interrupted_blob(small_instance, tmp_path)
    snapshot = loads_snapshot(blob)

    assert snapshot.header["layout"] == "block"
    assert snapshot.instance.n_jobs == small_instance.n_jobs
    assert np.array_equal(
        snapshot.instance.processing_times, small_instance.processing_times
    )
    assert snapshot.upper_bound == result.best_makespan
    assert snapshot.best_order == result.best_order
    for name in ("nodes_bounded", "nodes_branched", "nodes_pruned", "leaves_evaluated"):
        assert getattr(snapshot.stats, name) == getattr(result.stats, name)
    assert len(snapshot.frontier) > 0
    assert isinstance(snapshot.frontier, BlockFrontier)
    # the trail's length is the id the next node gets: past every pending id
    pending_ids = snapshot.frontier._tid[: len(snapshot.frontier)]
    assert len(snapshot.trail) > int(pending_ids.max())


def test_roundtrip_block_columns_exact(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path)
    first = loads_snapshot(blob)
    second = loads_snapshot(blob)
    f1, f2 = first.frontier, second.frontier
    size = len(f1)
    assert size == len(f2)
    for column in ("_bits", "_release", "_lb", "_depth", "_tid"):
        assert np.array_equal(getattr(f1, column)[:size], getattr(f2, column)[:size])
    # packed selection keys are recomputed, not stored: they must agree too
    if f1._packed:
        assert np.array_equal(f1._key[:size], f2._key[:size])


def test_roundtrip_preserves_max_pending_cap(small_instance, tmp_path):
    path = tmp_path / "capped.rpbb"
    engine = SequentialBranchAndBound(
        small_instance,
        max_frontier_nodes=8,
        max_nodes=12,
        checkpoint_path=path,
    )
    engine.solve()
    snapshot = load_snapshot(path)
    assert snapshot.frontier._cap == 8
    assert snapshot.engine["max_frontier_nodes"] == 8


def test_header_inventory(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path)
    header = loads_header(blob)
    assert header["format_version"] == SNAPSHOT_FORMAT_VERSION
    assert header["instance"]["fingerprint"] == instance_fingerprint(small_instance)
    assert header["engine"]["engine"] == "serial"
    assert set(header["payload"]) == {"sha256", "length", "format", "arrays"}
    assert header["payload"]["format"] == "raw"
    assert all(len(entry) == 3 for entry in header["payload"]["arrays"])


# --------------------------------------------------------------------- #
#  corruption / truncation / version rejection
# --------------------------------------------------------------------- #
def test_truncation_at_every_byte_is_rejected(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path, max_nodes=3)
    for k in range(len(blob)):
        with pytest.raises(SnapshotCorrupt):
            loads_snapshot(blob[:k])


def test_payload_bitflip_fails_checksum(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path)
    mangled = bytearray(blob)
    mangled[-1] ^= 0xFF
    with pytest.raises(SnapshotCorrupt, match="checksum"):
        loads_snapshot(bytes(mangled))


@pytest.mark.parametrize("name", ["f_release", "f_lb", "f_tid", "trail_parent", "f_depth"])
def test_manifest_byte_order_flip_fails_checksum(name, tmp_path):
    """One bit of the header turns an array's dtype big-endian: refused.

    Loaded under a payload-only checksum, the flip resumed to a wrong
    makespan claimed optimal (``f_release``, ``f_lb``), to an order
    holding 6 of the 11 jobs (``f_tid``), or to an ``IndexError``
    (``trail_parent``).
    """
    instance = random_instance(11, 6, seed=5)
    blob, _ = _interrupted_blob(instance, tmp_path, max_nodes=300)
    entry = f'["{name}","<i4",'.encode()
    at = blob.index(entry) + len(f'["{name}","')
    mangled = bytearray(blob)
    mangled[at] ^= ord("<") ^ ord(">")  # 0x3C -> 0x3E, one bit
    path = tmp_path / "flipped.rpbb"
    path.write_bytes(bytes(mangled))
    with pytest.raises(SnapshotCorrupt, match="checksum"):
        loads_snapshot(bytes(mangled))
    with pytest.raises(SnapshotCorrupt):
        SequentialBranchAndBound.resume(path)


def test_every_header_bit_is_covered(small_instance, tmp_path):
    """Flipping any one bit of the magic, the header length or the header
    fails the load with a typed error."""
    blob, _ = _interrupted_blob(small_instance, tmp_path, max_nodes=3)
    (header_len,) = struct.unpack(">I", blob[4:8])
    for at in range(8 + header_len):
        for bit in range(8):
            mangled = bytearray(blob)
            mangled[at] ^= 1 << bit
            with pytest.raises(SnapshotError):
                loads_header(bytes(mangled))


def test_version_1_file_resumes_bit_identically():
    """A file the version-1 format wrote loads under its payload-only
    checksum and continues exactly the search it cut."""
    header = load_header(V1_FILE)
    assert header["format_version"] == 1 and "next_order" in header
    assert "f_order" in [name for name, _, _ in header["payload"]["arrays"]]
    golden = SequentialBranchAndBound(random_instance(10, 5, seed=3)).solve()
    result = SequentialBranchAndBound.resume(V1_FILE)
    assert result.proved_optimal
    assert (result.best_makespan, result.best_order) == (golden.best_makespan, golden.best_order)
    for name in ("nodes_bounded", "nodes_branched", "nodes_pruned", "leaves_evaluated",
                 "incumbent_updates", "pools_evaluated", "max_pool_size"):
        assert getattr(result.stats, name) == getattr(golden.stats, name), name


def test_bad_magic_rejected(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path)
    with pytest.raises(SnapshotCorrupt, match="magic"):
        loads_snapshot(b"XXXX" + blob[4:])


def test_unknown_version_rejected(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path)

    def bump(header):
        header["format_version"] = SNAPSHOT_FORMAT_VERSION + 1

    with pytest.raises(SnapshotVersionError):
        loads_header(_rebuild_with_header(blob, bump))


def test_legacy_object_layout_rejected(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path)
    path = tmp_path / "object.rpbb"
    path.write_bytes(_rebuild_with_header(blob, _as_object_layout))
    assert load_header(path)["layout"] == "object"  # still a valid v1 header
    with pytest.raises(SnapshotVersionError, match="'object' node layout"):
        load_snapshot(path)


def test_instance_fingerprint_mismatch_rejected(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path)

    def tamper(header):
        header["instance"]["fingerprint"] = "0" * 64

    with pytest.raises(SnapshotCorrupt, match="fingerprint"):
        loads_snapshot(_rebuild_with_header(blob, tamper))


def test_missing_field_rejected(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path)

    def drop(header):
        del header["frontier"]

    with pytest.raises(SnapshotCorrupt):
        loads_snapshot(_rebuild_with_header(blob, drop))


# --------------------------------------------------------------------- #
#  file wrappers
# --------------------------------------------------------------------- #
def test_save_is_atomic_and_leaves_no_temp_files(small_instance, tmp_path):
    blob, _ = _interrupted_blob(small_instance, tmp_path)
    target = tmp_path / "nested" / "snap.rpbb"
    save_snapshot(target, blob)
    save_snapshot(target, blob)  # overwrite goes through os.replace too
    assert target.read_bytes() == blob
    assert [p.name for p in target.parent.iterdir()] == ["snap.rpbb"]
    assert load_header(target)["format_version"] == SNAPSHOT_FORMAT_VERSION


def test_load_missing_file_raises_snapshot_error(tmp_path):
    with pytest.raises(SnapshotError):
        load_snapshot(tmp_path / "absent.rpbb")


# --------------------------------------------------------------------- #
#  policy validation
# --------------------------------------------------------------------- #
def test_checkpoint_policy_validation():
    with pytest.raises(ValueError):
        CheckpointPolicy()
    with pytest.raises(ValueError):
        CheckpointPolicy(every_steps=0)
    with pytest.raises(ValueError):
        CheckpointPolicy(every_seconds=0.0)
    CheckpointPolicy(every_steps=1)
    CheckpointPolicy(every_seconds=0.5)
    CheckpointPolicy(every_steps=10, every_seconds=1.0)


def test_engine_rejects_interval_without_path(small_instance):
    with pytest.raises(ValueError, match="checkpoint_path"):
        SequentialBranchAndBound(small_instance, checkpoint_every=10)
