"""Kill-and-resume bit-identity: interrupted solves match the golden run.

The acceptance bar of the fault-tolerance work: a solve interrupted and
resumed at arbitrary points — k times — must produce bit-identical
makespan, permutation, every ``SearchStats`` counter and the concatenated
selection trace, across all selection strategies.
"""

import struct

import numpy as np
import pytest

from repro.bb import snapshot
from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.snapshot import SnapshotCorrupt, load_header
from repro.flowshop import random_instance
from repro.flowshop.bounds import unpack_mask

_COUNTERS = (
    "nodes_bounded",
    "nodes_branched",
    "nodes_pruned",
    "leaves_evaluated",
    "incumbent_updates",
    "pools_evaluated",
    "max_pool_size",
)


def _golden(instance, selection):
    return SequentialBranchAndBound(instance, selection=selection, trace=True).solve()


def _run_interrupted(instance, selection, path, budgets):
    """Solve under a ladder of cumulative node budgets, resuming after each cut."""
    engine = SequentialBranchAndBound(
        instance,
        selection=selection,
        trace=True,
        max_nodes=budgets[0],
        checkpoint_path=path,
    )
    result = engine.solve()
    trace = list(result.trace)
    segments = 1
    while not result.proved_optimal:
        budget = budgets[segments] if segments < len(budgets) else None
        result = SequentialBranchAndBound.resume(path, max_nodes=budget)
        trace.extend(result.trace)
        segments += 1
        assert segments < 100, "resume ladder failed to make progress"
    return result, trace, segments


def _assert_bit_identical(golden, result, trace):
    assert result.best_makespan == golden.best_makespan
    assert result.best_order == golden.best_order
    assert result.proved_optimal
    for name in _COUNTERS:
        assert getattr(result.stats, name) == getattr(golden.stats, name), name
    assert trace == golden.trace


@pytest.mark.parametrize("selection", ["best-first", "depth-first", "fifo"])
def test_killed_and_resumed_k_times_is_bit_identical(selection, small_instance, tmp_path):
    golden = _golden(small_instance, selection)
    budgets = [7, 19, 40, 75, 130, 220]  # several kills at awkward points
    result, trace, segments = _run_interrupted(
        small_instance, selection, tmp_path / "snap.rpbb", budgets
    )
    assert segments >= 3, "fixture too small to actually interrupt the solve"
    _assert_bit_identical(golden, result, trace)


def test_single_interruption_medium_instance(medium_instance, tmp_path):
    golden = _golden(medium_instance, "best-first")
    cut = max(2, golden.stats.nodes_explored // 2)
    result, trace, segments = _run_interrupted(
        medium_instance, "best-first", tmp_path / "snap.rpbb", [cut]
    )
    assert segments == 2
    _assert_bit_identical(golden, result, trace)


def test_resume_under_frontier_cap(small_instance, tmp_path):
    golden = SequentialBranchAndBound(
        small_instance, max_frontier_nodes=6, trace=True
    ).solve()
    path = tmp_path / "snap.rpbb"
    engine = SequentialBranchAndBound(
        small_instance,
        max_frontier_nodes=6,
        max_nodes=max(2, golden.stats.nodes_explored // 2),
        trace=True,
        checkpoint_path=path,
    )
    first = engine.solve()
    assert not first.proved_optimal
    result = SequentialBranchAndBound.resume(path)
    _assert_bit_identical(golden, result, list(first.trace) + list(result.trace))


def test_snapshot_with_tombstoned_rows_pending_resumes_to_the_golden(tmp_path, monkeypatch):
    # tie batches (no trace) leave their popped rows tombstoned in the
    # store until a bulk compaction; the cut here lands with 73 pending
    instance = random_instance(9, 4, seed=0)
    pending = []
    capture = snapshot._capture_block

    def recording(frontier, *args):
        pending.append(frontier._n_dead)
        capture(frontier, *args)

    monkeypatch.setattr(snapshot, "_capture_block", recording)
    golden = SequentialBranchAndBound(instance).solve()
    path = tmp_path / "snap.rpbb"
    cut = SequentialBranchAndBound(instance, max_nodes=1311, checkpoint_path=path).solve()
    assert not cut.proved_optimal
    assert pending[-1] > 0, "no tombstoned row was pending at the cut"
    result = SequentialBranchAndBound.resume(path)
    assert (result.best_makespan, result.best_order) == (golden.best_makespan, golden.best_order)
    assert result.proved_optimal
    for name in _COUNTERS:
        assert getattr(result.stats, name) == getattr(golden.stats, name), name


def test_unpacked_run_resumes_to_the_golden(tmp_path):
    """Restored rows enter the store through ``push_block``, which leaves a
    store holding bounds from 2**22 unpacked, as the cut run's was."""
    instance = random_instance(12, 5, seed=0, high=2**20)  # every bound passes 2**22
    golden = SequentialBranchAndBound(instance).solve()
    path = tmp_path / "snap.rpbb"
    cut = SequentialBranchAndBound(instance, max_nodes=400, checkpoint_path=path).solve()
    assert not cut.proved_optimal
    restored = snapshot.load_snapshot(path).frontier
    assert len(restored) > 0 and not restored._packed
    result = SequentialBranchAndBound.resume(path)
    assert (result.best_makespan, result.best_order) == (golden.best_makespan, golden.best_order)
    assert result.proved_optimal
    for name in _COUNTERS:
        assert getattr(result.stats, name) == getattr(golden.stats, name), name


def test_resume_from_periodic_checkpoint_is_bit_identical(small_instance, tmp_path):
    """Resuming a *mid-run* periodic snapshot replays the tail exactly."""
    golden = _golden(small_instance, "best-first")
    path = tmp_path / "periodic.rpbb"
    engine = SequentialBranchAndBound(
        small_instance,
        trace=True,
        checkpoint_path=path,
        checkpoint_every=3,
    )
    full = engine.solve()
    assert full.proved_optimal
    assert engine.checkpoints_written >= 1
    resumed = SequentialBranchAndBound.resume(path)
    assert resumed.best_makespan == golden.best_makespan
    assert resumed.best_order == golden.best_order
    for name in _COUNTERS:
        assert getattr(resumed.stats, name) == getattr(golden.stats, name), name


def test_periodic_and_budget_checkpoints_compose(small_instance, tmp_path):
    """Periodic snapshots during each segment don't disturb the final state."""
    golden = _golden(small_instance, "best-first")
    path = tmp_path / "snap.rpbb"
    engine = SequentialBranchAndBound(
        small_instance,
        trace=True,
        max_nodes=12,
        checkpoint_path=path,
        checkpoint_every=2,
    )
    result = engine.solve()
    trace = list(result.trace)
    assert engine.checkpoints_written > 1  # periodic + final
    while not result.proved_optimal:
        result = SequentialBranchAndBound.resume(path, checkpoint_every=2)
        trace.extend(result.trace)
    _assert_bit_identical(golden, result, trace)


def test_time_policy_fires_on_slow_runs(tmp_path):
    from repro.flowshop.generators import random_instance

    # fifo on a 9x5 instance runs thousands of steps, so the coarse-cadence
    # (every 64 steps) wall-clock check actually triggers
    path = tmp_path / "timed.rpbb"
    engine = SequentialBranchAndBound(
        random_instance(9, 5, seed=1),
        selection="fifo",
        checkpoint_path=path,
        checkpoint_seconds=0.01,
    )
    result = engine.solve()
    assert result.proved_optimal
    assert engine.checkpoints_written >= 1
    assert path.exists()


def test_resume_rejects_truncated_snapshot(small_instance, tmp_path):
    path = tmp_path / "snap.rpbb"
    engine = SequentialBranchAndBound(
        small_instance, max_nodes=10, checkpoint_path=path
    )
    engine.solve()
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SnapshotCorrupt):
        SequentialBranchAndBound.resume(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("overlap", "async"),
        ("kernel", "scalar"),
        ("frontier_index", "linear"),
        ("include_one_machine", True),
    ],
    ids=["overlap", "kernel", "frontier_index", "include_one_machine"],
)
def test_legacy_overlap_header_resumes_to_golden(small_instance, tmp_path, key, value):
    """A header still carrying a removed engine key (``overlap``, ``kernel``,
    ``frontier_index``, ``include_one_machine``) resumes to the golden
    result; new headers omit it."""
    from test_snapshot import _rebuild_with_header

    golden = SequentialBranchAndBound(small_instance).solve()
    path = tmp_path / "snap.rpbb"
    result = SequentialBranchAndBound(small_instance, max_nodes=15, checkpoint_path=path).solve()
    assert not result.proved_optimal
    assert key not in load_header(path)["engine"]

    def legacy(header):
        header["engine"][key] = value

    path.write_bytes(_rebuild_with_header(path.read_bytes(), legacy))
    assert load_header(path)["engine"][key] == value
    budgets = [40, 90, 180]  # cumulative: nodes_explored carries across segments
    segments = 1
    while not result.proved_optimal:
        budget = budgets[segments - 1] if segments <= len(budgets) else None
        result = SequentialBranchAndBound.resume(path, max_nodes=budget)
        segments += 1
        assert segments < 100, "resume ladder failed to make progress"
    assert result.best_makespan == golden.best_makespan
    assert result.best_order == golden.best_order
    for name in _COUNTERS:
        assert getattr(result.stats, name) == getattr(golden.stats, name), name


def test_completed_solve_writes_no_final_snapshot(small_instance, tmp_path):
    path = tmp_path / "snap.rpbb"
    engine = SequentialBranchAndBound(small_instance, checkpoint_path=path)
    result = engine.solve()
    assert result.proved_optimal
    assert engine.checkpoints_written == 0
    assert not path.exists()


def _rewrite_arrays(path, rewrite):
    """Rewrite a snapshot file's payload arrays through ``rewrite(arrays)``.

    The manifest, length and checksum are rebuilt (the file is re-signed);
    the format version stays.
    """
    blob = path.read_bytes()
    header = load_header(path)
    start = len(snapshot.MAGIC) + 4
    (header_len,) = struct.unpack(">I", blob[len(snapshot.MAGIC) : start])
    arrays = snapshot._parse_raw_payload(header["payload"]["arrays"], blob[start + header_len :])
    arrays = rewrite(dict(arrays))
    chunks = [np.ascontiguousarray(array).tobytes() for array in arrays.values()]
    payload = b"".join(chunks)
    header["payload"] = {
        "length": len(payload),
        "format": "raw",
        "arrays": [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()],
    }
    path.write_bytes(snapshot._seal(header, payload))


def _rewrite_with_bool_masks(path, n_jobs):
    """Rewrite a snapshot file in the layout written before bit-packed masks.

    The frontier's scheduled sets become one bool per job, stored as
    ``f_mask`` in place of the packed ``f_bits``.
    """

    def as_bool_masks(arrays):
        return {
            ("f_mask" if name == "f_bits" else name): (
                unpack_mask(array, n_jobs) if name == "f_bits" else array
            )
            for name, array in arrays.items()
        }

    _rewrite_arrays(path, as_bool_masks)


@pytest.mark.parametrize("n_jobs", [8, 10])
def test_bool_mask_snapshot_resumes_bit_identically(n_jobs, tmp_path):
    """A file whose frontier stores one bool per job resumes like the run it cut."""
    instance = random_instance(n_jobs, 5, seed=23)
    golden = _golden(instance, "best-first")
    path = tmp_path / "old.rpbb"
    first = SequentialBranchAndBound(
        instance,
        trace=True,
        max_nodes=max(2, golden.stats.nodes_explored // 2),
        checkpoint_path=path,
    ).solve()
    assert not first.proved_optimal
    _rewrite_with_bool_masks(path, n_jobs)
    names = [name for name, _, _ in load_header(path)["payload"]["arrays"]]
    assert "f_mask" in names and "f_bits" not in names
    restored = snapshot.load_snapshot(path).frontier
    assert restored._bits.dtype == np.uint8 and len(restored) > 0
    result = SequentialBranchAndBound.resume(path)
    _assert_bit_identical(golden, result, list(first.trace) + list(result.trace))


@pytest.mark.parametrize("depth", [8, -1], ids=["complete", "negative"])
def test_restore_rejects_rows_no_engine_writes(depth, tmp_path):
    """A frontier row at depth n (or below 0) fails to load instead of resuming.

    No engine pushes a complete schedule (it is examined as a leaf), and
    the driver would branch such a row into nothing, losing its schedule.
    """
    instance = random_instance(8, 5, seed=23)
    path = tmp_path / "cut.rpbb"
    cut = SequentialBranchAndBound(instance, max_nodes=20, checkpoint_path=path).solve()
    assert not cut.proved_optimal
    assert len(snapshot.load_snapshot(path).frontier) > 1

    def set_depth(arrays):
        depths = arrays["f_depth"].copy()
        depths[1] = depth
        arrays["f_depth"] = depths
        return arrays

    _rewrite_arrays(path, set_depth)
    with pytest.raises(SnapshotCorrupt, match=r"depths \[0, 8\)"):
        snapshot.load_snapshot(path)
    with pytest.raises(SnapshotCorrupt):
        SequentialBranchAndBound.resume(path)
