"""Kill-and-resume bit-identity: interrupted solves match the golden run.

The acceptance bar of the fault-tolerance work: a solve interrupted and
resumed at arbitrary points — k times — must produce bit-identical
makespan, permutation, every ``SearchStats`` counter and the concatenated
selection trace, across all selection strategies.
"""

import pytest

from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.snapshot import SnapshotCorrupt, load_header

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
