"""Segmented min-key frontier index: equivalence, hysteresis, pop_batch.

The segmented index must be *observationally identical* to the linear
scan: the packed key embeds the creation-index tie-break, so every
selection operator has exactly one correct answer and caching per-segment
minima may change only the cost of finding it.  The property test here
drives random interleaved operation sequences — including snapshot
save/restore round-trips mid-sequence — against a segmented store (tiny
segments, so even small frontiers span many of them) and a linear twin
(one segment spanning the whole store, so every query scans the key
column directly), and asserts the full observable log matches
pop-for-pop.

Also covered: the cap-hysteresis regime machine (enter at the cap, leave
strictly below the low-water mark, no flapping at the boundary) and the
``pop_batch`` micro-fix (one selection pass when nothing is pruned).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb.frontier import (
    CAP_LOW_WATER_FRACTION,
    BlockFrontier,
    Trail,
)
from repro.bb.snapshot import dumps_snapshot, loads_snapshot
from repro.bb.stats import SearchStats
from repro.flowshop import random_instance

N_JOBS, N_MACHINES = 6, 3
_INSTANCE = random_instance(N_JOBS, N_MACHINES, seed=5)

#: segment_shift of each twin: 4-row segments, so even a 30-node store
#: spans many segments and the segmented code paths (not the
#: single-segment direct scan) are what the property test exercises; and
#: 2**24-row segments, so the "linear" store never leaves the direct scan
_SEGMENT_SHIFT = {"segmented": 2, "linear": 24}


def _block(frontier: BlockFrontier, lbs, depths, order_start: int):
    from repro.bb.frontier import NodeBlock

    count = len(lbs)
    return NodeBlock(
        scheduled_mask=np.zeros((count, N_JOBS), dtype=bool),
        release=np.zeros((count, N_MACHINES), dtype=np.int32),
        lower_bound=np.asarray(lbs, dtype=np.int32),
        depth=np.asarray(depths, dtype=np.int32),
        order_index=np.arange(order_start, order_start + count, dtype=np.int32),
        trail_id=np.zeros(count, dtype=np.int32),
        trail=frontier._trail,
    )


def _frontier(kind: str, cap) -> BlockFrontier:
    trail = Trail()
    trail.append_root()
    return BlockFrontier(
        N_JOBS,
        N_MACHINES,
        trail,
        max_pending=cap,
        segment_shift=_SEGMENT_SHIFT[kind],
    )


def _roundtrip(frontier: BlockFrontier) -> BlockFrontier:
    """Snapshot the store and restore it with its own segment size."""
    blob = dumps_snapshot(
        _INSTANCE,
        frontier=frontier,
        upper_bound=float("inf"),
        best_order=(),
        stats=SearchStats(),
        trail=frontier._trail,
    )
    snapshot = loads_snapshot(blob)
    restored = snapshot.frontier
    assert isinstance(restored, BlockFrontier)
    # the restored store has the production 4096-row segments; give it back
    # its twin's segment size, so each twin keeps its own selection path
    restored._seg_shift = frontier._seg_shift
    restored._seg_size = frontier._seg_size
    restored._seg_mask = frontier._seg_mask
    n_seg = max(1, (restored._lb.shape[0] + restored._seg_mask) >> restored._seg_shift)
    restored._seg_key = np.full(n_seg, np.iinfo(np.int64).max, np.int64)
    restored._seg_krow = np.zeros(n_seg, dtype=np.int32)
    restored._seg_omax = np.zeros(n_seg, dtype=np.int32)
    restored._seg_orow = np.zeros(n_seg, dtype=np.int32)
    restored._seg_dirty = np.ones(n_seg, dtype=bool)
    restored._seg_any_dirty = True
    return restored


@st.composite
def _op(draw):
    kind = draw(
        st.sampled_from(["push", "push", "pops", "batch", "tie", "prune", "snapshot"])
    )
    if kind == "push":
        lbs = draw(st.lists(st.integers(0, 30), min_size=1, max_size=10))
        depths = draw(
            st.lists(
                st.integers(0, N_JOBS - 1),
                min_size=len(lbs),
                max_size=len(lbs),
            )
        )
        return ("push", lbs, depths)
    if kind == "pops":
        return ("pops", draw(st.integers(1, 5)))
    if kind == "batch":
        return (
            "batch",
            draw(st.integers(1, 7)),
            draw(st.one_of(st.none(), st.integers(5, 28))),
        )
    if kind == "prune":
        return ("prune", draw(st.integers(1, 28)))
    return (kind,)


class TestSegmentedLinearEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(_op(), min_size=1, max_size=25),
        cap=st.sampled_from([None, 12, 25]),
    )
    def test_random_interleavings_agree_pop_for_pop(self, ops, cap):
        frontiers = {k: _frontier(k, cap) for k in ("linear", "segmented")}
        order = 0
        for step in ops:
            logs = {}
            for kind in ("linear", "segmented"):
                f = frontiers[kind]
                log = []
                if step[0] == "push":
                    _, lbs, depths = step
                    f.push_block(_block(f, lbs, depths, order))
                elif step[0] == "pops":
                    for _ in range(min(step[1], len(f))):
                        row = f.peek_best()
                        log.append(tuple(int(x) for x in f.row_view(row)[:3]))
                        f.discard(row)
                elif step[0] == "batch" and len(f):
                    _, max_nodes, ub = step
                    block, pruned = f.pop_batch(
                        max_nodes, upper_bound=None if ub is None else float(ub)
                    )
                    log.append(
                        (
                            "batch",
                            pruned,
                            block.lower_bound.tolist(),
                            block.depth.tolist(),
                            block.order_index.tolist(),
                        )
                    )
                elif step[0] == "tie" and len(f):
                    block = f.pop_min_tie_batch()
                    if block is None:
                        log.append(("tie", None))
                    else:
                        log.append(("tie", block.order_index.tolist()))
                elif step[0] == "prune" and len(f):
                    log.append(("prune", f.prune_to(float(step[1]))))
                elif step[0] == "snapshot":
                    frontiers[kind] = f = _roundtrip(f)
                log.append(
                    (
                        "state",
                        len(f),
                        f.best_lower_bound(),
                        f.restricted,
                        f.regime_switches,
                    )
                )
                logs[kind] = log
            if step[0] == "push":
                order += len(step[1])
            assert logs["linear"] == logs["segmented"], (step, logs)


class TestCapHysteresis:
    def test_regime_enters_at_cap_and_exits_below_low_water(self):
        cap = 10
        low_water = int(CAP_LOW_WATER_FRACTION * cap)  # 8
        f = _frontier("segmented", cap)
        f.push_block(_block(f, [5] * cap, [1] * cap, 0))
        assert f.restricted
        assert f.regime_switches == 1
        # draining to [low_water, cap) must NOT leave the regime: the
        # pre-hysteresis rule (restricted iff size >= cap) would flap
        # back to best-first here on every single pop
        while len(f) > low_water:
            f.discard(f.peek_best())
            assert f.restricted
            assert f.regime_switches == 1
        # the exit is strict: AT the low-water mark the regime still holds
        assert len(f) == low_water
        assert f.restricted
        # one pop strictly below the low-water mark releases it, once
        f.discard(f.peek_best())
        assert not f.restricted
        assert f.regime_switches == 2

    def test_boundary_oscillation_counts_two_switches_not_many(self):
        cap = 10
        f = _frontier("segmented", cap)
        order = 0
        f.push_block(_block(f, [5] * cap, [1] * cap, order))
        order += cap
        # oscillate around the cap boundary: pop one, push one, 20 times;
        # the stateless rule would register a switch on every iteration
        for _ in range(20):
            assert f.restricted
            f.discard(f.peek_best())
            assert f.restricted  # still >= low water
            f.push_block(_block(f, [5], [1], order))
            order += 1
        assert f.regime_switches == 1

    def test_restricted_pops_deepest_across_segments(self):
        # while restricted, selection is depth-first (max creation index)
        # and must stay exact when the winner sits in a far segment
        f = _frontier("segmented", 9)
        f.push_block(_block(f, list(range(9)), [1] * 9, 0))
        assert f.restricted
        row = f.peek_best()
        assert int(f.row_view(row)[2]) == 8  # newest node, not best bound

    def test_snapshot_preserves_regime_state(self):
        f = _frontier("segmented", 10)
        f.push_block(_block(f, [5] * 10, [1] * 10, 0))
        assert f.restricted and f.regime_switches == 1
        f.discard(f.peek_best())  # size 9: restricted only via hysteresis
        restored = _roundtrip(f)
        assert restored.restricted
        assert restored.regime_switches == 1


class TestPopBatchSingleScan:
    def _counting(self, f):
        calls = {"n": 0}
        original = f._best_prefix

        def counted(count):
            calls["n"] += 1
            return original(count)

        f._best_prefix = counted
        return calls

    @pytest.mark.parametrize("kind", ["linear", "segmented"])
    def test_nothing_pruned_costs_one_selection_pass(self, kind):
        f = _frontier(kind, None)
        f.push_block(_block(f, list(range(20)), [1] * 20, 0))
        calls = self._counting(f)
        block, pruned = f.pop_batch(6, upper_bound=100.0)
        assert calls["n"] == 1
        assert pruned == 0
        assert block.lower_bound.tolist() == list(range(6))

    @pytest.mark.parametrize("kind", ["linear", "segmented"])
    def test_partial_fill_drains_and_drops_stale(self, kind):
        f = _frontier(kind, None)
        f.push_block(_block(f, list(range(20)), [1] * 20, 0))
        calls = self._counting(f)
        block, pruned = f.pop_batch(6, upper_bound=4.0)
        assert calls["n"] == 1
        assert pruned == 16
        assert block.lower_bound.tolist() == [0, 1, 2, 3]
        assert len(f) == 0

    @pytest.mark.parametrize("kind", ["linear", "segmented"])
    def test_all_stale_drains_everything(self, kind):
        f = _frontier(kind, None)
        f.push_block(_block(f, list(range(5, 25)), [1] * 20, 0))
        block, pruned = f.pop_batch(6, upper_bound=5.0)
        assert pruned == 20
        assert len(block) == 0
        assert len(f) == 0
