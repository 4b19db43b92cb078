"""Unit tests for the structure-of-arrays frontier (:mod:`repro.bb.frontier`)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb import frontier as frontier_module
from repro.bb.driver import SearchDriver
from repro.bb.frontier import (
    NO_BOUND,
    BlockFrontier,
    NodeBlock,
    Trail,
    bound_block,
    branch_block,
    branch_row,
    eliminate_block,
    root_block,
    seed_block,
)
from repro.bb.stats import SearchStats
from repro.flowshop import FlowShopInstance
import repro.flowshop.bounds as bounds
import repro.flowshop.schedule as schedule_module
from repro.flowshop.bounds import (
    LowerBoundData,
    _v2_value_bound,
    lower_bound,
    lower_bound_batch,
    pack_mask,
    unpack_mask,
)
from repro.flowshop.schedule import job_cumulative_times, machine_scan, partial_completion_times


class TestTrail:
    def test_root_prefix_is_empty(self):
        trail = Trail()
        root = trail.append_root()
        assert trail.prefix(root) == ()

    def test_prefix_walks_ancestry(self):
        trail = Trail()
        root = trail.append_root()
        a = trail.append(root, 3)
        b = trail.append(a, 1)
        c = trail.append(b, 4)
        assert trail.prefix(c) == (3, 1, 4)
        assert trail.prefix(b) == (3, 1)

    def test_append_batch_scalar_parent(self):
        trail = Trail(capacity=1)  # force growth
        root = trail.append_root()
        ids = trail.append_batch(root, np.array([2, 0, 1]))
        assert [trail.prefix(i) for i in ids] == [(2,), (0,), (1,)]


class TestRootAndSeed:
    def test_root_block(self, small_instance):
        trail = Trail()
        root = root_block(small_instance, trail)
        assert len(root) == 1
        assert root.mask_bits.shape == (1, (small_instance.n_jobs + 7) // 8)
        assert not root.mask_bits.any()
        assert (root.release == 0).all()
        assert root.lower_bound[0] == NO_BOUND
        assert root.depth[0] == 0
        assert root.trail_id[0] == 0
        assert root.prefix(0) == ()

    def test_seed_block_matches_node_chain(self, small_instance):
        prefix = (2, 0, 4)
        trail = Trail()
        seed = seed_block(small_instance, prefix, trail)
        assert np.array_equal(seed.release[0], partial_completion_times(small_instance, prefix))
        assert seed.prefix(0) == prefix
        assert seed.depth[0] == len(prefix)
        # the id a per-search counter assigns after a root-to-seed chain
        assert seed.trail_id[0] == len(prefix)

    def test_seed_block_rejects_duplicates(self, small_instance):
        with pytest.raises(ValueError):
            seed_block(small_instance, (1, 1), Trail())


class TestBranchBlock:
    def test_children_follow_the_schedule_recurrence(self, medium_instance):
        trail = Trail()
        root = root_block(medium_instance, trail)
        children = branch_block(root, medium_instance.processing_times)
        assert len(children) == medium_instance.n_jobs
        for job in range(medium_instance.n_jobs):
            expected = partial_completion_times(medium_instance, (job,))
            assert np.array_equal(children.release[job], expected)
            assert np.flatnonzero(_bool_mask(children)[job]).tolist() == [job]
            assert children.prefix(job) == (job,)
            assert children.depth[job] == 1
            assert children.trail_id[job] == 1 + job

    def test_branch_row_matches_branch_block(self, medium_instance):
        trail_a, trail_b = Trail(), Trail()
        root_a = root_block(medium_instance, trail_a)
        root_b = root_block(medium_instance, trail_b)
        via_block = branch_block(root_a, medium_instance.processing_times)
        via_row = branch_row(
            root_b.mask_bits[0],
            root_b.release[0],
            0,
            int(root_b.trail_id[0]),
            trail_b,
            medium_instance.processing_times,
        )
        assert np.array_equal(via_block.release, via_row.release)
        assert np.array_equal(via_block.mask_bits, via_row.mask_bits)
        assert np.array_equal(via_block.trail_id, via_row.trail_id)

    def test_empty_block_yields_no_children(self, small_instance):
        trail = Trail()
        empty = NodeBlock.empty(small_instance.n_jobs, small_instance.n_machines, trail)
        children = branch_block(empty, small_instance.processing_times)
        assert len(children) == 0

    def test_all_leaf_batch_yields_no_children(self, tiny_instance):
        # a block of complete schedules has nothing to branch
        trail = Trail()
        block = root_block(tiny_instance, trail)
        for _ in range(tiny_instance.n_jobs):
            block = branch_block(block, tiny_instance.processing_times)
        assert block.is_leaf_mask.all()
        assert (block.lower_bound == block.makespans).all()  # leaves pre-bounded
        assert len(branch_block(block, tiny_instance.processing_times)) == 0


class TestPackedBranching:
    """The packed rows branching writes unpack to the bool sets of the trail."""

    @given(
        st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 24, 25]),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_child_bits_unpack_to_the_bool_reference(self, n, m, n_parents, seed):
        rng = np.random.default_rng(seed)
        instance = FlowShopInstance(rng.integers(1, 60, size=(n, m)))
        pt = instance.processing_times
        trail = Trail()
        # parents of mixed depths, packed by seed_block
        seeds = [
            seed_block(instance, tuple(rng.permutation(n)[: rng.integers(0, n + 1)]), trail)
            for _ in range(n_parents)
        ]
        columns = ("mask_bits", "release", "lower_bound", "depth", "trail_id")
        parents = NodeBlock(
            **{name: np.concatenate([getattr(b, name) for b in seeds]) for name in columns},
            trail=trail,
            n_jobs=n,
        )
        children = branch_block(parents, pt)
        reference = np.zeros((len(children), n), dtype=bool)
        for row in range(len(children)):
            reference[row, list(children.prefix(row))] = True
        assert children.mask_bits.dtype == np.uint8
        assert np.array_equal(unpack_mask(children.mask_bits, n), reference)
        assert np.array_equal(children.mask_bits, pack_mask(reference))  # padding stays zero
        assert children.jobs.dtype == np.int32
        assert children.jobs.tolist() == [children.prefix(row)[-1] for row in range(len(children))]
        # branch_row on each parent's packed row writes that parent's children
        start = 0
        for i in range(len(parents)):
            via_row = branch_row(
                parents.mask_bits[i],
                parents.release[i],
                int(parents.depth[i]),
                int(parents.trail_id[i]),
                trail,
                pt,
            )
            rows = slice(start, start + len(via_row))
            assert np.array_equal(via_row.mask_bits, children.mask_bits[rows])
            assert np.array_equal(via_row.release, children.release[rows])
            if len(via_row):  # a complete parent gets an empty block, no jobs
                assert np.array_equal(via_row.jobs, children.jobs[rows])
            start += len(via_row)
        assert start == len(children)


class TestReleaseRecurrence:
    """Every release time branching writes is the schedule recurrence's."""

    @given(
        st.sampled_from([1, 7, 8, 9, 17, 40]),
        st.sampled_from([1, 2, 5, 20]),
        st.integers(1, 6),
        st.integers(1, 3),
        st.sampled_from([1, 2, 256]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_release_equals_partial_completion_times(
        self, n, m, n_parents, chunk, column_rows, seed
    ):
        rng = np.random.default_rng(seed)
        instance = FlowShopInstance(rng.integers(0, 99, size=(n, m)))
        pt = instance.processing_times

        def assert_recurrence(block):
            for row in range(len(block)):
                want = partial_completion_times(instance, block.prefix(row))
                assert np.array_equal(block.release[row], want)

        trail = Trail()
        seeds = [
            seed_block(instance, tuple(rng.permutation(n)[: rng.integers(0, n + 1)]), trail)
            for _ in range(n_parents)
        ]
        columns = ("mask_bits", "release", "lower_bound", "depth", "trail_id")
        parents = NodeBlock(
            **{name: np.concatenate([getattr(b, name) for b in seeds]) for name in columns},
            trail=trail,
            n_jobs=n,
        )
        assert_recurrence(parents)
        # chunks of 1-3 rows put chunk edges inside a parent's children; a
        # column threshold of 1 or 2 rows sends them to the column form
        with mock.patch.object(frontier_module, "_ROW_CHUNK", chunk):
            with mock.patch.object(schedule_module, "_COLUMN_SCAN_MIN_ROWS", column_rows):
                assert_recurrence(branch_block(parents, pt))
                for i in range(len(parents)):
                    assert_recurrence(
                        branch_row(
                            parents.mask_bits[i],
                            parents.release[i],
                            int(parents.depth[i]),
                            int(parents.trail_id[i]),
                            trail,
                            pt,
                        )
                    )
                # the in-place advance the autotuner builds its parents with
                depth = int(rng.integers(0, n + 1))
                prefixes = np.argsort(rng.random((n_parents, n)), axis=1)[:, :depth]
                release = np.zeros((n_parents, m), dtype=np.int32)
                after, before = job_cumulative_times(pt)
                for jobs in prefixes.T:
                    machine_scan(release, jobs, after, before, out=release)
        for row, prefix in zip(release, prefixes):
            assert np.array_equal(row, partial_completion_times(instance, prefix))


class TestBoundBlock:
    def _deep_block(self, instance, data, rng):
        trail = Trail()
        block = root_block(instance, trail)
        bound_block(data, block)
        depth = int(rng.integers(0, instance.n_jobs - 1))
        for _ in range(depth):
            block = branch_block(block, instance.processing_times)
            rows = rng.choice(len(block), size=min(3, len(block)), replace=False)
            block = block.take(np.sort(rows))
        return block

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_v1_kernel(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 6))
        instance = FlowShopInstance(rng.integers(1, 60, size=(n, m)))
        data = LowerBoundData(instance)
        block = self._deep_block(instance, data, rng)
        children = branch_block(block, instance.processing_times)
        if not len(children):
            return
        # the v1 reference
        probe = children.take(np.arange(len(children)))
        got = bound_block(data, probe)
        want = lower_bound_batch(data, _bool_mask(probe), probe.release)
        assert np.array_equal(got, want)
        assert np.array_equal(probe.lower_bound, want)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_sibling_path_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, 6))
        instance = FlowShopInstance(rng.integers(1, 60, size=(n, m)))
        data = LowerBoundData(instance)
        trail = Trail()
        block = root_block(instance, trail)
        depth = int(rng.integers(0, n - 1))
        for _ in range(depth):
            children = branch_block(block, instance.processing_times)
            block = children.take(np.array([rng.integers(len(children))]))
        siblings = branch_block(block, instance.processing_times)
        got = bound_block(data, siblings)
        want = lower_bound_batch(data, _bool_mask(siblings), siblings.release)
        assert np.array_equal(got, want)

    def test_v1_kernel_path(self, medium_instance):
        """v1 is no kernel of the operator any more; as a reference it agrees."""
        data = LowerBoundData(medium_instance)
        trail = Trail()
        root = root_block(medium_instance, trail)
        children = branch_block(root, medium_instance.processing_times)
        with pytest.raises(ValueError, match="'v2' or 'scalar'"):
            bound_block(data, children, kernel="v1")
        assert (children.lower_bound == NO_BOUND).all()  # refused before bounding
        got = bound_block(data, children)
        want = lower_bound_batch(data, _bool_mask(children), children.release)
        assert np.array_equal(got, want)

    def test_empty_block(self, small_instance):
        data = LowerBoundData(small_instance)
        empty = NodeBlock.empty(small_instance.n_jobs, small_instance.n_machines, Trail())
        assert bound_block(data, empty).shape == (0,)


def _equal_depth_parents(instance, depth, count, rng):
    """Up to ``count`` distinct branch-built parents at ``depth`` (one trail)."""
    pt = instance.processing_times
    block = root_block(instance, Trail())
    for _ in range(depth):
        children = branch_block(block, pt)
        rows = rng.choice(len(children), size=min(count, len(children)), replace=False)
        block = children.take(np.sort(rows))
    return block


def _scalar_bounds(data, block):
    """The paper's one-call-per-sub-problem bound of every row."""
    mask = _bool_mask(block)
    return np.array(
        [
            lower_bound(data, np.flatnonzero(mask[row]), release=block.release[row])
            for row in range(len(block))
        ],
        dtype=np.int64,
    )


class TestGroupedSiblings:
    """The bounding operator on the complete child sets of k equal-depth parents."""

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_bound(self, seed, big):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        m = int(rng.integers(2, 7))
        low = 1 << 19 if big else 1  # big: the float64 tier of the fused GEMM
        instance = FlowShopInstance(rng.integers(low, 2 * low + 60, size=(n, m)))
        data = LowerBoundData(instance)
        depth = int(rng.integers(0, n - 1))  # parents down to depth n - 2
        most = max(1, 512 // (n - depth))  # up to 512 rows
        parents = _equal_depth_parents(instance, depth, int(rng.integers(1, most + 1)), rng)
        children = branch_block(parents, instance.processing_times)
        want = _scalar_bounds(data, children)
        got = bound_block(data, children)
        assert np.array_equal(got, want)
        assert np.array_equal(children.lower_bound, want)
        if big:
            assert _v2_value_bound(data, children.release) >= 2**24

    @pytest.mark.parametrize(
        "n, depth, count",
        [
            (10, 0, 1),  # the root's children: one group
            (10, 2, 64),  # 64 parents x 8 children: 512 rows
            (8, 6, 100),  # depth n - 2: two children per parent
        ],
    )
    def test_fused_path_bounds_per_group(self, monkeypatch, n, depth, count):
        """One v2 call per block, with the ``jobs`` column, in one GEMM product."""
        instance = FlowShopInstance(np.random.default_rng(n + depth).integers(1, 99, size=(n, 5)))
        data = LowerBoundData(instance)
        parents = _equal_depth_parents(instance, depth, count, np.random.default_rng(count))
        assert len(parents) == count
        children = branch_block(parents, instance.processing_times)
        launches = []
        real = bounds.BATCH_KERNELS["v2"]

        def spy(data, mask, release, jobs=None, **kwargs):
            launches.append((len(mask), jobs))
            return real(data, mask, release, jobs=jobs, **kwargs)

        monkeypatch.setitem(bounds.BATCH_KERNELS, "v2", spy)
        probe = children.take(np.arange(len(children)))
        got = bound_block(data, probe)
        assert np.array_equal(got, _scalar_bounds(data, probe))
        rows, jobs = launches.pop()
        assert rows == count * (n - depth) and jobs is probe.jobs
        assert not launches

    def test_above_the_cap_takes_the_kernel(self, monkeypatch):
        """Above 512 rows, as below: the same single kernel call, exact."""
        instance = FlowShopInstance(np.random.default_rng(7).integers(1, 99, size=(10, 5)))
        data = LowerBoundData(instance)
        parents = _equal_depth_parents(instance, 2, 65, np.random.default_rng(1))
        children = branch_block(parents, instance.processing_times)
        assert len(children) > 512
        launches = []
        real = bounds.BATCH_KERNELS["v2"]

        def spy(*args, **kwargs):
            launches.append(len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setitem(bounds.BATCH_KERNELS, "v2", spy)
        got = bound_block(data, children)
        assert launches == [len(children)]
        assert np.array_equal(got, _scalar_bounds(data, children))

    @pytest.mark.parametrize("kernel", ["v1", "scalar"])
    def test_other_kernels(self, kernel):
        """The scalar loop bounds sibling blocks exactly; v1 is a reference only."""
        instance = FlowShopInstance(np.random.default_rng(3).integers(1, 99, size=(8, 4)))
        data = LowerBoundData(instance)
        parents = _equal_depth_parents(instance, 3, 12, np.random.default_rng(2))
        children = branch_block(parents, instance.processing_times)
        if kernel == "v1":
            with pytest.raises(ValueError):
                bound_block(data, children, kernel=kernel)
            got = lower_bound_batch(data, _bool_mask(children), children.release)
        else:
            got = bound_block(data, children, kernel=kernel)
        assert np.array_equal(got, _scalar_bounds(data, children))


class TestEliminateBlock:
    def _bounded_children(self, instance):
        data = LowerBoundData(instance)
        trail = Trail()
        children = branch_block(root_block(instance, trail), instance.processing_times)
        bound_block(data, children)
        return children

    def test_strict_threshold(self, medium_instance):
        children = self._bounded_children(medium_instance)
        threshold = float(np.median(children.lower_bound))
        survivors, pruned = eliminate_block(children, threshold)
        assert pruned == int((children.lower_bound >= threshold).sum())
        assert (survivors.lower_bound < threshold).all()
        assert len(survivors) + pruned == len(children)

    def test_empty_block(self, small_instance):
        empty = NodeBlock.empty(small_instance.n_jobs, small_instance.n_machines, Trail())
        survivors, pruned = eliminate_block(empty, 100.0)
        assert len(survivors) == 0 and pruned == 0

    def test_all_pruned_batch(self, medium_instance):
        children = self._bounded_children(medium_instance)
        survivors, pruned = eliminate_block(children, 0.0)
        assert pruned == len(children)
        assert len(survivors) == 0

    def test_unbounded_rejected(self, medium_instance):
        trail = Trail()
        root = root_block(medium_instance, trail)
        children = branch_block(root, medium_instance.processing_times)
        with pytest.raises(ValueError):
            eliminate_block(children, 1e9)


def _random_block(rng, n_jobs, n_machines, trail, count, first_id=0):
    """A block of synthetic bounded nodes with ids from ``first_id`` (pool tests only)."""
    mask = rng.random((count, n_jobs)) < 0.4
    return NodeBlock(
        mask_bits=pack_mask(mask),
        release=rng.integers(0, 50, size=(count, n_machines)).astype(np.int64),
        lower_bound=rng.integers(0, 12, size=count).astype(np.int64),
        depth=mask.sum(axis=1).astype(np.int64),
        trail_id=np.arange(first_id, first_id + count, dtype=np.int64),
        trail=trail,
        n_jobs=n_jobs,
    )


def _bool_mask(block):
    """The block's scheduled sets, one bool per job (the v1 reference's input)."""
    return unpack_mask(block.mask_bits, block.n_jobs)


class TestBlockFrontier:
    @pytest.mark.parametrize("strategy", ["best-first", "depth-first", "fifo"])
    def test_pop_order_matches_reference(self, strategy):
        rng = np.random.default_rng(7)
        trail = Trail()
        trail.append_root()
        frontier = BlockFrontier(6, 3, trail, strategy=strategy)
        keys = []
        for first_id in range(0, 60, 15):
            block = _random_block(rng, 6, 3, trail, 15, first_id)
            frontier.push_block(block)
            keys.extend(
                (int(block.lower_bound[i]), int(block.depth[i]), int(block.trail_id[i]))
                for i in range(len(block))
            )
        if strategy == "best-first":
            expected = sorted(keys)
        elif strategy == "depth-first":
            expected = sorted(keys, key=lambda k: -k[2])
        else:
            expected = sorted(keys, key=lambda k: k[2])
        popped = []
        while frontier:
            block, _ = frontier.pop_batch(1)
            popped.append(
                (int(block.lower_bound[0]), int(block.depth[0]), int(block.trail_id[0]))
            )
        assert popped == expected

    def test_pop_batch_semantics_match_select_batch(self):
        # lazy pruning parity: stale nodes met while filling the batch are
        # dropped; draining the pool drops every remaining stale node
        rng = np.random.default_rng(3)
        trail = Trail()
        trail.append_root()
        frontier = BlockFrontier(6, 3, trail)
        block = _random_block(rng, 6, 3, trail, 40)
        frontier.push_block(block)
        threshold = 6.0
        n_fresh = int((block.lower_bound < threshold).sum())
        batch, pruned = frontier.pop_batch(10, upper_bound=threshold)
        assert len(batch) == min(10, n_fresh)
        assert (batch.lower_bound < threshold).all()
        if n_fresh >= 10:
            assert pruned == 0
        remaining_fresh = n_fresh - len(batch)
        batch2, pruned2 = frontier.pop_batch(1000, upper_bound=threshold)
        assert len(batch2) == remaining_fresh
        assert len(frontier) == 0  # drained
        assert pruned + pruned2 == 40 - n_fresh

    def test_pop_min_tie_batch_pops_min_group(self):
        rng = np.random.default_rng(11)
        trail = Trail()
        trail.append_root()
        frontier = BlockFrontier(6, 3, trail)
        block = _random_block(rng, 6, 3, trail, 60)
        frontier.push_block(block)
        pairs = list(zip(block.lower_bound.tolist(), block.depth.tolist()))
        best = min(pairs)
        expected = sum(1 for p in pairs if p == best)
        batch = frontier.pop_min_tie_batch()
        assert batch is not None
        assert len(batch) == expected
        assert (batch.lower_bound == best[0]).all()
        assert (batch.depth == best[1]).all()
        # in pop (creation) order
        assert list(batch.trail_id) == sorted(batch.trail_id)

    def test_prune_to_counts_and_preserves_survivors(self):
        rng = np.random.default_rng(5)
        trail = Trail()
        trail.append_root()
        frontier = BlockFrontier(6, 3, trail)
        block = _random_block(rng, 6, 3, trail, 50)
        frontier.push_block(block)
        removed = frontier.prune_to(5.0)
        assert removed == int((block.lower_bound >= 5.0).sum())
        assert len(frontier) == 50 - removed
        while frontier:
            popped, _ = frontier.pop_batch(1)
            assert popped.lower_bound[0] < 5.0

    def test_prune_to_empty_frontier(self, small_instance):
        frontier = BlockFrontier(small_instance.n_jobs, small_instance.n_machines, Trail())
        assert frontier.prune_to(10.0) == 0

    def test_pop_from_empty(self, small_instance):
        frontier = BlockFrontier(small_instance.n_jobs, small_instance.n_machines, Trail())
        block, pruned = frontier.pop_batch(4)
        assert len(block) == 0 and pruned == 0
        with pytest.raises(IndexError):
            frontier.peek_best()

    def test_max_size_seen(self):
        rng = np.random.default_rng(2)
        trail = Trail()
        trail.append_root()
        frontier = BlockFrontier(6, 3, trail, capacity=4)  # force growth
        frontier.push_block(_random_block(rng, 6, 3, trail, 30))
        frontier.pop_batch(25)
        assert frontier.max_size_seen == 30
        assert len(frontier) == 5

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            BlockFrontier(4, 2, Trail(), strategy="nope")


class TestExecutorBlock:
    def test_evaluate_block_writes_bounds(self, medium_instance):
        from repro.gpu.executor import GpuExecutor

        data = LowerBoundData(medium_instance)
        executor = GpuExecutor(data)
        trail = Trail()
        root = root_block(medium_instance, trail)
        children = branch_block(root, medium_instance.processing_times)
        result = executor.evaluate_block(children)
        want = lower_bound_batch(data, _bool_mask(children), children.release)
        assert np.array_equal(result.bounds, want)
        assert np.array_equal(children.lower_bound, want)


def _seeded_twin(instance, data, prefixes, capacity, segment_shift) -> BlockFrontier:
    """A frontier holding the bounded nodes reached by ``prefixes``."""
    trail = Trail()
    frontier = BlockFrontier(
        instance.n_jobs,
        instance.n_machines,
        trail,
        capacity=capacity,
        segment_shift=segment_shift,
    )
    for prefix in prefixes:
        seed = seed_block(instance, prefix, trail)
        bound_block(data, seed)
        frontier.push_block(seed)
    return frontier


def _assert_same_store(a: BlockFrontier, b: BlockFrontier) -> None:
    assert len(a) == len(b)
    assert a.max_size_seen == b.max_size_seen
    assert a._packed == b._packed
    size = len(a)
    for name in BlockFrontier._ARRAYS:
        if name != "_key" or a._packed:
            assert np.array_equal(getattr(a, name)[:size], getattr(b, name)[:size]), name
    if a._packed:
        want = (
            (a._lb[:size].astype(np.int64) << 41)
            | (a._depth[:size].astype(np.int64) << 32)
            | a._tid[:size]
        )
        assert np.array_equal(a._key[:size], want)
        a._seg_refresh()
        b._seg_refresh()
        n_seg = a._n_segments()
        assert np.array_equal(a._seg_key[:n_seg], b._seg_key[:n_seg])
        assert np.array_equal(a._seg_krow[:n_seg], b._seg_krow[:n_seg])


def _assert_same_block(a: NodeBlock, b: NodeBlock) -> None:
    for _, column in BlockFrontier._COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


@st.composite
def _batch_iterations(draw):
    n = draw(st.integers(3, 9))
    m = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    leaf_parents = draw(st.booleans())
    depths = draw(
        st.lists(
            st.just(n - 1) if leaf_parents else st.integers(0, n),
            min_size=1,
            max_size=12,
        )
    )
    return dict(
        instance=FlowShopInstance(rng.integers(1, 100, size=(n, m))),
        prefixes=[tuple(rng.permutation(n)[:depth].tolist()) for depth in depths],
        pool=draw(st.integers(1, 8)),
        keep=draw(st.sampled_from(["all", "none", "random", "bound", "unmasked"])),
        big_bound=draw(st.booleans()),
        chunk=draw(st.sampled_from([1, 2, 3, 4096])),
        capacity=draw(st.sampled_from([1, 4, 64])),
        segment_shift=draw(st.sampled_from([1, 2, 12])),
        iterations=draw(st.integers(1, 3)),
        seed=seed,
    )


def _keep(rule: str, children: NodeBlock, rng) -> np.ndarray | None:
    count = len(children)
    if rule == "unmasked":
        return None
    if rule == "all":
        return np.ones(count, dtype=bool)
    if rule == "none":
        return np.zeros(count, dtype=bool)
    if rule == "random":
        return rng.random(count) < 0.5
    return children.lower_bound < (np.median(children.lower_bound) if count else 0)


def _batch_iteration(frontier, case, data, rng, reserved):
    """One select-branch-bound-insert step; returns the children and ``keep``.

    ``reserved`` writes the children into the store's free rows, as the
    batch loop does; otherwise they get a block of their own.
    """
    instance = case["instance"]
    parents, _ = frontier.pop_batch(case["pool"])
    count = instance.n_jobs * len(parents) - int(parents.depth.sum())
    out = frontier.reserve(count) if reserved else None
    children = branch_block(parents, instance.processing_times, out)
    assert len(children) == count
    bound_block(data, children)
    keep = _keep(case["keep"], children, rng)
    if case["big_bound"] and count:
        # a bound past the packed key's 22 bits turns packing off
        children.lower_bound[count // 2] = 1 << 22
        if keep is not None:
            keep[count // 2] = True
    return children, keep


class TestReservedRows:
    """A batch iteration through reserved rows leaves the very store that
    allocating the children and copying their survivors in leaves."""

    @settings(max_examples=120, deadline=None)
    @given(case=_batch_iterations())
    def test_iteration_matches_the_allocated_children(self, case):
        instance = case["instance"]
        data = LowerBoundData(instance)
        reserved, allocated = [
            _seeded_twin(instance, data, case["prefixes"], case["capacity"], case["segment_shift"])
            for _ in range(2)
        ]
        with mock.patch.object(frontier_module, "_ROW_CHUNK", case["chunk"]):
            for iteration in range(case["iterations"]):
                seed = case["seed"] + iteration
                rng = np.random.default_rng(seed)
                children, keep = _batch_iteration(reserved, case, data, rng, True)
                reserved.push_block(children, keep)

                rng = np.random.default_rng(seed)
                children, keep = _batch_iteration(allocated, case, data, rng, False)
                live = len(allocated)
                rows = slice(None) if keep is None else keep
                expected = {
                    store: np.concatenate(
                        [getattr(allocated, store)[:live], getattr(children, column)[rows]]
                    )
                    for store, column in BlockFrontier._COLUMNS
                }
                allocated.push_block(children, keep)

                _assert_same_store(reserved, allocated)
                # an independent account of the store: the rows left after
                # the pop, then the survivors in creation order
                for store, want in expected.items():
                    assert np.array_equal(getattr(reserved, store)[: len(reserved)], want)
        if case["big_bound"] and len(children) and case["keep"] != "none":
            assert not reserved._packed
        next_reserved = reserved.pop_batch(case["pool"], upper_bound=float(2**21))
        next_allocated = allocated.pop_batch(case["pool"], upper_bound=float(2**21))
        _assert_same_block(next_reserved[0], next_allocated[0])
        assert next_reserved[1] == next_allocated[1]

    def test_reservation_is_invisible_until_admitted(self, medium_instance):
        data = LowerBoundData(medium_instance)
        frontier = _seeded_twin(medium_instance, data, [(), (1,), (2, 0)], 1, 12)
        before = frontier._lb[:3].copy()
        reserved = frontier.reserve(7)
        reserved.lower_bound[:] = 0
        assert len(frontier) == 3
        assert np.array_equal(frontier._lb[:3], before)
        assert frontier.best_lower_bound() == int(before.min())
        batch, _ = frontier.pop_batch(5)
        assert len(batch) == 3 and len(frontier) == 0

    def test_push_copies_a_foreign_block_across_chunks(self, medium_instance, monkeypatch):
        monkeypatch.setattr(frontier_module, "_ROW_CHUNK", 2)
        n, m = medium_instance.n_jobs, medium_instance.n_machines
        trail = Trail()
        root = root_block(medium_instance, trail)
        children = branch_block(root, medium_instance.processing_times)
        bound_block(LowerBoundData(medium_instance), children)
        frontier = BlockFrontier(n, m, trail, capacity=1)
        keep = np.arange(len(children)) % 3 != 1
        frontier.push_block(children, keep)
        for store, column in BlockFrontier._COLUMNS:
            want = getattr(children, column)[keep]
            assert np.array_equal(getattr(frontier, store)[: len(frontier)], want), column


class _RaisingOffload:
    """Bounds blocks in place until call ``fail_at``, which raises.

    Records the frontier as the failing launch finds it.
    """

    def __init__(self, data, frontier, fail_at):
        self.data, self.frontier, self.fail_at, self.calls = data, frontier, fail_at, 0
        self.seen = None

    def bound_block(self, block):
        self.calls += 1
        if self.calls == self.fail_at:
            frontier = self.frontier
            size = len(frontier)
            # the launch bounds the store's own free rows
            assert np.shares_memory(block.lower_bound, frontier._lb)
            self.seen = (
                size,
                {name: getattr(frontier, name)[:size].copy() for name in BlockFrontier._ARRAYS},
            )
            raise RuntimeError("device lost")
        bound_block(self.data, block)
        return block.lower_bound, 0.0, 0.0


class TestRaisingOffload:
    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_a_failed_launch_admits_no_row(self, medium_instance, fail_at):
        data = LowerBoundData(medium_instance)
        trail = Trail()
        frontier = BlockFrontier(medium_instance.n_jobs, medium_instance.n_machines, trail)
        root = root_block(medium_instance, trail)
        bound_block(data, root)
        frontier.push_block(root)
        offload = _RaisingOffload(data, frontier, fail_at)
        driver = SearchDriver(medium_instance, offload=offload, batch_size=8)
        with pytest.raises(RuntimeError, match="device lost"):
            driver.run(
                frontier,
                upper_bound=float("inf"),
                stats=SearchStats(nodes_bounded=1),
                trail=trail,
            )
        size, columns = offload.seen
        assert len(frontier) == size
        for name, column in columns.items():
            assert np.array_equal(getattr(frontier, name)[:size], column), name
