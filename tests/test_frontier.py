"""Unit tests for the structure-of-arrays frontier (:mod:`repro.bb.frontier`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb import frontier as frontier_module
from repro.bb.frontier import (
    _FUSED_MAX_BATCH,
    NO_BOUND,
    BlockFrontier,
    NodeBlock,
    Trail,
    bound_block,
    branch_block,
    branch_row,
    eliminate_block,
    make_frontier,
    root_block,
    seed_block,
)
from repro.flowshop import FlowShopInstance
from repro.flowshop.bounds import (
    LowerBoundData,
    _v2_value_bound,
    lower_bound,
    lower_bound_batch,
)
from repro.flowshop.schedule import partial_completion_times


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
        assert np.array_equal(trail.jobs_of(ids), [2, 0, 1])


class TestRootAndSeed:
    def test_root_block(self, small_instance):
        trail = Trail()
        root = root_block(small_instance, trail)
        assert len(root) == 1
        assert not root.scheduled_mask.any()
        assert (root.release == 0).all()
        assert root.lower_bound[0] == NO_BOUND
        assert root.depth[0] == 0
        assert root.order_index[0] == 0
        assert root.prefix(0) == ()

    def test_seed_block_matches_node_chain(self, small_instance):
        prefix = (2, 0, 4)
        trail = Trail()
        seed = seed_block(small_instance, prefix, trail)
        assert np.array_equal(seed.release[0], partial_completion_times(small_instance, prefix))
        assert seed.prefix(0) == prefix
        assert seed.depth[0] == len(prefix)
        # the index a per-search counter assigns after a root-to-seed chain
        assert seed.order_index[0] == len(prefix)

    def test_seed_block_rejects_duplicates(self, small_instance):
        with pytest.raises(ValueError):
            seed_block(small_instance, (1, 1), Trail())


class TestBranchBlock:
    def test_children_follow_the_schedule_recurrence(self, medium_instance):
        trail = Trail()
        root = root_block(medium_instance, trail)
        children = branch_block(root, medium_instance.processing_times, 1)
        assert len(children) == medium_instance.n_jobs
        for job in range(medium_instance.n_jobs):
            expected = partial_completion_times(medium_instance, (job,))
            assert np.array_equal(children.release[job], expected)
            assert np.flatnonzero(children.scheduled_mask[job]).tolist() == [job]
            assert children.prefix(job) == (job,)
            assert children.depth[job] == 1
            assert children.order_index[job] == 1 + job

    def test_branch_row_matches_branch_block(self, medium_instance):
        trail_a, trail_b = Trail(), Trail()
        root_a = root_block(medium_instance, trail_a)
        root_b = root_block(medium_instance, trail_b)
        via_block = branch_block(root_a, medium_instance.processing_times, 1)
        via_row = branch_row(
            root_b.scheduled_mask[0],
            root_b.release[0],
            0,
            int(root_b.trail_id[0]),
            trail_b,
            medium_instance.processing_times,
            1,
        )
        assert np.array_equal(via_block.release, via_row.release)
        assert np.array_equal(via_block.scheduled_mask, via_row.scheduled_mask)
        assert np.array_equal(via_block.order_index, via_row.order_index)

    def test_empty_block_yields_no_children(self, small_instance):
        trail = Trail()
        empty = NodeBlock.empty(small_instance.n_jobs, small_instance.n_machines, trail)
        children = branch_block(empty, small_instance.processing_times, 5)
        assert len(children) == 0

    def test_all_leaf_batch_yields_no_children(self, tiny_instance):
        # a block of complete schedules has nothing to branch
        trail = Trail()
        block = root_block(tiny_instance, trail)
        order = 1
        for _ in range(tiny_instance.n_jobs):
            block = branch_block(block, tiny_instance.processing_times, order)
            order += len(block)
        assert block.is_leaf_mask.all()
        assert (block.lower_bound == block.makespans).all()  # leaves pre-bounded
        assert len(branch_block(block, tiny_instance.processing_times, order)) == 0


class TestBoundBlock:
    def _deep_block(self, instance, data, rng):
        trail = Trail()
        block = root_block(instance, trail)
        bound_block(data, block)
        order = 1
        depth = int(rng.integers(0, instance.n_jobs - 1))
        for _ in range(depth):
            block = branch_block(block, instance.processing_times, order)
            order += len(block)
            rows = rng.choice(len(block), size=min(3, len(block)), replace=False)
            block = block.take(np.sort(rows))
        return block, order

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_v1_kernel(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 6))
        instance = FlowShopInstance(rng.integers(1, 60, size=(n, m)))
        data = LowerBoundData(instance)
        block, order = self._deep_block(instance, data, rng)
        children = branch_block(block, instance.processing_times, order)
        if not len(children):
            return
        for include in (False, True):
            probe = children.take(np.arange(len(children)))
            got = bound_block(data, probe, include_one_machine=include)
            want = lower_bound_batch(
                data, probe.scheduled_mask, probe.release, include_one_machine=include
            )
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
        order = 1
        depth = int(rng.integers(0, n - 1))
        for _ in range(depth):
            children = branch_block(block, instance.processing_times, order)
            order += len(children)
            block = children.take(np.array([rng.integers(len(children))]))
        siblings = branch_block(block, instance.processing_times, order)
        got = bound_block(data, siblings, siblings=True)
        want = lower_bound_batch(data, siblings.scheduled_mask, siblings.release)
        assert np.array_equal(got, want)

    def test_v1_kernel_path(self, medium_instance):
        data = LowerBoundData(medium_instance)
        trail = Trail()
        children = branch_block(
            root_block(medium_instance, trail), medium_instance.processing_times, 1
        )
        got = bound_block(data, children, kernel="v1")
        want = lower_bound_batch(data, children.scheduled_mask, children.release)
        assert np.array_equal(got, want)

    def test_empty_block(self, small_instance):
        data = LowerBoundData(small_instance)
        empty = NodeBlock.empty(small_instance.n_jobs, small_instance.n_machines, Trail())
        assert bound_block(data, empty).shape == (0,)


def _equal_depth_parents(instance, depth, count, rng):
    """Up to ``count`` distinct branch-built parents at ``depth`` (one trail)."""
    pt = instance.processing_times
    block = root_block(instance, Trail())
    order = 1
    for _ in range(depth):
        children = branch_block(block, pt, order)
        order += len(children)
        rows = rng.choice(len(children), size=min(count, len(children)), replace=False)
        block = children.take(np.sort(rows))
    return block, order


def _scalar_bounds(data, block, include_one_machine=False):
    """The paper's one-call-per-sub-problem bound of every row."""
    return np.array(
        [
            lower_bound(
                data,
                np.flatnonzero(block.scheduled_mask[row]),
                release=block.release[row],
                include_one_machine=include_one_machine,
            )
            for row in range(len(block))
        ],
        dtype=np.int64,
    )


class TestGroupedSiblings:
    """``siblings=True`` on the complete child sets of k equal-depth parents."""

    @given(st.integers(0, 10_000), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_bound(self, seed, big, include):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        m = int(rng.integers(2, 7))
        low = 1 << 19 if big else 1  # big: the float64 tier of the fused GEMM
        instance = FlowShopInstance(rng.integers(low, 2 * low + 60, size=(n, m)))
        data = LowerBoundData(instance)
        depth = int(rng.integers(0, n - 1))  # parents down to depth n - 2
        most = max(1, _FUSED_MAX_BATCH // (n - depth))  # up to the 512-row cap
        parents, order = _equal_depth_parents(instance, depth, int(rng.integers(1, most + 1)), rng)
        children = branch_block(parents, instance.processing_times, order)
        want = _scalar_bounds(data, children, include)
        got = bound_block(data, children, include, siblings=True)
        assert np.array_equal(got, want)
        assert np.array_equal(children.lower_bound, want)
        if big:
            assert _v2_value_bound(data, children.release) >= 2**24

    @pytest.mark.parametrize(
        "n, depth, count",
        [
            (10, 0, 1),  # the root's children: one group
            (10, 2, 64),  # 64 parents x 8 children: exactly the 512-row cap
            (8, 6, 100),  # depth n - 2: two children per parent
        ],
    )
    def test_fused_path_bounds_per_group(self, monkeypatch, n, depth, count):
        instance = FlowShopInstance(np.random.default_rng(n + depth).integers(1, 99, size=(n, 5)))
        data = LowerBoundData(instance)
        parents, order = _equal_depth_parents(instance, depth, count, np.random.default_rng(count))
        assert len(parents) == count
        children = branch_block(parents, instance.processing_times, order)
        groups = []
        real = frontier_module._sibling_qm

        def spy(jobs, group, fd):
            groups.append((len(jobs), group))
            return real(jobs, group, fd)

        monkeypatch.setattr(frontier_module, "_sibling_qm", spy)
        for include in (False, True):
            probe = children.take(np.arange(len(children)))
            got = bound_block(data, probe, include, siblings=True)
            assert np.array_equal(got, _scalar_bounds(data, probe, include))
        assert groups == [(count * (n - depth), n - depth)] * 2

    def test_above_the_cap_takes_the_kernel(self, monkeypatch):
        instance = FlowShopInstance(np.random.default_rng(7).integers(1, 99, size=(10, 5)))
        data = LowerBoundData(instance)
        parents, order = _equal_depth_parents(instance, 2, 65, np.random.default_rng(1))
        children = branch_block(parents, instance.processing_times, order)
        assert len(children) > _FUSED_MAX_BATCH
        monkeypatch.setattr(frontier_module, "_sibling_qm", None)  # must not be reached
        got = bound_block(data, children, siblings=True)
        assert np.array_equal(got, _scalar_bounds(data, children))

    @pytest.mark.parametrize("kernel", ["v1", "scalar"])
    def test_other_kernels(self, kernel):
        instance = FlowShopInstance(np.random.default_rng(3).integers(1, 99, size=(8, 4)))
        data = LowerBoundData(instance)
        parents, order = _equal_depth_parents(instance, 3, 12, np.random.default_rng(2))
        children = branch_block(parents, instance.processing_times, order)
        got = bound_block(data, children, kernel=kernel, siblings=True)
        assert np.array_equal(got, _scalar_bounds(data, children))


class TestEliminateBlock:
    def _bounded_children(self, instance):
        data = LowerBoundData(instance)
        trail = Trail()
        children = branch_block(root_block(instance, trail), instance.processing_times, 1)
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
        children = branch_block(
            root_block(medium_instance, trail), medium_instance.processing_times, 1
        )
        with pytest.raises(ValueError):
            eliminate_block(children, 1e9)


def _random_block(rng, n_jobs, n_machines, trail, count, order_start=0):
    """A block of synthetic bounded nodes (pool-behaviour tests only)."""
    mask = rng.random((count, n_jobs)) < 0.4
    return NodeBlock(
        scheduled_mask=mask,
        release=rng.integers(0, 50, size=(count, n_machines)).astype(np.int64),
        lower_bound=rng.integers(0, 12, size=count).astype(np.int64),
        depth=mask.sum(axis=1).astype(np.int64),
        order_index=np.arange(order_start, order_start + count, dtype=np.int64),
        trail_id=np.zeros(count, dtype=np.int64),
        trail=trail,
    )


class TestBlockFrontier:
    @pytest.mark.parametrize("strategy", ["best-first", "depth-first", "fifo"])
    def test_pop_order_matches_reference(self, strategy):
        rng = np.random.default_rng(7)
        trail = Trail()
        trail.append_root()
        frontier = BlockFrontier(6, 3, trail, strategy=strategy)
        keys = []
        order_start = 0
        for _ in range(4):
            block = _random_block(rng, 6, 3, trail, 15, order_start)
            order_start += 15
            frontier.push_block(block)
            keys.extend(
                (int(block.lower_bound[i]), int(block.depth[i]), int(block.order_index[i]))
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
                (int(block.lower_bound[0]), int(block.depth[0]), int(block.order_index[0]))
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
        assert list(batch.order_index) == sorted(batch.order_index)

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
        frontier = make_frontier(small_instance, Trail())
        assert frontier.prune_to(10.0) == 0

    def test_pop_from_empty(self, small_instance):
        frontier = make_frontier(small_instance, Trail())
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
        children = branch_block(
            root_block(medium_instance, trail), medium_instance.processing_times, 1
        )
        result = executor.evaluate_block(children)
        want = lower_bound_batch(data, children.scheduled_mask, children.release)
        assert np.array_equal(result.bounds, want)
        assert np.array_equal(children.lower_bound, want)
