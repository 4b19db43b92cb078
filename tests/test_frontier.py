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
        # the v1 reference, with and without its one-machine term
        for include in (False, True):
            probe = children.take(np.arange(len(children)))
            got = bound_block(data, probe)
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
        """v1 is no kernel of the operator any more; as a reference it agrees."""
        data = LowerBoundData(medium_instance)
        trail = Trail()
        children = branch_block(
            root_block(medium_instance, trail), medium_instance.processing_times, 1
        )
        with pytest.raises(ValueError, match="'v2' or 'scalar'"):
            bound_block(data, children, kernel="v1")
        assert (children.lower_bound == NO_BOUND).all()  # refused before bounding
        got = bound_block(data, children)
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
        most = max(1, 512 // (n - depth))  # up to 512 rows
        parents, order = _equal_depth_parents(instance, depth, int(rng.integers(1, most + 1)), rng)
        children = branch_block(parents, instance.processing_times, order)
        want = _scalar_bounds(data, children, include)
        got = bound_block(data, children, siblings=True)
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
        parents, order = _equal_depth_parents(instance, depth, count, np.random.default_rng(count))
        assert len(parents) == count
        children = branch_block(parents, instance.processing_times, order)
        launches = []
        real = bounds.BATCH_KERNELS["v2"]

        def spy(data, mask, release, jobs=None, **kwargs):
            launches.append((len(mask), jobs))
            return real(data, mask, release, jobs=jobs, **kwargs)

        monkeypatch.setitem(bounds.BATCH_KERNELS, "v2", spy)
        for include in (False, True):
            probe = children.take(np.arange(len(children)))
            got = bound_block(data, probe, siblings=True)
            assert np.array_equal(got, _scalar_bounds(data, probe, include))
            rows, jobs = launches.pop()
            assert rows == count * (n - depth) and jobs is probe.jobs
        assert not launches

    def test_above_the_cap_takes_the_kernel(self, monkeypatch):
        """Above 512 rows, as below: the same single kernel call, exact."""
        instance = FlowShopInstance(np.random.default_rng(7).integers(1, 99, size=(10, 5)))
        data = LowerBoundData(instance)
        parents, order = _equal_depth_parents(instance, 2, 65, np.random.default_rng(1))
        children = branch_block(parents, instance.processing_times, order)
        assert len(children) > 512
        launches = []
        real = bounds.BATCH_KERNELS["v2"]

        def spy(*args, **kwargs):
            launches.append(len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setitem(bounds.BATCH_KERNELS, "v2", spy)
        got = bound_block(data, children, siblings=True)
        assert launches == [len(children)]
        assert np.array_equal(got, _scalar_bounds(data, children))

    @pytest.mark.parametrize("kernel", ["v1", "scalar"])
    def test_other_kernels(self, kernel):
        """The scalar loop bounds sibling blocks exactly; v1 is a reference only."""
        instance = FlowShopInstance(np.random.default_rng(3).integers(1, 99, size=(8, 4)))
        data = LowerBoundData(instance)
        parents, order = _equal_depth_parents(instance, 3, 12, np.random.default_rng(2))
        children = branch_block(parents, instance.processing_times, order)
        if kernel == "v1":
            with pytest.raises(ValueError):
                bound_block(data, children, kernel=kernel, siblings=True)
            got = lower_bound_batch(data, children.scheduled_mask, children.release)
        else:
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
        children = branch_block(
            root_block(medium_instance, trail), medium_instance.processing_times, 1
        )
        result = executor.evaluate_block(children)
        want = lower_bound_batch(data, children.scheduled_mask, children.release)
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
            | a._order[:size]
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


def _batch_iteration(frontier, case, data, next_order, rng, reserved):
    """One select-branch-bound-insert step; returns the children and ``keep``.

    ``reserved`` writes the children into the store's free rows, as the
    batch loop does; otherwise they get a block of their own.
    """
    instance = case["instance"]
    parents, _ = frontier.pop_batch(case["pool"])
    count = instance.n_jobs * len(parents) - int(parents.depth.sum())
    out = frontier.reserve(count) if reserved else None
    children = branch_block(parents, instance.processing_times, next_order, out)
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
        next_order = 1 + sum(len(prefix) for prefix in case["prefixes"])
        with mock.patch.object(frontier_module, "_ROW_CHUNK", case["chunk"]):
            for iteration in range(case["iterations"]):
                seed = case["seed"] + iteration
                rng = np.random.default_rng(seed)
                children, keep = _batch_iteration(reserved, case, data, next_order, rng, True)
                reserved.push_block(children, keep)

                rng = np.random.default_rng(seed)
                children, keep = _batch_iteration(allocated, case, data, next_order, rng, False)
                live = len(allocated)
                rows = slice(None) if keep is None else keep
                expected = {
                    store: np.concatenate(
                        [getattr(allocated, store)[:live], getattr(children, column)[rows]]
                    )
                    for store, column in BlockFrontier._COLUMNS
                }
                allocated.push_block(children, keep)
                next_order += len(children)

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
        children = branch_block(root, medium_instance.processing_times, 1)
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

    def bound_block(self, block, siblings=False):
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
        bound_block(self.data, block, siblings=siblings)
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
                next_order=1,
            )
        size, columns = offload.seen
        assert len(frontier) == size
        for name, column in columns.items():
            assert np.array_equal(getattr(frontier, name)[:size], column), name
