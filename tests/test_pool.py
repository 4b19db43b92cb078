"""Pool semantics of the pending-node frontier (:class:`repro.bb.frontier.BlockFrontier`).

The frontier is the paper's pool of pending sub-problems; these tests pin
its selection order per strategy, its pruning and its bookkeeping.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb.frontier import NO_BOUND, BlockFrontier, NodeBlock, Trail

N_JOBS, N_MACHINES = 5, 3

#: node ids: increasing in push order, like a search's trail slots
_CREATED = itertools.count(1)


def _pool(strategy: str = "best-first") -> BlockFrontier:
    return BlockFrontier(N_JOBS, N_MACHINES, Trail(), strategy=strategy)


def _push(pool: BlockFrontier, *bounds: int) -> None:
    """Push one depth-0 node per bound; creation order is argument order."""
    count = len(bounds)
    pool.push_block(
        NodeBlock(
            mask_bits=np.zeros((count, (N_JOBS + 7) // 8), dtype=np.uint8),
            release=np.zeros((count, N_MACHINES), dtype=np.int32),
            lower_bound=np.array(bounds, dtype=np.int32),
            depth=np.zeros(count, dtype=np.int32),
            trail_id=np.array([next(_CREATED) for _ in range(count)], dtype=np.int32),
            trail=Trail(),
            n_jobs=N_JOBS,
        )
    )


def _pop(pool: BlockFrontier) -> int:
    block, _ = pool.pop_batch(1)
    return int(block.lower_bound[0])


def _drain(pool: BlockFrontier) -> list[int]:
    block, _ = pool.pop_batch(max(1, len(pool)))
    return block.lower_bound.tolist()


class TestBestFirstPool:
    def test_pops_smallest_bound_first(self):
        pool = _pool()
        for lb in (30, 10, 20):
            _push(pool, lb)
        assert [_pop(pool) for _ in range(3)] == [10, 20, 30]

    def test_peek_does_not_remove(self):
        pool = _pool()
        _push(pool, 5)
        assert pool.row_view(pool.peek_best())[0] == 5
        assert len(pool) == 1

    def test_best_lower_bound(self):
        pool = _pool()
        assert pool.best_lower_bound() is None
        _push(pool, 42)
        _push(pool, 7)
        assert pool.best_lower_bound() == 7

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            _pool().peek_best()
        # the batch pop of an empty pool is an empty block, not an error
        block, pruned = _pool().pop_batch(1)
        assert len(block) == 0 and pruned == 0

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_drains_in_sorted_order(self, bounds):
        pool = _pool()
        _push(pool, *bounds)
        assert _drain(pool) == sorted(bounds)
        assert len(pool) == 0


class TestDepthFirstPool:
    def test_lifo_order(self):
        pool = _pool("depth-first")
        for lb in (1, 2, 3):
            _push(pool, lb)
        assert [_pop(pool) for _ in range(3)] == [3, 2, 1]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            _pool("depth-first").peek_best()


class TestFifoPool:
    def test_fifo_order(self):
        pool = _pool("fifo")
        for lb in (1, 2, 3):
            _push(pool, lb)
        assert [_pop(pool) for _ in range(3)] == [1, 2, 3]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            _pool("fifo").peek_best()


class TestSharedBehaviour:
    @pytest.mark.parametrize("strategy", ["best-first", "depth-first", "fifo"])
    def test_pop_batch(self, strategy):
        pool = _pool(strategy)
        _push(pool, *range(10))
        batch, _ = pool.pop_batch(4)
        assert len(batch) == 4
        assert len(pool) == 6
        rest, _ = pool.pop_batch(100)
        assert len(rest) == 6
        assert len(pool) == 0

    def test_pop_batch_rejects_zero(self):
        with pytest.raises(ValueError):
            _pool().pop_batch(0)

    @pytest.mark.parametrize("strategy", ["best-first", "depth-first", "fifo"])
    def test_max_size_seen(self, strategy):
        pool = _pool(strategy)
        _push(pool, *range(7))
        pool.pop_batch(7)
        _push(pool, 1)
        assert pool.max_size_seen == 7

    @pytest.mark.parametrize("strategy", ["best-first", "depth-first", "fifo"])
    def test_prune_to_drops_hopeless_nodes(self, strategy):
        pool = _pool(strategy)
        _push(pool, *range(10))
        removed = pool.prune_to(5)
        assert removed == 5
        assert len(pool) == 5
        assert all(lb < 5 for lb in _drain(pool))

    @pytest.mark.parametrize("strategy", ["best-first", "depth-first", "fifo"])
    def test_prune_to_preserves_order(self, strategy):
        pool = _pool(strategy)
        _push(pool, 3, 9, 1, 8, 2)
        pool.prune_to(5)
        survivors = [_pop(pool) for _ in range(len(pool))]
        expected = {"best-first": [1, 2, 3], "depth-first": [2, 1, 3], "fifo": [3, 1, 2]}
        assert survivors == expected[strategy]

    def test_prune_to_keeps_unbounded_nodes(self):
        pool = _pool("depth-first")
        _push(pool, NO_BOUND)
        assert pool.prune_to(0) == 0
        assert len(pool) == 1

    def test_prune_to_empty_pool(self):
        assert _pool().prune_to(10) == 0

    def test_bool_protocol(self):
        pool = _pool()
        assert not pool
        _push(pool, 1)
        assert pool

    def test_make_pool_aliases(self):
        expected = {"best-first": [1, 2, 3], "depth-first": [2, 1, 3], "fifo": [3, 1, 2]}
        for name, order in expected.items():
            pool = _pool(name)
            _push(pool, 3, 1, 2)
            assert [_pop(pool) for _ in range(3)] == order, name
        # one name per strategy: no alias and no case folding
        for alias in ("best", "depth", "breadth-first", "Best-First", "FIFO"):
            with pytest.raises(ValueError, match="unknown selection strategy"):
                _pool(alias)

    def test_make_pool_unknown(self):
        with pytest.raises(ValueError):
            _pool("worst-first")
