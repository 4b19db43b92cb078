"""Tests for the B&B operators on node blocks (:mod:`repro.bb.frontier`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bb.frontier import (
    BlockFrontier,
    NodeBlock,
    Trail,
    bound_block,
    branch_block,
    eliminate_block,
    root_block,
    seed_block,
)
from repro.flowshop.bounds import LowerBoundData, lower_bound


def _bounded_children(instance, data):
    children = branch_block(root_block(instance, Trail()), instance.processing_times, 1)
    bound_block(data, children)
    return children


class TestBranch:
    def test_branch_root(self, small_instance):
        children = branch_block(
            root_block(small_instance, Trail()), small_instance.processing_times, 1
        )
        assert len(children) == small_instance.n_jobs

    def test_branch_leaf_returns_nothing(self, tiny_instance):
        leaf = seed_block(tiny_instance, (0, 1, 2), Trail())
        assert len(branch_block(leaf, tiny_instance.processing_times, 4)) == 0


class TestBoundNode:
    def test_bound_matches_lower_bound(self, small_instance, small_instance_data):
        node = seed_block(small_instance, (1,), Trail())
        value = int(bound_block(small_instance_data, node)[0])
        assert value == lower_bound(small_instance_data, [1])
        assert node.lower_bound[0] == value

    def test_bound_is_cached(self, tiny_instance):
        # complete children carry their makespan from branch time; bounding
        # them as siblings reuses that value instead of recomputing it
        parent = seed_block(tiny_instance, (0, 1), Trail())
        leaf = branch_block(parent, tiny_instance.processing_times, 3)
        leaf.lower_bound[0] = 12345
        assert bound_block(LowerBoundData(tiny_instance), leaf, siblings=True)[0] == 12345


class TestEncodePool:
    def test_encoding_shapes_and_content(self, small_instance):
        trail = Trail()
        root = root_block(small_instance, trail)
        child = branch_block(root, small_instance.processing_times, 1).take(np.array([2]))
        pool = BlockFrontier(small_instance.n_jobs, small_instance.n_machines, trail, "fifo")
        pool.push_block(root)
        pool.push_block(child)
        block, _ = pool.pop_batch(2)
        mask, release = block.scheduled_mask, block.release
        assert mask.shape == (2, small_instance.n_jobs)
        assert release.shape == (2, small_instance.n_machines)
        assert not mask[0].any()
        assert mask[1].sum() == 1 and mask[1][2]
        assert np.array_equal(release[1], child.release[0])

    def test_empty_pool(self, small_instance):
        pool = BlockFrontier(small_instance.n_jobs, small_instance.n_machines, Trail())
        block, _ = pool.pop_batch(4)
        assert block.scheduled_mask.shape == (0, small_instance.n_jobs)
        assert block.release.shape == (0, small_instance.n_machines)


class TestBatchBounding:
    def test_batch_writes_back_and_matches_scalar(self, small_instance, small_instance_data):
        children = branch_block(
            root_block(small_instance, Trail()), small_instance.processing_times, 1
        )
        values = bound_block(small_instance_data, children).tolist()
        assert children.lower_bound.tolist() == values
        for row, value in enumerate(values):
            assert value == lower_bound(small_instance_data, children.prefix(row))

    def test_batch_empty(self, small_instance, small_instance_data):
        empty = NodeBlock.empty(small_instance.n_jobs, small_instance.n_machines, Trail())
        assert bound_block(small_instance_data, empty).shape == (0,)


class TestEliminate:
    def test_keeps_only_improving_nodes(self, small_instance, small_instance_data):
        children = _bounded_children(small_instance, small_instance_data)
        bounds = sorted(children.lower_bound.tolist())
        cutoff = bounds[len(bounds) // 2]
        survivors, pruned = eliminate_block(children, cutoff)
        assert len(survivors) + pruned == len(children)
        assert (survivors.lower_bound < cutoff).all()

    def test_requires_bounded_nodes(self, small_instance):
        with pytest.raises(ValueError):
            eliminate_block(root_block(small_instance, Trail()), 100)

    def test_prunes_equal_bounds(self, small_instance, small_instance_data):
        root = root_block(small_instance, Trail())
        bound_block(small_instance_data, root)
        survivors, pruned = eliminate_block(root, int(root.lower_bound[0]))
        assert len(survivors) == 0 and pruned == 1


class TestSelectBatch:
    def test_respects_limit(self, small_instance, small_instance_data):
        children = _bounded_children(small_instance, small_instance_data)
        pool = BlockFrontier(small_instance.n_jobs, small_instance.n_machines, children.trail)
        pool.push_block(children)
        batch, n_pruned = pool.pop_batch(3)
        assert len(batch) == 3
        assert n_pruned == 0
        assert len(pool) == len(children) - 3

    def test_lazy_pruning_with_upper_bound(self, small_instance, small_instance_data):
        children = _bounded_children(small_instance, small_instance_data)
        pool = BlockFrontier(small_instance.n_jobs, small_instance.n_machines, children.trail)
        pool.push_block(children)
        cutoff = int(children.lower_bound.min())  # prune everything
        batch, n_pruned = pool.pop_batch(100, upper_bound=cutoff)
        assert len(batch) == 0
        assert n_pruned == len(children)
        assert len(pool) == 0
