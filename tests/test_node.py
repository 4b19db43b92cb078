"""Tests for B&B nodes: the rows of a :class:`repro.bb.frontier.NodeBlock`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bb.frontier import (
    NO_BOUND,
    BlockFrontier,
    Trail,
    branch_block,
    root_block,
    seed_block,
)
from repro.flowshop.schedule import partial_completion_times


class TestRootNode:
    def test_root_properties(self, small_instance):
        root = root_block(small_instance, Trail())
        assert root.depth[0] == 0
        assert np.count_nonzero(~root.scheduled_mask[0]) == small_instance.n_jobs
        assert not root.is_leaf_mask[0]
        assert root.lower_bound[0] == NO_BOUND
        assert root.release[0].tolist() == [0] * small_instance.n_machines
        assert np.flatnonzero(~root.scheduled_mask[0]).tolist() == list(
            range(small_instance.n_jobs)
        )

    def test_scheduled_mask_empty(self, small_instance):
        root = root_block(small_instance, Trail())
        assert not root.scheduled_mask.any()


class TestChildren:
    def test_child_release_matches_schedule_module(self, small_instance):
        pt = small_instance.processing_times
        child = seed_block(small_instance, (2,), Trail())
        expected = partial_completion_times(small_instance, [2])
        assert np.array_equal(child.release[0], expected)
        grandchildren = branch_block(child, pt, 2)
        row = int(np.flatnonzero(grandchildren.jobs == 0)[0])
        assert grandchildren.prefix(row) == (2, 0)
        expected2 = partial_completion_times(small_instance, [2, 0])
        assert np.array_equal(grandchildren.release[row], expected2)

    def test_children_count(self, small_instance):
        root = root_block(small_instance, Trail())
        children = branch_block(root, small_instance.processing_times, 1)
        assert len(children) == small_instance.n_jobs
        assert {p[0] for p in children.prefixes()} == set(range(small_instance.n_jobs))

    def test_leaf_child_has_makespan(self, tiny_instance):
        parent = seed_block(tiny_instance, (0, 1), Trail())
        leaf = branch_block(parent, tiny_instance.processing_times, 3)
        assert len(leaf) == 1 and leaf.prefix(0) == (0, 1, 2)
        assert leaf.is_leaf_mask[0]
        assert leaf.makespans[0] == leaf.release[0, -1]
        assert leaf.lower_bound[0] == leaf.makespans[0]

    def test_child_rejects_duplicate_job(self, small_instance):
        with pytest.raises(ValueError):
            seed_block(small_instance, (1, 1), Trail())

    def test_child_rejects_out_of_range(self, small_instance):
        with pytest.raises(ValueError):
            seed_block(small_instance, (small_instance.n_jobs,), Trail())

    def test_parent_release_untouched(self, small_instance):
        root = root_block(small_instance, Trail())
        before = root.release.copy()
        branch_block(root, small_instance.processing_times, 1)
        assert np.array_equal(root.release, before)


def _children(instance):
    root = root_block(instance, Trail())
    return branch_block(root, instance.processing_times, 1)


def _pop_jobs(instance, block) -> list[int]:
    frontier = BlockFrontier(instance.n_jobs, instance.n_machines, block.trail)
    frontier.push_block(block)
    popped, _ = frontier.pop_batch(len(block))
    return [p[0] for p in popped.prefixes()]


class TestOrdering:
    def test_sort_key_prefers_smaller_bound(self, small_instance):
        children = _children(small_instance).take(np.array([0, 1]))
        children.lower_bound[:] = (20, 10)
        assert _pop_jobs(small_instance, children) == [1, 0]

    def test_tie_break_by_creation_index(self, small_instance):
        children = _children(small_instance).take(np.array([1, 0]))
        children.lower_bound[:] = 10
        assert _pop_jobs(small_instance, children) == [0, 1]  # job 0 was created first

    def test_order_index_is_per_search(self, small_instance):
        # creation indices restart at every root: traces and tie-breaks do
        # not depend on what ran earlier in the process
        def indices():
            trail = Trail()
            root = root_block(small_instance, trail)
            children = branch_block(root, small_instance.processing_times, 1)
            return [int(root.order_index[0])] + children.order_index.tolist()

        first = indices()
        second = indices()
        assert first == second
        assert first == list(range(small_instance.n_jobs + 1))

    def test_prefix_too_long_rejected(self, small_instance):
        with pytest.raises(ValueError):
            seed_block(small_instance, tuple(range(small_instance.n_jobs + 1)), Trail())
