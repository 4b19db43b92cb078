"""Tests for the functional GPU executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bb.frontier import NodeBlock, Trail, branch_block, root_block
from repro.flowshop.bounds import LowerBoundData, lower_bound
from repro.gpu.executor import GpuExecutor
from repro.gpu.placement import DataPlacement
from repro.gpu.simulator import KernelCostModel


@pytest.fixture()
def executor(small_instance, small_instance_data) -> GpuExecutor:
    return GpuExecutor(small_instance_data)


def _root_children(instance):
    """The root's child block: its arrays are the device buffers."""
    return branch_block(root_block(instance, Trail()), instance.processing_times, 1)


class TestUpload:
    def test_upload_reports_footprints(self, executor, small_instance_data):
        arrays = executor.upload()
        complexity = small_instance_data.complexity
        expected = executor.placement.structure_bytes(complexity)
        assert arrays.bytes_by_structure == expected
        assert arrays.total_bytes == sum(expected.values())
        assert arrays.upload_time_s > 0

    def test_upload_is_idempotent(self, executor):
        assert executor.upload() is executor.upload()
        assert executor.device_arrays is executor.upload()

    def test_unfittable_placement_rejected(self, paper_instance_data):
        placement = DataPlacement.shared_structures(["PTM", "JM", "LM"])
        # 20x20 fits everything; build a 200x20 to exceed the shared capacity
        from repro.flowshop import taillard_instance

        data = LowerBoundData(taillard_instance(200, 20, index=1))
        executor = GpuExecutor(data, placement=placement)
        with pytest.raises(Exception):
            executor.upload()


class TestEvaluate:
    def test_bounds_match_scalar_kernel(self, executor, small_instance, small_instance_data):
        children = _root_children(small_instance)
        result = executor.evaluate(children.scheduled_mask, children.release)
        expected = [
            lower_bound(small_instance_data, children.prefix(i)) for i in range(len(children))
        ]
        assert result.bounds.tolist() == expected
        assert result.pool_size == len(children)
        assert result.measured_wall_s >= 0
        assert result.simulated.total_s > 0

    def test_block_timing_input_comes_from_depths(self, executor, small_instance):
        """The depth column feeds the timing model the same ``n_remaining``
        the mask's row sums give."""
        children = _root_children(small_instance)
        grandchildren = branch_block(
            children.take(np.array([0])), small_instance.processing_times, 1 + len(children)
        )
        columns = ("scheduled_mask", "release", "lower_bound", "depth", "order_index", "trail_id")
        mixed = NodeBlock(
            **{
                name: np.concatenate([getattr(children, name), getattr(grandchildren, name)])
                for name in columns
            },
            trail=children.trail,
        )
        assert sorted(set(mixed.depth.tolist())) == [1, 2]
        via_mask = executor.evaluate(mixed.scheduled_mask, mixed.release)
        via_block = executor.evaluate_block(mixed)
        assert via_block.simulated == via_mask.simulated
        assert np.array_equal(via_block.bounds, via_mask.bounds)

    def test_counters_accumulate(self, executor, small_instance):
        children = _root_children(small_instance)
        mask, release = children.scheduled_mask, children.release
        executor.evaluate(mask, release)
        executor.evaluate(mask, release)
        stats = executor.stats()
        assert stats["pools_evaluated"] == 2
        assert stats["nodes_evaluated"] == 2 * len(children)
        assert stats["simulated_time_s"] > 0

    def test_default_placement_is_recommended(self, small_instance_data):
        executor = GpuExecutor(small_instance_data)
        assert executor.placement.name in ("shared-PTM-JM", "all-global", "shared-JM")

    def test_custom_cost_model_used(self, small_instance, small_instance_data):
        slow = GpuExecutor(
            small_instance_data,
            cost_model=KernelCostModel().with_overrides(cycles_per_iteration=100.0),
        )
        fast = GpuExecutor(small_instance_data)
        children = _root_children(small_instance)
        mask, release = children.scheduled_mask, children.release
        slow_result = slow.evaluate(mask, release)
        fast_result = fast.evaluate(mask, release)
        assert slow_result.simulated.kernel_s > fast_result.simulated.kernel_s

    def test_occupancy_exposed(self, executor):
        occupancy = executor.occupancy()
        assert occupancy.active_warps_per_sm > 0

    def test_rejects_bad_block_size(self, small_instance_data):
        with pytest.raises(ValueError):
            GpuExecutor(small_instance_data, threads_per_block=0)
