"""Tests for the functional GPU executor."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.flowshop.bounds as bounds
from repro.bb.frontier import NodeBlock, Trail, branch_block, root_block
from repro.flowshop import taillard_instance
from repro.flowshop.bounds import LowerBoundData, lower_bound
from repro.gpu.executor import GpuExecutor
from repro.gpu.placement import DataPlacement
from repro.gpu.simulator import KernelCostModel


@pytest.fixture()
def executor(small_instance, small_instance_data) -> GpuExecutor:
    return GpuExecutor(small_instance_data)


def _root_children(instance):
    """The root's child block: its arrays are the device buffers."""
    return branch_block(root_block(instance, Trail()), instance.processing_times)


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
        result = executor.evaluate(children.mask_bits, children.release)
        expected = [
            lower_bound(small_instance_data, children.prefix(i)) for i in range(len(children))
        ]
        assert result.bounds.tolist() == expected
        assert result.pool_size == len(children)
        assert result.measured_wall_s >= 0
        assert result.simulated.total_s > 0

    def test_block_timing_input_comes_from_depths(self, executor, small_instance):
        """The depth column feeds the timing model the same ``n_remaining``
        the rows' set bits give."""
        children = _root_children(small_instance)
        grandchildren = branch_block(children.take(np.array([0])), small_instance.processing_times)
        columns = ("mask_bits", "release", "lower_bound", "depth", "trail_id")
        mixed = NodeBlock(
            **{
                name: np.concatenate([getattr(children, name), getattr(grandchildren, name)])
                for name in columns
            },
            trail=children.trail,
            n_jobs=children.n_jobs,
        )
        assert sorted(set(mixed.depth.tolist())) == [1, 2]
        via_mask = executor.evaluate(mixed.mask_bits, mixed.release)
        via_block = executor.evaluate_block(mixed)
        assert via_block.simulated == via_mask.simulated
        assert np.array_equal(via_block.bounds, via_mask.bounds)

    def test_counters_accumulate(self, executor, small_instance):
        children = _root_children(small_instance)
        mask, release = children.mask_bits, children.release
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
        mask, release = children.mask_bits, children.release
        slow_result = slow.evaluate(mask, release)
        fast_result = fast.evaluate(mask, release)
        assert slow_result.simulated.kernel_s > fast_result.simulated.kernel_s

    def test_occupancy_exposed(self, executor):
        occupancy = executor.occupancy()
        assert occupancy.active_warps_per_sm > 0

    def test_rejects_bad_block_size(self, small_instance_data):
        with pytest.raises(ValueError):
            GpuExecutor(small_instance_data, threads_per_block=0)


#: Ceiling on the traced peak, in MB (2**20 bytes), of one ``evaluate_block``
#: launch of the ta100x20 sibling block below, run as one part.  The kernel
#: reads the block's mask and int32 ``release`` in place (4.7 MB traced: one
#: tile's tables and a few per-row vectors); widening ``release`` to int64,
#: gathering the active rows and building a launch-wide parent-set table
#: took it to 18 MB.  ``benchmarks/bench_kernel_v2.py`` asserts the same
#: ceiling.
LAUNCH_PEAK_CEILING_MB = 10


class TestLaunchMemory:
    def test_sibling_launch_peak_stays_below_the_ceiling(self, monkeypatch):
        """The children of 256 depth-2 ta100x20 parents: 25,088 rows, 4.3 MB of input."""
        instance = taillard_instance(100, 20, index=1)
        pt = instance.processing_times
        depth1 = branch_block(root_block(instance, Trail()), pt)
        depth2 = branch_block(depth1, pt)
        parents = np.unique(np.linspace(0, len(depth2) - 1, 256).astype(np.int64))
        block = branch_block(depth2.take(parents), pt)
        executor = GpuExecutor(LowerBoundData(instance))
        # each part of a split launch holds its own tile tables, so one part
        # keeps the peak independent of the host's CPU count
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 1)
        executor.evaluate_block(block)  # builds the per-instance tables
        tracemalloc.start()
        try:
            result = executor.evaluate_block(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = np.linspace(0, len(block) - 1, 6).astype(np.int64)
        assert result.bounds[rows].tolist() == [
            lower_bound(executor.data, block.prefix(i)) for i in rows
        ]
        assert peak / 2**20 < LAUNCH_PEAK_CEILING_MB

    def test_release_of_any_dtype_gives_the_same_bounds(self, small_instance):
        executor = GpuExecutor(LowerBoundData(small_instance))
        children = _root_children(small_instance)
        mask, release = children.mask_bits, children.release
        expected = executor.evaluate(mask, release).bounds.tolist()
        for given in (release.astype(np.int64), release.tolist(), release.astype(np.float64)):
            assert executor.evaluate(mask, given).bounds.tolist() == expected
