"""Tests for the GPU-accelerated Branch-and-Bound engine."""

from __future__ import annotations

import pytest

from repro.bb import SequentialBranchAndBound, brute_force_optimum
from repro.core import GpuBBConfig, GpuBranchAndBound
from repro.flowshop import makespan, random_instance
from repro.gpu.placement import DataPlacement


class TestOptimality:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_matches_bruteforce(self, seed):
        inst = random_instance(7, 4, seed=seed)
        _, optimum = brute_force_optimum(inst)
        result = GpuBranchAndBound(inst, GpuBBConfig(pool_size=128)).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal
        assert makespan(inst, result.best_order) == optimum

    def test_matches_sequential(self, medium_instance):
        serial = SequentialBranchAndBound(medium_instance).solve()
        gpu = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=256)).solve()
        assert gpu.best_makespan == serial.best_makespan

    @pytest.mark.parametrize("pool_size", [1, 16, 4096])
    def test_pool_size_does_not_change_the_optimum(self, small_instance, pool_size):
        _, optimum = brute_force_optimum(small_instance)
        result = GpuBranchAndBound(small_instance, GpuBBConfig(pool_size=pool_size)).solve()
        assert result.best_makespan == optimum

    @pytest.mark.parametrize(
        "placement", [DataPlacement.all_global(), DataPlacement.shared_ptm_jm()]
    )
    def test_placement_does_not_change_the_optimum(self, small_instance, placement):
        _, optimum = brute_force_optimum(small_instance)
        result = GpuBranchAndBound(
            small_instance, GpuBBConfig(pool_size=64, placement=placement)
        ).solve()
        assert result.best_makespan == optimum

    def test_without_neh_seed(self, small_instance):
        _, optimum = brute_force_optimum(small_instance)
        result = GpuBranchAndBound(
            small_instance, GpuBBConfig(pool_size=64, use_neh_upper_bound=False)
        ).solve()
        assert result.best_makespan == optimum

    def test_two_machine_instance(self):
        from repro.flowshop import johnson_makespan

        inst = random_instance(7, 2, seed=1)
        result = GpuBranchAndBound(inst, GpuBBConfig(pool_size=64)).solve()
        assert result.best_makespan == johnson_makespan(
            inst.processing_times[:, 0], inst.processing_times[:, 1]
        )


class TestAccounting:
    def test_iteration_records(self, medium_instance):
        result = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=64)).solve()
        assert result.iterations
        total_offloaded = sum(r.nodes_offloaded for r in result.iterations)
        # +1 for the root pool
        assert result.stats.nodes_bounded == total_offloaded + 1
        assert result.stats.pools_evaluated == len(result.iterations) + 1
        for record in result.iterations:
            assert record.nodes_kept + record.nodes_pruned <= record.nodes_offloaded
            assert record.launch.threads_per_block == 64 or record.launch.threads_per_block == 256

    def test_simulated_time_accumulates(self, medium_instance):
        result = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=64)).solve()
        assert result.simulated_device_time_s > 0
        assert result.simulated_device_time_s == pytest.approx(
            sum(r.simulated_device_s for r in result.iterations), rel=1e-6, abs=1e-9
        ) or result.simulated_device_time_s > sum(r.simulated_device_s for r in result.iterations)
        assert result.stats.simulated_device_time_s == result.simulated_device_time_s

    def test_simulated_speedup_helper(self, medium_instance):
        result = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=64)).solve()
        assert result.simulated_speedup(result.simulated_device_time_s * 10) == pytest.approx(10)

    def test_config_carries_resolved_placement(self, medium_instance):
        result = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=64)).solve()
        assert result.config is not None
        assert result.config.placement is not None

    def test_incumbent_never_increases(self, medium_instance):
        result = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=32)).solve()
        incumbents = [record.incumbent for record in result.iterations]
        assert incumbents == sorted(incumbents, reverse=True)


class TestBudgets:
    def test_max_iterations(self, medium_instance):
        result = GpuBranchAndBound(
            medium_instance, GpuBBConfig(pool_size=16, max_iterations=2)
        ).solve()
        assert not result.proved_optimal
        assert len(result.iterations) <= 2

    def test_max_nodes(self, medium_instance):
        result = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=16, max_nodes=30)).solve()
        assert not result.proved_optimal
        # the incumbent is still a valid schedule no worse than NEH
        assert makespan(medium_instance, result.best_order) == result.best_makespan

    def test_budget_result_not_below_optimum(self, medium_instance):
        _, optimum = brute_force_optimum(medium_instance)
        result = GpuBranchAndBound(
            medium_instance, GpuBBConfig(pool_size=16, max_iterations=1)
        ).solve()
        assert result.best_makespan >= optimum


class TestBlockConservation:
    """nodes_bounded == branched + pruned + leaves on every completed run."""

    @pytest.mark.parametrize("pool_size", [4, 64])
    def test_gpu_block(self, medium_instance, pool_size):
        result = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=pool_size)).solve()
        stats = result.stats
        assert result.proved_optimal
        assert stats.nodes_bounded == (
            stats.nodes_branched + stats.nodes_pruned + stats.leaves_evaluated
        )
