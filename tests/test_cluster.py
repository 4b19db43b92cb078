"""Tests for the simulated GPU-cluster extension."""

from __future__ import annotations

import pytest

from repro.bb import brute_force_optimum
from repro.core import ClusterBranchAndBound, ClusterSpec, GpuBBConfig
from repro.core.cluster import ClusterSimulator
from repro.flowshop.bounds import DataStructureComplexity


class TestClusterSpec:
    def test_defaults(self):
        spec = ClusterSpec()
        assert spec.n_nodes == 4
        assert spec.device.name.startswith("Nvidia")

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(interconnect_bandwidth_bps=0)

    def test_scatter_gather_scale_with_pool(self):
        spec = ClusterSpec(n_nodes=4)
        assert spec.scatter_time_s(100_000) > spec.scatter_time_s(1_000)
        assert spec.gather_time_s(100_000) > spec.gather_time_s(1_000)
        with pytest.raises(ValueError):
            spec.scatter_time_s(-1)

    def test_scatter_bills_each_subproblem_once(self):
        # regression: a pool of 1 on a 16-node cluster used to be charged
        # 16 payloads (2048 B) instead of 1 (128 B)
        spec = ClusterSpec(n_nodes=16)
        expected = 16 * spec.interconnect_latency_s + (
            1 * spec.node_payload_bytes / spec.interconnect_bandwidth_bps
        )
        assert spec.scatter_time_s(1) == pytest.approx(expected)

    def test_scatter_bytes_independent_of_node_count(self):
        # same pool, more nodes: only the per-message latency may grow
        small = ClusterSpec(n_nodes=2)
        large = ClusterSpec(n_nodes=16)
        pool = 1000
        small_bytes_s = small.scatter_time_s(pool) - 2 * small.interconnect_latency_s
        large_bytes_s = large.scatter_time_s(pool) - 16 * large.interconnect_latency_s
        assert small_bytes_s == pytest.approx(large_bytes_s)

    def test_incumbent_broadcast_time(self):
        spec = ClusterSpec(n_nodes=8)
        expected = spec.interconnect_latency_s + (
            spec.incumbent_broadcast_bytes / spec.interconnect_bandwidth_bps
        )
        assert spec.incumbent_broadcast_time_s() == pytest.approx(expected)


class TestClusterSimulator:
    def test_more_nodes_reduce_step_time_for_large_pools(self):
        complexity = DataStructureComplexity(n=200, m=20)
        pool = 262144
        times = {}
        for n_nodes in (1, 2, 4, 8):
            sim = ClusterSimulator(ClusterSpec(n_nodes=n_nodes))
            times[n_nodes] = sim.evaluate_pool(complexity, pool).total_s
        assert times[8] < times[4] < times[2] < times[1]

    def test_scaling_efficiency_degrades_for_small_pools(self):
        complexity = DataStructureComplexity(n=200, m=20)
        sim = ClusterSimulator(ClusterSpec(n_nodes=8))
        large_pool = sim.scaling_efficiency(complexity, 262144, n_nodes_list=(8,))[8]
        small_pool = sim.scaling_efficiency(complexity, 4096, n_nodes_list=(8,))[8]
        assert large_pool > small_pool
        assert 0 < small_pool <= 1.05
        assert large_pool > 0.5

    def test_single_node_efficiency_is_one(self):
        complexity = DataStructureComplexity(n=100, m=20)
        sim = ClusterSimulator(ClusterSpec(n_nodes=1))
        eff = sim.scaling_efficiency(complexity, 65536, n_nodes_list=(1,))[1]
        assert eff == pytest.approx(1.0)

    def test_step_timing_breakdown(self):
        complexity = DataStructureComplexity(n=100, m=20)
        timing = ClusterSimulator(ClusterSpec(n_nodes=4)).evaluate_pool(complexity, 8192)
        assert timing.per_node_pool == 2048
        assert timing.total_s == pytest.approx(
            timing.scatter_s + timing.gather_s + timing.node_compute_s
        )

    def test_zero_pool(self):
        complexity = DataStructureComplexity(n=100, m=20)
        timing = ClusterSimulator(ClusterSpec(n_nodes=4)).evaluate_pool(complexity, 0)
        assert timing.node_compute_s == 0.0


class TestClusterEngine:
    @pytest.mark.parametrize("n_nodes", [1, 3])
    def test_matches_bruteforce(self, small_instance, n_nodes):
        _, optimum = brute_force_optimum(small_instance)
        result = ClusterBranchAndBound(
            small_instance, ClusterSpec(n_nodes=n_nodes), GpuBBConfig(pool_size=64)
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_matches_single_gpu_engine(self, medium_instance):
        from repro.core import GpuBranchAndBound

        single = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=128)).solve()
        cluster = ClusterBranchAndBound(
            medium_instance, ClusterSpec(n_nodes=4), GpuBBConfig(pool_size=128)
        ).solve()
        assert cluster.best_makespan == single.best_makespan

    def test_accounts_device_time(self, small_instance):
        result = ClusterBranchAndBound(
            small_instance, ClusterSpec(n_nodes=2), GpuBBConfig(pool_size=32)
        ).solve()
        assert result.simulated_device_time_s > 0
        assert result.stats.pools_evaluated >= 1

    def test_incumbent_broadcast_charged_per_improvement(self, medium_instance, monkeypatch):
        spec = ClusterSpec(n_nodes=4)
        config = GpuBBConfig(pool_size=64)
        shared = ClusterBranchAndBound(medium_instance, spec, config).solve()
        expected_extra = (shared.stats.incumbent_updates - 1) * spec.incumbent_broadcast_time_s()
        monkeypatch.setattr(ClusterSpec, "incumbent_broadcast_time_s", lambda self: 0.0)
        silent = ClusterBranchAndBound(medium_instance, spec, config).solve()
        # same tree either way (the coordinator always prunes with the bound);
        # each improvement after the NEH seed adds one broadcast message
        assert shared.best_makespan == silent.best_makespan
        assert shared.stats.nodes_bounded == silent.stats.nodes_bounded
        assert expected_extra > 0
        assert shared.simulated_device_time_s - silent.simulated_device_time_s == (
            pytest.approx(expected_extra)
        )

    def test_budget(self, medium_instance):
        result = ClusterBranchAndBound(
            medium_instance, ClusterSpec(n_nodes=2), GpuBBConfig(pool_size=16, max_iterations=1)
        ).solve()
        assert not result.proved_optimal
