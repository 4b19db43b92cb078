"""Pruning-statistic conservation across every engine.

Every node whose lower bound was evaluated meets exactly one fate in a run
that completes: it is branched, pruned (eagerly at elimination, lazily at
selection, or by a shared-incumbent re-prune), or evaluated as a leaf.
Engines that drop stale nodes silently would break the identity

    nodes_bounded == nodes_branched + nodes_pruned + leaves_evaluated

which is what the Table IV explored-node comparisons rely on.
"""

from __future__ import annotations

import pytest

import repro.bb.driver as driver_module
from repro.bb import MulticoreBranchAndBound, SequentialBranchAndBound
from repro.core import ClusterBranchAndBound, ClusterSpec, GpuBBConfig, GpuBranchAndBound
from repro.core.pipeline import HybridBranchAndBound, HybridConfig
from repro.testing import static_split


def assert_conserved(stats):
    assert stats.nodes_bounded == (
        stats.nodes_branched + stats.nodes_pruned + stats.leaves_evaluated
    )


class TestConservation:
    def test_sequential(self, medium_instance):
        result = SequentialBranchAndBound(medium_instance).solve()
        assert result.proved_optimal
        assert_conserved(result.stats)

    @pytest.mark.parametrize("pool_size", [4, 64])
    def test_gpu_engine_counts_lazy_pruning(self, medium_instance, pool_size):
        # small pools force many iterations, so stale nodes pile up in the
        # pool and are dropped lazily at selection time
        result = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=pool_size)).solve()
        assert result.proved_optimal
        assert_conserved(result.stats)

    def test_cluster_engine(self, medium_instance):
        result = ClusterBranchAndBound(
            medium_instance, ClusterSpec(n_nodes=3), GpuBBConfig(pool_size=16)
        ).solve()
        assert result.proved_optimal
        assert_conserved(result.stats)

    def test_hybrid_engine(self, small_instance):
        result = HybridBranchAndBound(
            small_instance,
            HybridConfig(n_explorers=2, gpu=GpuBBConfig(pool_size=16)),
        ).solve()
        assert result.proved_optimal
        assert_conserved(result.stats)

    @pytest.mark.parametrize("engine", ["static", "worksteal"])
    def test_multicore_engines(self, medium_instance, engine):
        if engine == "static":
            result = static_split(medium_instance, decomposition_depth=2)
        else:
            result = MulticoreBranchAndBound(
                medium_instance, n_workers=4, backend="thread", decomposition_depth=2
            ).solve()
        assert result.proved_optimal
        assert_conserved(result.stats)

    def test_worksteal_with_aggressive_polling(self, medium_instance, monkeypatch):
        # POLL_INTERVAL=1 exercises the pool re-prune path on every pop
        monkeypatch.setattr(driver_module, "POLL_INTERVAL", 1)
        result = MulticoreBranchAndBound(medium_instance, n_workers=4, backend="thread").solve()
        assert result.proved_optimal
        assert_conserved(result.stats)
