"""One engine assembly: every engine seeds, runs and finishes its search
through :func:`~repro.bb.driver.run_search`, and honours every budget it
accepts.

* **The seed rule.** A seed whose bound meets the incumbent is counted as
  pruned and never pushed — on every engine, from the root or from a
  prefix seed.  A complete seed is examined as a leaf and credits
  ``incumbent_updates`` when it improves.
* **Budgets.** The cluster stops at ``max_time_s`` (library and CLI); the
  hybrid's ``max_nodes``, ``max_iterations`` and ``max_time_s`` bound the
  whole solve, not each sub-tree.
* **The starting incumbent.** With ``use_neh_upper_bound=False`` the
  cluster and the hybrid take no NEH seed, and a budget cut before any
  leaf raises the GPU engine's "no incumbent" error.
"""

from __future__ import annotations

import re
from itertools import permutations

import pytest

import repro.core.cluster as cluster_module
import repro.core.gpu_bb as gpu_bb_module
import repro.core.pipeline as pipeline_module
from repro.bb.driver import TraceEvent
from repro.bb.multicore import MulticoreBranchAndBound
from repro.bb.sequential import SequentialBranchAndBound
from repro.cli import main
from repro.core.cluster import ClusterBranchAndBound, ClusterSpec
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import GpuBranchAndBound
from repro.core.pipeline import HybridBranchAndBound, HybridConfig
from repro.flowshop import random_instance, taillard_instance
from repro.flowshop.bounds import LowerBoundData, lower_bound
from repro.flowshop.neh import neh_heuristic
from repro.flowshop.schedule import Schedule
from repro.service.dispatch import BatchDispatcher
from repro.service.session import SessionConfig, SolveSession

COUNTERS = (
    "nodes_bounded",
    "nodes_branched",
    "nodes_pruned",
    "leaves_evaluated",
    "incumbent_updates",
    "pools_evaluated",
    "max_pool_size",
)

#: m = 2: NEH is optimal here and the root bound equals it, so every
#: engine's seed is dominated by the starting incumbent
DOMINATED = random_instance(7, 2, seed=1)

#: a 9x5 instance whose NEH seed is not optimal (814 against root bound 772)
OPEN = random_instance(9, 5, seed=4)


def _session_result(instance, **config):
    with BatchDispatcher() as dispatcher:
        session = SolveSession(
            1, instance, LowerBoundData(instance), dispatcher, SessionConfig(**config)
        )
        return session.run()


class TestSeedRule:
    """A dominated seed is pruned, never pushed, on every engine."""

    @pytest.mark.parametrize("engine", ["serial", "session", "gpu", "cluster"])
    def test_root_engines_prune_the_root(self, engine):
        neh = neh_heuristic(DOMINATED).makespan
        assert lower_bound(LowerBoundData(DOMINATED), []) == neh
        if engine == "serial":
            result = SequentialBranchAndBound(DOMINATED).solve()
            makespan, stats = result.best_makespan, result.stats
        elif engine == "session":
            result = _session_result(DOMINATED)
            makespan, stats = result.makespan, result.stats
        elif engine == "gpu":
            result = GpuBranchAndBound(DOMINATED, GpuBBConfig(pool_size=16)).solve()
            makespan, stats = result.best_makespan, result.stats
        else:
            result = ClusterBranchAndBound(
                DOMINATED, ClusterSpec(n_nodes=2), GpuBBConfig(pool_size=16)
            ).solve()
            makespan, stats = result.best_makespan, result.stats
        assert makespan == neh
        assert stats.nodes_bounded == 1
        assert stats.nodes_pruned == 1
        assert stats.nodes_branched == 0
        assert stats.max_pool_size == 0

    @pytest.mark.parametrize("engine", ["hybrid", "worksteal", "static"])
    def test_prefix_engines_prune_every_seed(self, engine):
        if engine == "hybrid":
            result = HybridBranchAndBound(
                DOMINATED, HybridConfig(gpu=GpuBBConfig(pool_size=16))
            ).solve()
            seeds = DOMINATED.n_jobs
        else:
            result = MulticoreBranchAndBound(
                DOMINATED, n_workers=1, backend="serial", mode=engine, decomposition_depth=2
            ).solve()
            seeds = DOMINATED.n_jobs * (DOMINATED.n_jobs - 1)
        assert result.proved_optimal
        assert result.best_makespan == neh_heuristic(DOMINATED).makespan
        assert result.stats.nodes_bounded == seeds
        assert result.stats.nodes_pruned == seeds
        assert result.stats.max_pool_size == 0

    def test_traced_serial_run_records_the_pruned_root(self):
        result = SequentialBranchAndBound(DOMINATED, trace=True).solve()
        neh = neh_heuristic(DOMINATED).makespan
        assert result.trace == [TraceEvent((), neh, float(neh), "pruned")]

    def test_hybrid_leaf_seeds_credit_incumbent_updates(self):
        """Complete prefix seeds are leaves: each improving one is an update,
        exactly as the multicore sub-tree solver counts them."""
        instance = random_instance(4, 3, seed=2)
        hybrid = HybridBranchAndBound(
            instance,
            HybridConfig(
                n_explorers=1,
                decomposition_depth=instance.n_jobs,
                gpu=GpuBBConfig(pool_size=16, use_neh_upper_bound=False, share_incumbent=False),
            ),
        ).solve()
        static = MulticoreBranchAndBound(
            instance,
            n_workers=1,
            backend="serial",
            mode="static",
            decomposition_depth=instance.n_jobs,
            initial_upper_bound=float("inf"),
        ).solve()
        # every leaf seed improves on the launch-time bound (no NEH, no sharing)
        assert hybrid.stats.incumbent_updates == len(list(permutations(range(4))))
        for counter in ("nodes_bounded", "leaves_evaluated", "incumbent_updates"):
            assert getattr(hybrid.stats, counter) == getattr(static.stats, counter), counter
        best = min(Schedule(instance, p).makespan for p in permutations(range(4)))
        assert hybrid.best_makespan == static.best_makespan == best


class TestClusterBudgets:
    def test_cluster_stops_at_max_time(self):
        config = GpuBBConfig(pool_size=1024, max_time_s=0.5, max_iterations=40)
        result = ClusterBranchAndBound(
            taillard_instance(20, 20, index=1), ClusterSpec(n_nodes=2), config
        ).solve()
        assert not result.proved_optimal
        assert len(result.iterations) < 40

    def test_cli_max_time_reaches_the_cluster(self, capsys):
        # a 1 us budget expires during the root launch, so the root pool is
        # the only one; a run ignoring it would go on to the node budget
        code = main(
            "solve --jobs 20 --machines 20 --engine cluster --nodes 2 "
            "--pool-size 1024 --max-nodes 4096 --max-time 1e-6".split()
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal  : False" in out
        assert int(re.search(r"pools=(\d+)", out).group(1)) == 1


class TestNoNehSeed:
    @staticmethod
    def _forbid_neh(monkeypatch):
        def boom(instance):
            raise AssertionError("NEH must not run with use_neh_upper_bound=False")

        for module in (gpu_bb_module, cluster_module, pipeline_module):
            if hasattr(module, "neh_heuristic"):
                monkeypatch.setattr(module, "neh_heuristic", boom)

    def test_cluster_explores_the_gpu_engines_tree(self, monkeypatch):
        config = GpuBBConfig(pool_size=16, use_neh_upper_bound=False)
        gpu = GpuBranchAndBound(OPEN, config).solve()
        self._forbid_neh(monkeypatch)
        cluster = ClusterBranchAndBound(OPEN, ClusterSpec(n_nodes=3), config).solve()
        assert cluster.best_makespan == gpu.best_makespan
        for counter in COUNTERS:
            assert getattr(cluster.stats, counter) == getattr(gpu.stats, counter), counter
        assert len(cluster.iterations) == len(gpu.iterations)

    def test_hybrid_takes_no_neh_seed(self, monkeypatch):
        reference = SequentialBranchAndBound(OPEN).solve()
        self._forbid_neh(monkeypatch)
        result = HybridBranchAndBound(
            OPEN, HybridConfig(gpu=GpuBBConfig(pool_size=16, use_neh_upper_bound=False))
        ).solve()
        assert result.proved_optimal
        assert result.best_makespan == reference.best_makespan

    @pytest.mark.parametrize("engine", ["gpu", "cluster", "hybrid"])
    def test_cut_before_any_leaf_raises_no_incumbent(self, engine):
        config = GpuBBConfig(pool_size=4, use_neh_upper_bound=False, max_iterations=1)
        if engine == "gpu":
            run = GpuBranchAndBound(OPEN, config).solve
        elif engine == "cluster":
            run = ClusterBranchAndBound(OPEN, ClusterSpec(n_nodes=2), config).solve
        else:
            run = HybridBranchAndBound(OPEN, HybridConfig(gpu=config)).solve
        with pytest.raises(RuntimeError, match="without an incumbent"):
            run()


class TestHybridBudgets:
    """Every budget bounds the whole hybrid solve, not each sub-tree."""

    @staticmethod
    def _solve(**budget):
        return HybridBranchAndBound(
            OPEN, HybridConfig(gpu=GpuBBConfig(pool_size=16, **budget))
        ).solve()

    def test_max_nodes(self):
        full = self._solve()
        assert full.proved_optimal
        assert len(full.iterations) > 2 and full.stats.nodes_explored > 100
        result = self._solve(max_nodes=50)
        assert not result.proved_optimal
        # checked per launch, as on the GPU engine: at most one pool past it
        assert 50 <= result.stats.nodes_explored < full.stats.nodes_explored

    def test_max_iterations_counts_every_launch(self):
        result = self._solve(max_iterations=2)
        assert not result.proved_optimal
        assert len(result.iterations) == 2
        assert result.stats.pools_evaluated == 2

    def test_max_time_is_one_deadline(self):
        # the deadline passes while NEH runs, so no sub-tree is seeded
        result = self._solve(max_time_s=1e-6)
        assert not result.proved_optimal
        assert result.best_makespan == neh_heuristic(OPEN).makespan
        assert result.iterations == []
        assert result.stats.nodes_bounded == 0
