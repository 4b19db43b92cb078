"""One engine assembly: every engine seeds, runs and finishes its search
through :func:`~repro.bb.driver.run_search`, and honours every budget it
accepts.

* **The seed rule.** A seed whose bound meets the incumbent is counted as
  pruned and never pushed — on every engine, from the root or from a
  prefix seed.  A complete seed is examined as a leaf and credits
  ``incumbent_updates`` when it improves.
* **Budgets.** The cluster stops at ``max_time_s`` (library and CLI); the
  hybrid's ``max_nodes``, ``max_iterations`` and ``max_time_s`` bound the
  whole solve, not each sub-tree.  A budget that admits no step (no node,
  no launch, no time) is refused where it is given, by one check
  (``SearchLimits``): at engine construction and at session admission.
* **The selection names.** ``"best-first"``, ``"depth-first"`` and
  ``"fifo"``, exactly: every engine, ``GpuBBConfig`` and ``SessionConfig``
  refuse any other name at construction, by one check
  (:func:`~repro.bb.frontier.check_selection`).
* **The int32 limit.** Release times, bounds and makespans live in int32
  and never exceed the instance's total processing time, so an instance
  whose total exceeds ``2**31 - 1`` is refused on every engine and over
  the service, and one whose total is exactly that solves exactly.
* **The starting incumbent.** With ``use_neh_upper_bound=False`` the
  cluster and the hybrid take no NEH seed, and a budget cut before any
  leaf raises the GPU engine's "no incumbent" error.
"""

from __future__ import annotations

import asyncio
import re
from itertools import permutations

import numpy as np
import pytest

import repro.core.cluster as cluster_module
import repro.core.gpu_bb as gpu_bb_module
import repro.core.pipeline as pipeline_module
from repro.bb.bruteforce import brute_force_optimum
from repro.bb.driver import SearchLimits, TraceEvent
from repro.bb.multicore import MulticoreBranchAndBound
from repro.bb.sequential import SequentialBranchAndBound
from repro.cli import main
from repro.core.cluster import ClusterBranchAndBound, ClusterSpec
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import GpuBranchAndBound
from repro.core.pipeline import HybridBranchAndBound, HybridConfig
from repro.flowshop import FlowShopInstance, random_instance, taillard_instance
from repro.flowshop.bounds import LowerBoundData, lower_bound
from repro.flowshop.neh import neh_heuristic
from repro.flowshop.schedule import Schedule
from repro.service import InstanceSpec, ServiceClient, SolveParams, SolveServer, SolveService
from repro.service.dispatch import BatchDispatcher
from repro.service.session import SessionConfig, SolveSession
from repro.testing import static_split

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

#: a 6x4 instance whose total processing time (6,745,016,477) int32 cannot
#: hold: unchecked, every engine reported a makespan of -1,902,218,523 as
#: proved optimal, where brute force gives 2,317,401,765
OVERFLOW = FlowShopInstance(np.random.default_rng(1).integers(1, 2**29, size=(6, 4)))

INT32_MAX = 2**31 - 1


def _at_int32_limit(processing_times) -> FlowShopInstance:
    """The instance scaled up to a total processing time of exactly ``2**31 - 1``."""
    pt = np.asarray(processing_times, dtype=np.int64)
    pt = pt * (INT32_MAX // pt.sum())
    pt[-1, -1] += INT32_MAX - pt.sum()
    return FlowShopInstance(pt)


def _wire_solve(instance, params=None):
    """The terminal reply of one solve sent over a real TCP socket."""

    async def run():
        async with SolveService(max_active_sessions=1) as service:
            async with SolveServer(service) as server:
                client = await ServiceClient.connect("127.0.0.1", server.port)
                async with client:
                    spec = InstanceSpec.explicit(instance.processing_times.tolist())
                    return await client.solve(spec, params)

    return asyncio.run(run())


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
        seeds = DOMINATED.n_jobs * (DOMINATED.n_jobs - 1)
        if engine == "hybrid":
            result = HybridBranchAndBound(
                DOMINATED, HybridConfig(gpu=GpuBBConfig(pool_size=16))
            ).solve()
            seeds = DOMINATED.n_jobs
        elif engine == "static":
            result = static_split(DOMINATED, decomposition_depth=2)
        else:
            result = MulticoreBranchAndBound(
                DOMINATED, n_workers=1, backend="serial", decomposition_depth=2
            ).solve()
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
                gpu=GpuBBConfig(pool_size=16, use_neh_upper_bound=False),
            ),
        ).solve()
        multicore = MulticoreBranchAndBound(
            instance,
            n_workers=1,
            backend="serial",
            decomposition_depth=instance.n_jobs,
            initial_upper_bound=float("inf"),
        ).solve()
        # every seed is a leaf, and each one that beats the best so far is
        # an update (no NEH seed)
        n_leaves = len(list(permutations(range(4))))
        assert hybrid.stats.leaves_evaluated == n_leaves
        assert 1 <= hybrid.stats.incumbent_updates < n_leaves
        for counter in ("nodes_bounded", "leaves_evaluated", "incumbent_updates"):
            assert getattr(hybrid.stats, counter) == getattr(multicore.stats, counter), counter
        best = min(Schedule(instance, p).makespan for p in permutations(range(4)))
        assert hybrid.best_makespan == multicore.best_makespan == best


class TestClusterBudgets:
    def test_cluster_stops_at_max_time(self):
        # an iteration cap far past what 0.5 s reaches (40 iterations take
        # 0.5-0.9 s on a 2-vCPU host), so only the time budget can stop it
        config = GpuBBConfig(pool_size=1024, max_time_s=0.5, max_iterations=400)
        result = ClusterBranchAndBound(
            taillard_instance(20, 20, index=1), ClusterSpec(n_nodes=2), config
        ).solve()
        assert not result.proved_optimal
        assert len(result.iterations) < 400

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


class TestBudgetContract:
    """A budget that admits no step is refused where it is given, by one check."""

    @pytest.mark.parametrize(
        "budget",
        [{"max_nodes": 0}, {"max_time_s": 0.0}, {"max_time_s": -1.0}, {"max_iterations": 0}],
        ids=["max_nodes", "max_time_s-zero", "max_time_s-negative", "max_iterations"],
    )
    def test_search_limits_refuse_it(self, budget):
        with pytest.raises(ValueError, match=f"{next(iter(budget))} must be positive"):
            SearchLimits(**budget)

    @pytest.mark.parametrize(
        "budget", [{"max_nodes": 0}, {"max_time_s": -1.0}], ids=["max_nodes", "max_time_s"]
    )
    def test_engines_and_sessions_refuse_it_at_construction(self, budget):
        # at the parent each returned NEH's makespan, unproved, after 0 nodes
        with pytest.raises(ValueError, match="must be positive"):
            SequentialBranchAndBound(OPEN, **budget)
        with pytest.raises(ValueError, match="must be positive"):
            SessionConfig(**budget)

    def test_service_answers_an_error_reply(self):
        reply = _wire_solve(OPEN, SolveParams(max_nodes=0))
        assert reply.type == "error"
        assert "max_nodes must be positive" in reply.message


class TestSelectionContract:
    """A selection strategy has one name, refused at construction otherwise."""

    #: the frontier's former aliases, its former case folding, and a typo
    REFUSED = ("best", "depth", "breadth-first", "Best-First", "FIFO", "bogus")

    def test_serial_engine_refuses_it(self):
        for selection in self.REFUSED:
            with pytest.raises(ValueError, match="unknown selection strategy"):
                SequentialBranchAndBound(OPEN, selection=selection)

    def test_multicore_engine_refuses_it(self):
        # unchecked, "bogus" failed only in solve(), as a RuntimeError of the workers
        for selection in self.REFUSED:
            with pytest.raises(ValueError, match="unknown selection strategy"):
                MulticoreBranchAndBound(OPEN, n_workers=2, backend="thread", selection=selection)

    def test_gpu_config_refuses_it(self):
        for selection in self.REFUSED:
            with pytest.raises(ValueError, match="unknown selection strategy"):
                GpuBBConfig(selection=selection)

    def test_session_config_refuses_it(self):
        for selection in self.REFUSED:
            with pytest.raises(ValueError, match="unknown selection strategy"):
                SessionConfig(selection=selection)


class TestInt32Limit:
    """An instance's total processing time bounds every int32 value of its search."""

    @pytest.mark.parametrize("engine", ["serial", "gpu", "cluster", "hybrid", "static"])
    def test_overflowing_total_is_refused(self, engine):
        solve = {
            "serial": lambda: SequentialBranchAndBound(OVERFLOW).solve(),
            "gpu": lambda: GpuBranchAndBound(OVERFLOW, GpuBBConfig(pool_size=16)).solve(),
            "cluster": lambda: ClusterBranchAndBound(
                OVERFLOW, ClusterSpec(n_nodes=2), GpuBBConfig(pool_size=16)
            ).solve(),
            "hybrid": lambda: HybridBranchAndBound(
                OVERFLOW, HybridConfig(gpu=GpuBBConfig(pool_size=16))
            ).solve(),
            "static": lambda: static_split(OVERFLOW),
        }[engine]
        with pytest.raises(ValueError, match=re.escape(f"2**31 - 1 = {INT32_MAX}")):
            solve()

    def test_one_past_the_limit_is_refused(self):
        with pytest.raises(ValueError, match=re.escape(f"total processing time {INT32_MAX + 1}")):
            LowerBoundData(FlowShopInstance([[INT32_MAX - 3], [1], [1], [1], [1]]))

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_multicore_workers_report_it(self, backend):
        # refused at construction, before any worker starts
        with pytest.raises(ValueError, match=re.escape(f"2**31 - 1 = {INT32_MAX}")):
            MulticoreBranchAndBound(OVERFLOW, n_workers=2, backend=backend)

    def test_service_answers_an_error_reply(self):
        reply = _wire_solve(OVERFLOW)
        assert reply.type == "error"
        assert "2**31 - 1" in reply.message

    @pytest.mark.parametrize(
        "instance",
        [
            *(
                _at_int32_limit(np.random.default_rng(seed).integers(1, 100, size=(5, 4)))
                for seed in range(6)
            ),
            # one machine: the makespan is the total itself
            FlowShopInstance([[INT32_MAX - 4], [1], [1], [1], [1]]),
        ],
        ids=[*(f"5x4-seed{seed}" for seed in range(6)), "5x1"],
    )
    @pytest.mark.parametrize("neh", [True, False], ids=["neh", "no-neh"])
    def test_total_at_the_limit_solves_exactly(self, instance, neh):
        assert int(instance.processing_times.sum()) == INT32_MAX
        _, optimum = brute_force_optimum(instance)
        start = None if neh else float("inf")
        serial = SequentialBranchAndBound(instance, initial_upper_bound=start).solve()
        gpu = GpuBranchAndBound(instance, GpuBBConfig(pool_size=8, use_neh_upper_bound=neh)).solve()
        for result in (serial, gpu):
            assert result.best_makespan == optimum
            assert result.proved_optimal
