"""Tests for the work-stealing, shared-incumbent parallel engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb import (
    MulticoreBranchAndBound,
    SequentialBranchAndBound,
    SharedIncumbent,
    WorkStealingBranchAndBound,
    brute_force_optimum,
)
from repro.bb.worksteal import frontier_prefixes
from repro.flowshop import FlowShopInstance, random_instance


class TestSharedIncumbent:
    def test_initial_value(self):
        incumbent = SharedIncumbent(100.0)
        assert incumbent.get() == 100.0

    def test_update_only_tightens(self):
        incumbent = SharedIncumbent(100.0)
        assert incumbent.try_update(90)
        assert incumbent.get() == 90.0
        assert not incumbent.try_update(90)  # ties lose the CAS
        assert not incumbent.try_update(95)
        assert incumbent.get() == 90.0

    def test_concurrent_updates_keep_minimum(self):
        import threading

        incumbent = SharedIncumbent(1000.0)
        values = list(range(100, 200))

        def hammer(chunk):
            for value in chunk:
                incumbent.try_update(value)

        threads = [
            threading.Thread(target=hammer, args=(values[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert incumbent.get() == 100.0


class TestFrontier:
    def test_depth_two_is_oversubscribed(self):
        prefixes = frontier_prefixes(6, 2)
        assert len(prefixes) == 6 * 5
        assert all(len(p) == 2 and p[0] != p[1] for p in prefixes)

    def test_depth_zero_is_root(self):
        assert frontier_prefixes(4, 0) == [()]


class TestValidation:
    def test_rejects_unknown_backend(self, small_instance):
        with pytest.raises(ValueError):
            WorkStealingBranchAndBound(small_instance, backend="gpu")

    def test_rejects_bad_depth(self, small_instance):
        with pytest.raises(ValueError):
            WorkStealingBranchAndBound(small_instance, decomposition_depth=0)

    def test_rejects_bad_poll_interval(self, small_instance):
        with pytest.raises(ValueError):
            WorkStealingBranchAndBound(small_instance, poll_interval=0)

    def test_depth_clamped_to_jobs(self, tiny_instance):
        solver = WorkStealingBranchAndBound(
            tiny_instance, backend="serial", decomposition_depth=10
        )
        assert solver.decomposition_depth == tiny_instance.n_jobs
        assert solver.solve().proved_optimal


class TestExactness:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_bruteforce(self, small_instance, backend, depth):
        _, optimum = brute_force_optimum(small_instance)
        result = WorkStealingBranchAndBound(
            small_instance, n_workers=2, backend=backend, decomposition_depth=depth
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_process_backend(self, small_instance):
        _, optimum = brute_force_optimum(small_instance)
        result = WorkStealingBranchAndBound(
            small_instance, n_workers=2, backend="process", decomposition_depth=2
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_aggressive_polling(self, medium_instance):
        serial = SequentialBranchAndBound(medium_instance).solve()
        result = WorkStealingBranchAndBound(
            medium_instance, n_workers=4, backend="thread", poll_interval=1
        ).solve()
        assert result.best_makespan == serial.best_makespan

    def test_full_depth_decomposition(self, tiny_instance):
        # every chunk root is a complete schedule (leaf)
        _, optimum = brute_force_optimum(tiny_instance)
        result = WorkStealingBranchAndBound(
            tiny_instance, n_workers=2, backend="thread", decomposition_depth=3
        ).solve()
        assert result.best_makespan == optimum

    def test_optimal_initial_upper_bound_returns_bound(self, small_instance):
        _, optimum = brute_force_optimum(small_instance)
        result = WorkStealingBranchAndBound(
            small_instance, n_workers=2, backend="thread", initial_upper_bound=optimum
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    @given(
        st.integers(2, 6),
        st.integers(2, 4),
        st.integers(0, 10_000),
        st.sampled_from(["serial", "thread"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_sequential_on_random_instances(self, n, m, seed, backend):
        instance = FlowShopInstance(
            np.random.default_rng(seed).integers(1, 99, size=(n, m)),
            name=f"hyp_ws_{n}x{m}_{seed}",
        )
        serial = SequentialBranchAndBound(instance).solve()
        result = WorkStealingBranchAndBound(
            instance, n_workers=2, backend=backend, decomposition_depth=2
        ).solve()
        assert result.best_makespan == serial.best_makespan
        assert result.proved_optimal


class TestBudgetsAndFailures:
    def test_time_budget_is_global_not_per_chunk(self):
        # 132 depth-2 chunks share ONE deadline; a per-chunk budget would
        # let the run take ~132x longer than requested
        import time

        instance = random_instance(12, 8, seed=5)
        start = time.perf_counter()
        result = WorkStealingBranchAndBound(
            instance, n_workers=2, backend="thread", max_time_s=0.05
        ).solve()
        wall = time.perf_counter() - start
        assert not result.proved_optimal
        assert result.best_makespan > 0  # the NEH incumbent is still reported
        assert wall < 5.0

    def test_truncated_run_with_infinite_bound_raises(self, medium_instance):
        # an infinite bound plus a budget that cuts every chunk before the
        # first leaf leaves nothing to report
        engine = WorkStealingBranchAndBound(
            medium_instance,
            n_workers=1,
            backend="serial",
            decomposition_depth=1,
            initial_upper_bound=float("inf"),
            max_nodes_per_task=1,
        )
        with pytest.raises(RuntimeError, match="without an incumbent"):
            engine.solve()

    def test_worker_thread_failure_propagates(self, small_instance, monkeypatch):
        import repro.bb.multicore as multicore_module

        class Boom:
            def __init__(self, *args, **kwargs):
                raise OSError("worker resources exhausted")

        monkeypatch.setattr(multicore_module, "_SubtreeSolver", Boom)
        engine = WorkStealingBranchAndBound(small_instance, n_workers=2, backend="thread")
        with pytest.raises(RuntimeError, match="worker thread"):
            engine.solve()


class TestRebalancing:
    """rebalance=True: budget-cut chunks re-enqueue their live remainder."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_tiny_node_budget_stays_exact(self, small_instance, backend):
        # Without rebalancing, max_nodes_per_task=5 truncates nearly every
        # chunk; with it the cuts become time-slices and the proof survives.
        _, optimum = brute_force_optimum(small_instance)
        engine = WorkStealingBranchAndBound(
            small_instance,
            n_workers=2,
            backend=backend,
            decomposition_depth=1,
            max_nodes_per_task=5,
            rebalance=True,
        )
        result = engine.solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal
        assert engine.rebalanced_chunks > 0

    def test_process_backend(self, small_instance):
        _, optimum = brute_force_optimum(small_instance)
        engine = WorkStealingBranchAndBound(
            small_instance,
            n_workers=2,
            backend="process",
            decomposition_depth=1,
            max_nodes_per_task=10,
            rebalance=True,
        )
        result = engine.solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_infinite_bound_completes_instead_of_raising(self, tiny_instance):
        # The twin of test_truncated_run_with_infinite_bound_raises: the
        # same starved configuration finds the optimum once remainders are
        # re-enqueued instead of dropped.
        _, optimum = brute_force_optimum(tiny_instance)
        result = WorkStealingBranchAndBound(
            tiny_instance,
            n_workers=1,
            backend="serial",
            decomposition_depth=1,
            initial_upper_bound=float("inf"),
            max_nodes_per_task=1,
            rebalance=True,
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_deadline_remains_a_hard_stop(self):
        import time

        instance = random_instance(12, 8, seed=5)
        start = time.perf_counter()
        result = WorkStealingBranchAndBound(
            instance,
            n_workers=2,
            backend="thread",
            max_time_s=0.05,
            max_nodes_per_task=50,
            rebalance=True,
        ).solve()
        wall = time.perf_counter() - start
        assert not result.proved_optimal
        assert wall < 5.0

    def test_best_first_chunks_survive_rebalancing(self, small_instance):
        _, optimum = brute_force_optimum(small_instance)
        result = WorkStealingBranchAndBound(
            small_instance,
            n_workers=2,
            backend="thread",
            decomposition_depth=1,
            selection="best-first",
            max_nodes_per_task=5,
            rebalance=True,
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal


class TestWorkAvoidance:
    def test_fewer_nodes_than_static_split(self):
        """Acceptance: shared incumbent beats the static split at 4 workers."""
        instance = random_instance(10, 5, seed=1)  # NEH 734 vs optimum 707
        serial = SequentialBranchAndBound(instance).solve()
        static = MulticoreBranchAndBound(
            instance,
            n_workers=4,
            backend="thread",
            mode="static",
            decomposition_depth=2,
        ).solve()
        worksteal = MulticoreBranchAndBound(
            instance,
            n_workers=4,
            backend="thread",
            mode="worksteal",
            decomposition_depth=2,
        ).solve()
        assert static.best_makespan == serial.best_makespan
        assert worksteal.best_makespan == serial.best_makespan
        assert worksteal.proved_optimal
        assert worksteal.stats.nodes_bounded < static.stats.nodes_bounded

    def test_serial_backend_chains_the_incumbent(self, medium_instance):
        """Even one worker benefits: the bound flows between stolen chunks."""
        static = MulticoreBranchAndBound(
            medium_instance,
            n_workers=1,
            backend="serial",
            mode="static",
            decomposition_depth=2,
        ).solve()
        worksteal = MulticoreBranchAndBound(
            medium_instance,
            n_workers=1,
            backend="serial",
            mode="worksteal",
            decomposition_depth=2,
        ).solve()
        assert worksteal.best_makespan == static.best_makespan
        assert worksteal.stats.nodes_bounded <= static.stats.nodes_bounded

    def test_worksteal_block_aggressive_polling(self, medium_instance):
        # poll_interval=1 exercises BlockFrontier.prune_to on every pop
        result = MulticoreBranchAndBound(
            medium_instance,
            n_workers=4,
            backend="thread",
            mode="worksteal",
            poll_interval=1,
        ).solve()
        assert result.proved_optimal
        stats = result.stats
        assert stats.nodes_bounded == (
            stats.nodes_branched + stats.nodes_pruned + stats.leaves_evaluated
        )


class TestFacade:
    def test_default_mode_is_worksteal(self, small_instance):
        solver = MulticoreBranchAndBound(small_instance)
        assert solver.mode == "worksteal"
        assert solver.decomposition_depth == 2

    def test_static_mode_defaults_to_depth_one(self, small_instance):
        solver = MulticoreBranchAndBound(small_instance, mode="static")
        assert solver.decomposition_depth == 1

    def test_rejects_unknown_mode(self, small_instance):
        with pytest.raises(ValueError):
            MulticoreBranchAndBound(small_instance, mode="magic")

    def test_worker_stats_are_merged(self, small_instance):
        result = MulticoreBranchAndBound(
            small_instance, n_workers=2, backend="thread"
        ).solve()
        assert result.stats.nodes_bounded > 0
        assert result.stats.time_total_s > 0
