"""Tests for the multi-core Branch-and-Bound baseline."""

from __future__ import annotations

import pytest

from repro.bb import MulticoreBranchAndBound, SequentialBranchAndBound, brute_force_optimum


class TestCorrectness:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_bruteforce(self, small_instance, backend, depth):
        _, optimum = brute_force_optimum(small_instance)
        result = MulticoreBranchAndBound(
            small_instance, n_workers=2, backend=backend, decomposition_depth=depth
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_process_backend(self, small_instance):
        _, optimum = brute_force_optimum(small_instance)
        result = MulticoreBranchAndBound(
            small_instance, n_workers=2, backend="process", decomposition_depth=1
        ).solve()
        assert result.best_makespan == optimum

    def test_matches_sequential_on_medium_instance(self, medium_instance):
        serial = SequentialBranchAndBound(medium_instance).solve()
        parallel = MulticoreBranchAndBound(
            medium_instance, n_workers=4, backend="thread", decomposition_depth=1
        ).solve()
        assert parallel.best_makespan == serial.best_makespan

    def test_selection_strategy_forwarded(self, small_instance):
        result = MulticoreBranchAndBound(
            small_instance, n_workers=1, backend="serial", selection="best-first"
        ).solve()
        _, optimum = brute_force_optimum(small_instance)
        assert result.best_makespan == optimum


class TestOptimalInitialBound:
    """Regression: an initial bound equal to the optimum used to raise
    ``RuntimeError("parallel search terminated without an incumbent")``."""

    @pytest.mark.parametrize("mode", ["static", "worksteal"])
    def test_returns_the_proven_bound(self, small_instance, mode):
        _, optimum = brute_force_optimum(small_instance)
        result = MulticoreBranchAndBound(
            small_instance,
            n_workers=2,
            backend="thread",
            mode=mode,
            initial_upper_bound=optimum,
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_overtight_bound_is_trusted(self, small_instance):
        # a bound below the optimum admits no improving schedule either;
        # the completed search returns the caller's bound unchanged
        _, optimum = brute_force_optimum(small_instance)
        result = MulticoreBranchAndBound(
            small_instance,
            n_workers=2,
            backend="thread",
            mode="static",
            initial_upper_bound=optimum - 1,
        ).solve()
        assert result.best_makespan == optimum - 1
        assert result.best_order == ()


class TestSubtreeEarlyReturns:
    """Regression: the leaf-root and pruned-root early returns left
    ``time_total_s`` / ``max_pool_size`` unset, under-reporting timings."""

    def test_leaf_root_records_timing(self, tiny_instance):
        from repro.bb.multicore import _SubtreeSolver

        solver = _SubtreeSolver(tiny_instance, prefix=(0, 1, 2), upper_bound=1e9)
        makespan, order, stats, completed = solver.run()
        assert completed and makespan is not None and order == (0, 1, 2)
        assert stats.time_total_s > 0
        assert stats.leaves_evaluated == 1

    def test_rejected_leaf_root_records_timing(self, tiny_instance):
        from repro.bb.multicore import _SubtreeSolver

        solver = _SubtreeSolver(tiny_instance, prefix=(0, 1, 2), upper_bound=1)
        makespan, order, stats, completed = solver.run()
        assert completed and makespan is None and order == ()
        assert stats.time_total_s > 0

    def test_pruned_root_records_timing(self, small_instance):
        from repro.bb.multicore import _SubtreeSolver

        solver = _SubtreeSolver(small_instance, prefix=(0,), upper_bound=1)
        makespan, order, stats, completed = solver.run()
        assert completed and makespan is None
        assert stats.nodes_pruned == 1
        assert stats.time_total_s > 0


class TestConfigurationValidation:
    def test_rejects_unknown_backend(self, small_instance):
        with pytest.raises(ValueError):
            MulticoreBranchAndBound(small_instance, backend="gpu")

    def test_rejects_bad_depth(self, small_instance):
        with pytest.raises(ValueError):
            MulticoreBranchAndBound(small_instance, decomposition_depth=0)

    def test_depth_clamped_to_jobs(self, tiny_instance):
        solver = MulticoreBranchAndBound(tiny_instance, backend="serial", decomposition_depth=10)
        assert solver.decomposition_depth == tiny_instance.n_jobs
        result = solver.solve()
        assert result.proved_optimal


class TestDecomposition:
    def test_frontier_size(self, small_instance):
        solver = MulticoreBranchAndBound(small_instance, decomposition_depth=2, backend="serial")
        prefixes = solver._frontier_prefixes()
        n = small_instance.n_jobs
        assert len(prefixes) == n * (n - 1)
        assert all(len(p) == 2 and p[0] != p[1] for p in prefixes)

    def test_stats_are_merged(self, small_instance):
        result = MulticoreBranchAndBound(
            small_instance, n_workers=2, backend="thread", decomposition_depth=1
        ).solve()
        assert result.stats.nodes_bounded > 0
        assert result.stats.time_total_s > 0

    def test_reference_serial_helper(self, small_instance):
        solver = MulticoreBranchAndBound(small_instance, backend="serial")
        reference = solver.reference_serial()
        assert reference.best_makespan == solver.solve().best_makespan


class TestThreadBackend:
    @pytest.mark.parametrize("mode", ["worksteal", "static"])
    def test_thread_backend_block_exact_and_conserved(self, medium_instance, mode):
        optimum = SequentialBranchAndBound(medium_instance).solve().best_makespan
        result = MulticoreBranchAndBound(
            medium_instance,
            n_workers=4,
            backend="thread",
            mode=mode,
            decomposition_depth=2,
        ).solve()
        assert result.proved_optimal
        assert result.best_makespan == optimum
        stats = result.stats
        assert stats.nodes_bounded == (
            stats.nodes_branched + stats.nodes_pruned + stats.leaves_evaluated
        )
