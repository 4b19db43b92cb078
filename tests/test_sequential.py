"""Tests for the serial Branch-and-Bound engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb import SequentialBranchAndBound, brute_force_optimum
from repro.flowshop import FlowShopInstance, makespan, random_instance


class TestOptimality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 9])
    def test_matches_bruteforce(self, seed):
        inst = random_instance(7, 4, seed=seed)
        _, optimum = brute_force_optimum(inst)
        result = SequentialBranchAndBound(inst).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal
        assert makespan(inst, result.best_order) == result.best_makespan

    @pytest.mark.parametrize("selection", ["best-first", "depth-first", "fifo"])
    def test_all_strategies_agree(self, medium_instance, selection):
        result = SequentialBranchAndBound(medium_instance, selection=selection).solve()
        _, optimum = brute_force_optimum(medium_instance)
        assert result.best_makespan == optimum

    def test_two_machine_instance_matches_johnson(self):
        from repro.flowshop import johnson_makespan

        inst = random_instance(8, 2, seed=4)
        result = SequentialBranchAndBound(inst).solve()
        a = inst.processing_times[:, 0]
        b = inst.processing_times[:, 1]
        assert result.best_makespan == johnson_makespan(a, b)

    def test_single_machine_instance(self):
        inst = FlowShopInstance([[4], [2], [7], [1]])
        result = SequentialBranchAndBound(inst).solve()
        assert result.best_makespan == 14

    def test_single_job_instance(self):
        inst = FlowShopInstance([[4, 5, 6]])
        result = SequentialBranchAndBound(inst).solve()
        assert result.best_makespan == 15
        assert result.best_order == (0,)

    @given(st.integers(0, 2000), st.integers(2, 6), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_never_better_than_bruteforce(self, seed, n, m):
        rng = np.random.default_rng(seed)
        inst = FlowShopInstance(rng.integers(1, 40, size=(n, m)))
        _, optimum = brute_force_optimum(inst)
        result = SequentialBranchAndBound(inst).solve()
        assert result.best_makespan == optimum


class TestIncumbents:
    def test_neh_seed_reduces_explored_nodes(self, medium_instance):
        with_neh = SequentialBranchAndBound(medium_instance).solve()
        without = SequentialBranchAndBound(
            medium_instance, initial_upper_bound=float("inf")
        ).solve()
        assert with_neh.best_makespan == without.best_makespan
        assert with_neh.stats.nodes_bounded <= without.stats.nodes_bounded

    def test_explicit_upper_bound_respected(self, medium_instance):
        optimum = SequentialBranchAndBound(medium_instance).solve().best_makespan
        # a UB one above the optimum still lets the search find the optimum
        result = SequentialBranchAndBound(medium_instance, initial_upper_bound=optimum + 1).solve()
        assert result.best_makespan == optimum

    def test_incumbent_callback(self, medium_instance):
        seen = []
        SequentialBranchAndBound(
            medium_instance,
            initial_upper_bound=float("inf"),
            on_incumbent=lambda value, order: seen.append(value),
        ).solve()
        assert seen == sorted(seen, reverse=True)
        assert len(seen) >= 1

    def test_unreachable_upper_bound_raises(self, small_instance):
        # a UB below every schedule means no incumbent can ever be produced
        with pytest.raises(RuntimeError):
            SequentialBranchAndBound(small_instance, initial_upper_bound=1).solve()


class TestBudgets:
    def test_node_budget_marks_not_proven(self, medium_instance):
        result = SequentialBranchAndBound(
            medium_instance, max_nodes=5, initial_upper_bound=None
        ).solve()
        assert not result.proved_optimal
        # the incumbent is still a valid schedule
        assert makespan(medium_instance, result.best_order) == result.best_makespan

    def test_time_budget_marks_not_proven(self):
        # the scalar kernel keeps this search comfortably slower than the
        # budget; the batched kernels can finish 11x8 within 50 ms
        inst = random_instance(11, 8, seed=0)
        result = SequentialBranchAndBound(inst, max_time_s=0.05, kernel="scalar").solve()
        assert not result.proved_optimal

    def test_budget_result_not_below_optimum(self, medium_instance):
        _, optimum = brute_force_optimum(medium_instance)
        result = SequentialBranchAndBound(medium_instance, max_nodes=3).solve()
        assert result.best_makespan >= optimum


class TestStatsAndTrace:
    def test_stats_consistency(self, medium_instance):
        result = SequentialBranchAndBound(medium_instance).solve()
        stats = result.stats
        assert stats.nodes_bounded >= stats.nodes_branched
        assert stats.time_total_s > 0
        assert 0 <= stats.bounding_fraction <= 1
        assert stats.time_bounding_s <= stats.time_total_s

    def test_bounding_dominates_runtime_on_wide_instances(self, paper_instance):
        """The paper's preliminary observation: bounding is the vast majority
        of the serial runtime for m=20 instances (measured on the scalar,
        one-call-per-node path the paper instruments)."""
        result = SequentialBranchAndBound(paper_instance, max_nodes=150, kernel="scalar").solve()
        assert result.stats.bounding_fraction > 0.80

    def test_kernel_choices_are_v2_and_scalar(self, tiny_instance):
        with pytest.raises(ValueError, match="'scalar' or 'v2'"):
            SequentialBranchAndBound(tiny_instance, kernel="v1")

    def test_trace_records_root(self, tiny_instance):
        result = SequentialBranchAndBound(
            tiny_instance, trace=True, initial_upper_bound=float("inf")
        ).solve()
        assert result.trace
        assert result.trace[0].prefix == ()
        actions = {event.action for event in result.trace}
        assert "branched" in actions
        assert "incumbent" in actions

    def test_summary_keys(self, tiny_instance):
        result = SequentialBranchAndBound(tiny_instance).solve()
        summary = result.summary()
        assert summary["best_makespan"] == result.best_makespan
        assert "bounding_fraction" in summary


class TestBlockConservation:
    """nodes_bounded == branched + pruned + leaves on every completed run."""

    def test_sequential_block(self, medium_instance):
        result = SequentialBranchAndBound(medium_instance).solve()
        stats = result.stats
        assert result.proved_optimal
        assert stats.nodes_bounded == (
            stats.nodes_branched + stats.nodes_pruned + stats.leaves_evaluated
        )
