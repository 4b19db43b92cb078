"""Tests for the experimental protocol helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.protocol import (
    ExperimentProtocol,
    collect_pending_pool,
    estimate_frontier_depth,
    estimate_remaining_jobs,
    synthetic_pool,
)
from repro.flowshop import lower_bound_batch
from repro.flowshop.schedule import partial_completion_times


class TestDepthEstimates:
    def test_depth_grows_with_pool_size(self):
        depths = [estimate_frontier_depth(20, p) for p in (1, 100, 10_000, 262_144)]
        assert depths == sorted(depths)
        assert depths[0] == 0

    def test_depth_capped_at_jobs(self):
        assert estimate_frontier_depth(5, 10**9) == 5

    def test_known_values(self):
        # 20 jobs: 20*19*18*17 = 116280 < 262144 <= 20*19*18*17*16
        assert estimate_frontier_depth(20, 262_144) == 5
        # 200 jobs: 200*199 = 39800 >= 8192 at depth 2
        assert estimate_frontier_depth(200, 8_192) == 2

    def test_remaining_jobs_complement(self):
        assert estimate_remaining_jobs(20, 262_144) == 15
        assert estimate_remaining_jobs(200, 262_144) == 197
        assert estimate_remaining_jobs(3, 10**9) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_frontier_depth(0, 10)
        with pytest.raises(ValueError):
            estimate_frontier_depth(10, 0)


class TestSyntheticPool:
    def test_shapes_and_depth(self, small_instance):
        mask, release = synthetic_pool(small_instance, 50, depth=2, seed=3)
        assert mask.shape == (50, small_instance.n_jobs)
        assert release.shape == (50, small_instance.n_machines)
        assert (mask.sum(axis=1) == 2).all()

    def test_release_times_match_reference(self, small_instance):
        mask, release = synthetic_pool(small_instance, 20, depth=3, seed=1)
        # the release times must be *a* valid release vector of the selected
        # job set; compare against the slow reference for one row by trying
        # every ordering of its scheduled set is overkill — instead rebuild
        # using the same job order extraction is not available, so check a
        # necessary invariant: release is achievable only if >= per-machine
        # total of the scheduled jobs (prefix sums) and non-decreasing rows.
        pt = small_instance.processing_times
        for i in range(20):
            jobs = np.flatnonzero(mask[i])
            loads = pt[jobs].sum(axis=0)
            assert (release[i] >= loads).all()
            assert (np.diff(release[i]) >= 0).all()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_rows_equal_partial_completion_times(self, medium_instance, seed):
        # the prefixes are the first `depth` columns of random permutations
        # drawn from default_rng(seed); each row's mask pins that draw
        n, rows = medium_instance.n_jobs, 40
        for depth in range(n + 1):
            mask, release = synthetic_pool(medium_instance, rows, depth=depth, seed=seed)
            rng = np.random.default_rng(seed)
            prefixes = np.argsort(rng.random((rows, n)), axis=1)[:, :depth]
            for row, prefix in enumerate(prefixes):
                assert set(np.flatnonzero(mask[row])) == set(prefix.tolist())
                want = partial_completion_times(medium_instance, prefix)
                assert np.array_equal(release[row], want), (depth, row)

    def test_depth_zero_gives_roots(self, small_instance):
        mask, release = synthetic_pool(small_instance, 5, depth=0)
        assert not mask.any()
        assert not release.any()

    def test_deterministic(self, small_instance):
        a = synthetic_pool(small_instance, 10, seed=7)
        b = synthetic_pool(small_instance, 10, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_pool_is_consumable_by_batch_kernel(self, small_instance, small_instance_data):
        mask, release = synthetic_pool(small_instance, 16, seed=0)
        bounds = lower_bound_batch(small_instance_data, mask, release)
        assert bounds.shape == (16,)
        assert (bounds > 0).all()

    def test_validation(self, small_instance):
        with pytest.raises(ValueError):
            synthetic_pool(small_instance, 0)


class TestCollectPendingPool:
    def test_returns_requested_number_when_available(self, medium_instance):
        pool = collect_pending_pool(medium_instance, 32, upper_bound=float("inf"))
        assert len(pool) == 32
        assert (pool.lower_bound >= 0).all()  # every row bounded

    def test_nodes_have_consistent_release_times(self, medium_instance):
        pool = collect_pending_pool(medium_instance, 16, upper_bound=float("inf"))
        for row in range(len(pool)):
            expected = partial_completion_times(medium_instance, pool.prefix(row))
            assert np.array_equal(pool.release[row], expected)

    def test_pruning_with_neh_incumbent(self, medium_instance):
        """With the NEH incumbent the pool only contains improvable nodes."""
        from repro.flowshop import neh_heuristic

        ub = neh_heuristic(medium_instance).makespan
        pool = collect_pending_pool(medium_instance, 64)
        assert (pool.lower_bound < ub).all()

    def test_small_tree_returns_fewer_nodes(self, tiny_instance):
        pool = collect_pending_pool(tiny_instance, 1000, upper_bound=float("inf"))
        assert len(pool) < 1000

    def test_validation(self, tiny_instance):
        with pytest.raises(ValueError):
            collect_pending_pool(tiny_instance, 0)


class TestExperimentProtocol:
    def test_n_remaining_uses_depth_model(self):
        protocol = ExperimentProtocol()
        assert protocol.n_remaining(20, 262_144) == 15

    def test_depth_model_can_be_disabled(self):
        protocol = ExperimentProtocol(apply_depth_model=False)
        assert protocol.n_remaining(20, 262_144) is None
