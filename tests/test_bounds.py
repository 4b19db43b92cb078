"""Tests for the Lenstra lower bound (:mod:`repro.flowshop.bounds`)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowshop import FlowShopInstance, makespan
from repro.flowshop.bounds import (
    DataStructureComplexity,
    LowerBoundData,
    lower_bound,
    lower_bound_batch,
    machine_couples,
    one_machine_bound,
)


def _instance(n, m, seed):
    rng = np.random.default_rng(seed)
    return FlowShopInstance(rng.integers(1, 50, size=(n, m)))


class TestMachineCouples:
    def test_count_and_order(self):
        couples = machine_couples(4)
        assert couples.shape == (6, 2)
        assert couples.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_single_machine_has_no_couples(self):
        assert machine_couples(1).shape == (0, 2)

    def test_rejects_zero_machines(self):
        with pytest.raises(ValueError):
            machine_couples(0)


class TestComplexity:
    def test_paper_table1_values_for_200x20(self):
        c = DataStructureComplexity(n=200, m=20)
        sizes = c.sizes()
        assert sizes["PTM"] == 200 * 20
        assert sizes["LM"] == 200 * 190
        assert sizes["JM"] == 200 * 190
        assert sizes["RM"] == 20
        assert sizes["QM"] == 20
        assert sizes["MM"] == 20 * 19
        acc = c.accesses(200)
        assert acc["PTM"] == 200 * 20 * 19
        assert acc["LM"] == 200 * 190
        assert acc["JM"] == 200 * 190
        assert acc["RM"] == 380
        assert acc["MM"] == 380

    def test_paper_shared_memory_budget(self):
        """JM and LM are ~38 KB each and PTM ~4 KB for 200x20 (packed bytes)."""
        c = DataStructureComplexity(n=200, m=20, bytes_per_element=1)
        assert c.sizes_bytes()["JM"] == 38000
        assert c.sizes_bytes()["LM"] == 38000
        assert c.sizes_bytes()["PTM"] == 4000

    def test_accesses_scale_with_remaining_jobs(self):
        c = DataStructureComplexity(n=50, m=10)
        full = c.accesses(50)
        half = c.accesses(25)
        assert half["PTM"] == full["PTM"] // 2
        assert half["JM"] == full["JM"]  # JM is scanned for all n jobs regardless

    def test_rejects_bad_n_prime(self):
        c = DataStructureComplexity(n=10, m=5)
        with pytest.raises(ValueError):
            c.accesses(11)

    def test_table_rows_order(self):
        c = DataStructureComplexity(n=10, m=5)
        names = [row[0] for row in c.table_rows()]
        assert names == ["PTM", "LM", "JM", "RM", "QM", "MM"]


class TestLowerBoundData:
    def test_shapes(self, small_instance, small_instance_data):
        data = small_instance_data
        n, m = small_instance.shape
        n_couples = m * (m - 1) // 2
        assert data.lm.shape == (n, n_couples)
        assert data.jm.shape == (n, n_couples)
        assert data.mm.shape == (n_couples, 2)
        assert data.tails.shape == (n, m)

    def test_jm_columns_are_permutations(self, small_instance_data):
        data = small_instance_data
        for c in range(data.n_couples):
            assert sorted(data.jm[:, c].tolist()) == list(range(data.n_jobs))

    def test_lags_are_between_sums(self, small_instance, small_instance_data):
        data = small_instance_data
        pt = small_instance.processing_times
        for c in range(data.n_couples):
            k, l = data.mm[c]
            expected = pt[:, k + 1 : l].sum(axis=1)
            assert np.array_equal(data.lm[:, c], expected)

    def test_tails_definition(self, small_instance, small_instance_data):
        pt = small_instance.processing_times
        tails = small_instance_data.tails
        for j in range(small_instance.n_jobs):
            for k in range(small_instance.n_machines):
                assert tails[j, k] == pt[j, k + 1 :].sum()

    def test_release_times_match_schedule_module(self, small_instance, small_instance_data):
        from repro.flowshop.schedule import partial_completion_times

        prefix = [1, 3, 0]
        assert np.array_equal(
            small_instance_data.machine_release_times(prefix),
            partial_completion_times(small_instance, prefix),
        )

    def test_min_tails_all_scheduled_is_zero(self, small_instance_data):
        mask = np.ones(small_instance_data.n_jobs, dtype=bool)
        assert small_instance_data.min_tails(mask).tolist() == [0] * small_instance_data.n_machines

    def test_arrays_read_only(self, small_instance_data):
        with pytest.raises(ValueError):
            small_instance_data.jm[0, 0] = 1


class TestLowerBoundAdmissibility:
    """The central correctness property: LB never exceeds the best completion."""

    def _best_completion(self, instance, prefix):
        remaining = [j for j in range(instance.n_jobs) if j not in prefix]
        if not remaining:
            return makespan(instance, prefix)
        return min(
            makespan(instance, list(prefix) + list(perm))
            for perm in itertools.permutations(remaining)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_root_bound_admissible(self, seed):
        inst = _instance(6, 4, seed)
        data = LowerBoundData(inst)
        assert lower_bound(data, []) <= self._best_completion(inst, [])

    @given(st.integers(0, 500), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_bound_admissible_for_random_prefixes(self, seed, depth):
        inst = _instance(6, 3, seed)
        data = LowerBoundData(inst)
        rng = np.random.default_rng(seed + 1)
        depth = min(depth, inst.n_jobs)
        prefix = list(rng.permutation(inst.n_jobs)[:depth])
        lb = lower_bound(data, prefix)
        assert lb <= self._best_completion(inst, prefix)

    def test_bound_exact_for_complete_schedule(self, small_instance, small_instance_data):
        order = list(range(small_instance.n_jobs))
        assert lower_bound(small_instance_data, order) == makespan(small_instance, order)

    def test_bound_exact_for_two_machines(self):
        """With m=2 the relaxation is the whole problem, so the root LB is optimal."""
        inst = _instance(6, 2, 42)
        data = LowerBoundData(inst)
        best = min(makespan(inst, perm) for perm in itertools.permutations(range(inst.n_jobs)))
        assert lower_bound(data, []) == best

    def test_bound_monotone_under_extension(self, small_instance, small_instance_data):
        """Extending a prefix can only raise (or keep) the bound."""
        data = small_instance_data
        prefix = [0]
        base = lower_bound(data, prefix)
        for job in range(1, small_instance.n_jobs):
            assert lower_bound(data, prefix + [job]) >= base

    def test_bound_at_least_release_of_last_machine(self, small_instance, small_instance_data):
        prefix = [2, 4]
        rm = small_instance_data.machine_release_times(prefix)
        assert lower_bound(small_instance_data, prefix) >= rm[-1]

    def test_one_machine_bound_admissible(self, small_instance, small_instance_data):
        prefix = [1]
        assert one_machine_bound(small_instance_data, prefix) <= self._best_completion(
            small_instance, prefix
        )

    def test_single_machine_instance(self):
        inst = FlowShopInstance([[4], [2], [7]])
        data = LowerBoundData(inst)
        # with one machine the optimal makespan is the total work
        assert lower_bound(data, []) == 13

    def test_rejects_duplicate_prefix(self, small_instance_data):
        with pytest.raises(ValueError):
            lower_bound(small_instance_data, [0, 0])

    def test_rejects_bad_release_shape(self, small_instance_data):
        with pytest.raises(ValueError):
            lower_bound(small_instance_data, [0], release=np.zeros(2, dtype=np.int64))


class TestBatchKernel:
    def test_empty_batch(self, small_instance_data):
        out = lower_bound_batch(
            small_instance_data,
            np.zeros((0, small_instance_data.n_jobs), dtype=bool),
            np.zeros((0, small_instance_data.n_machines), dtype=np.int64),
        )
        assert out.shape == (0,)

    def test_shape_validation(self, small_instance_data):
        with pytest.raises(ValueError):
            lower_bound_batch(
                small_instance_data,
                np.zeros((3, 2), dtype=bool),
                np.zeros((3, small_instance_data.n_machines), dtype=np.int64),
            )
        with pytest.raises(ValueError):
            lower_bound_batch(
                small_instance_data,
                np.zeros((3, small_instance_data.n_jobs), dtype=bool),
                np.zeros((2, small_instance_data.n_machines), dtype=np.int64),
            )

    @given(st.integers(0, 300), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_scalar(self, seed, batch_size):
        """The GPU (batched) kernel is bit-identical to the scalar kernel."""
        inst = _instance(7, 4, seed)
        data = LowerBoundData(inst)
        rng = np.random.default_rng(seed)
        mask = np.zeros((batch_size, inst.n_jobs), dtype=bool)
        release = np.zeros((batch_size, inst.n_machines), dtype=np.int64)
        prefixes = []
        for i in range(batch_size):
            depth = int(rng.integers(0, inst.n_jobs + 1))
            prefix = list(rng.permutation(inst.n_jobs)[:depth])
            prefixes.append(prefix)
            mask[i, prefix] = True
            release[i] = data.machine_release_times(prefix)
        batch = lower_bound_batch(data, mask, release)
        scalar = np.array([lower_bound(data, p) for p in prefixes])
        assert np.array_equal(batch, scalar)

    def test_batch_matches_scalar_with_one_machine_term(self):
        # one machine: no couples, so both references take the one-machine term
        data = LowerBoundData(FlowShopInstance([[4], [2], [7], [5]]))
        prefixes = [[], [0], [1, 2], list(range(data.n_jobs))]
        mask = np.zeros((len(prefixes), data.n_jobs), dtype=bool)
        release = np.zeros((len(prefixes), data.n_machines), dtype=np.int64)
        for i, p in enumerate(prefixes):
            mask[i, p] = True
            release[i] = data.machine_release_times(p)
        batch = lower_bound_batch(data, mask, release)
        scalar = [lower_bound(data, p) for p in prefixes]
        assert batch.tolist() == scalar == [one_machine_bound(data, p) for p in prefixes]

    def test_batch_mixed_complete_and_partial(self, small_instance, small_instance_data):
        data = small_instance_data
        full = list(range(small_instance.n_jobs))
        prefixes = [full, [0], full, []]
        mask = np.zeros((4, data.n_jobs), dtype=bool)
        release = np.zeros((4, data.n_machines), dtype=np.int64)
        for i, p in enumerate(prefixes):
            mask[i, p] = True
            release[i] = data.machine_release_times(p)
        out = lower_bound_batch(data, mask, release)
        assert out[0] == out[2] == makespan(small_instance, full)
        assert out[1] >= out[3]
