"""Tests for the NEH heuristic."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb import brute_force_optimum
from repro.flowshop import (
    FlowShopInstance,
    makespan,
    neh_heuristic,
    neh_order,
    taillard_instance,
)
from repro.flowshop.neh import best_insertion


def reference_partial_makespan(pt: np.ndarray, order) -> int:
    """Makespan of ``order`` by the plain machine-by-machine recurrence."""
    front = np.zeros(pt.shape[1], dtype=np.int64)
    for job in order:
        prev = 0
        row = pt[job]
        for k in range(pt.shape[1]):
            start = front[k] if front[k] > prev else prev
            prev = start + row[k]
            front[k] = prev
    return int(front[-1])


def reference_best_insertion(pt: np.ndarray, order: list[int], job: int):
    """Insertion by evaluating every candidate order from scratch (no acceleration)."""
    best_order: list[int] | None = None
    best_value: int | None = None
    for pos in range(len(order) + 1):
        candidate = order[:pos] + [job] + order[pos:]
        value = reference_partial_makespan(pt, candidate)
        if best_value is None or value < best_value:
            best_value = value
            best_order = candidate
    assert best_order is not None and best_value is not None
    return best_order, best_value


def reference_neh_order(instance: FlowShopInstance) -> list[int]:
    pt = instance.processing_times
    totals = pt.sum(axis=1)
    priority = sorted(range(instance.n_jobs), key=lambda j: (-int(totals[j]), j))
    order: list[int] = []
    for job in priority:
        order, _ = reference_best_insertion(pt, order, job)
    return order


class TestNeh:
    def test_order_is_permutation(self, small_instance):
        order = neh_order(small_instance)
        assert sorted(order) == list(range(small_instance.n_jobs))

    def test_schedule_is_feasible(self, small_instance):
        sched = neh_heuristic(small_instance)
        assert sched.is_feasible()
        assert sched.makespan == makespan(small_instance, sched.order)

    def test_never_below_optimum(self, small_instance):
        _, optimum = brute_force_optimum(small_instance)
        assert neh_heuristic(small_instance).makespan >= optimum

    def test_close_to_optimum_on_small_instances(self):
        """NEH is usually within a few percent; on 6-job instances it should
        be within 15% of the optimum (a loose but meaningful sanity band)."""
        gaps = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            inst = FlowShopInstance(rng.integers(1, 60, size=(6, 4)))
            _, optimum = brute_force_optimum(inst)
            gaps.append(neh_heuristic(inst).makespan / optimum)
        assert max(gaps) <= 1.15

    def test_single_job(self):
        inst = FlowShopInstance([[5, 6, 7]])
        assert neh_order(inst) == [0]
        assert neh_heuristic(inst).makespan == 18

    def test_identical_jobs_any_order_is_fine(self):
        inst = FlowShopInstance([[3, 3], [3, 3], [3, 3]])
        sched = neh_heuristic(inst)
        assert sched.makespan == makespan(inst, [0, 1, 2])

    @given(st.integers(0, 1000), st.integers(2, 7), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_neh_is_a_valid_upper_bound(self, seed, n, m):
        rng = np.random.default_rng(seed)
        inst = FlowShopInstance(rng.integers(1, 99, size=(n, m)))
        sched = neh_heuristic(inst)
        # upper bound property: some permutation achieves it, and it is at
        # least the trivial lower bound
        assert sched.makespan >= inst.trivial_lower_bound()
        assert sched.makespan <= inst.trivial_upper_bound()


class TestBestInsertion:
    def test_insertion_positions_explored(self):
        inst = FlowShopInstance([[2, 1], [1, 2], [3, 3]])
        pt = inst.processing_times
        order, value = best_insertion(pt, [0, 1], 2)
        assert len(order) == 3
        assert set(order) == {0, 1, 2}
        # the returned value matches the actual makespan of the returned order
        assert value == makespan(inst, order)

    def test_insertion_is_minimal(self):
        inst = FlowShopInstance([[2, 9], [9, 2], [5, 5]])
        pt = inst.processing_times
        order, value = best_insertion(pt, [0, 1], 2)
        candidates = [
            makespan(inst, [2, 0, 1]),
            makespan(inst, [0, 2, 1]),
            makespan(inst, [0, 1, 2]),
        ]
        assert value == min(candidates)


class TestTaillardAcceleration:
    """The accelerated insertion reproduces the from-scratch loop exactly."""

    @pytest.mark.parametrize("shape", [(20, 5), (20, 20), (50, 10)])
    @pytest.mark.parametrize("index", [1, 2])
    def test_order_equals_reference_on_taillard(self, shape, index):
        instance = taillard_instance(*shape, index=index)
        assert neh_order(instance) == reference_neh_order(instance)

    @given(
        st.integers(0, 10_000),
        st.integers(1, 12),
        st.integers(1, 6),
        st.sampled_from([2, 4, 99]),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_equals_reference(self, seed, n, m, max_pt):
        """Small time ranges make many makespan ties between positions."""
        rng = np.random.default_rng(seed)
        instance = FlowShopInstance(rng.integers(1, max_pt, size=(n, m)))
        assert neh_order(instance) == reference_neh_order(instance)

    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_identical_jobs_tie_break(self, seed, n, m):
        rng = np.random.default_rng(seed)
        row = rng.integers(1, 30, size=m)
        distinct = rng.integers(1, 30, size=(2, m))
        instance = FlowShopInstance(np.vstack([np.tile(row, (n, 1)), distinct]))
        assert neh_order(instance) == reference_neh_order(instance)

    @given(st.integers(0, 10_000), st.integers(0, 10), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_best_insertion_equals_reference(self, seed, length, m):
        rng = np.random.default_rng(seed)
        pt = rng.integers(1, 20, size=(length + 1, m))
        order = [int(j) for j in rng.permutation(length)]
        assert best_insertion(pt, order, length) == reference_best_insertion(
            pt, order, length
        )


#: NEH on the paper classes the benchmark solves: ``(n, m, index)`` ->
#: (makespan, SHA-256 of the comma-joined order), recorded with the
#: per-machine heads/tails loop that preceded the stacked scan.  The
#: from-scratch reference above is too slow past 50x10 to check these.
NEH_GOLDENS = {
    (100, 20, 1): (6635, "c8cb4d8bc09d00ab9f791f1b2a0d1d07f36d62757bd6475cab6723badb60c622"),
    (100, 20, 2): (6701, "d671eb98bb73218deabc275bc03bff0a04e75b9838c73f95fed2534f04c6ed77"),
    (100, 20, 4): (6575, "5c7e495888bcb719243b88631eca169bc4eb01793335fca08a5c348007a11c8e"),
    (100, 20, 7): (6560, "5c15d64c5608675f7a88896d5620d8f68c348eae59d42c16a76b01a1a1b2a7b0"),
    (100, 20, 8): (6677, "69537b41869e69d6975897013f7ef826f0621974df948240c4eda2c4eb952598"),
    (100, 20, 10): (6549, "e82c01bcab175f88bf573832e7926781237b75314e3d95171306e9a62cacea92"),
    (200, 20, 1): (11820, "328653b81f20d80749b21cad5bbc80561c98d0029c48b3867046214d7301d8bf"),
}


@pytest.mark.parametrize("case", sorted(NEH_GOLDENS), ids=lambda c: "ta%dx%d-%d" % c)
def test_neh_golden_on_paper_classes(case):
    n, m, index = case
    schedule = neh_heuristic(taillard_instance(n, m, index=index))
    digest = hashlib.sha256(",".join(map(str, schedule.order)).encode()).hexdigest()
    assert (schedule.makespan, digest) == NEH_GOLDENS[case]
