"""Property-based equivalence of kernel v2 against the reference kernels.

Kernel v2 (:func:`repro.flowshop.bounds.lower_bound_batch_v2`) must be
*bit-identical* to both the scalar ``lower_bound`` and the v1
``lower_bound_batch`` on every input — that is the contract that lets the
engines switch kernels without changing the explored tree.  These tests
drive all three implementations (and both internal v2 strategies) over
randomly generated instances and pools, including every edge case the
kernel special-cases: ``m = 1`` (no couples), ``m = 2`` (a single couple),
empty prefixes (root nodes), complete schedules and empty pools.  The
incremental strategy, which bounds branch-built rows from their parent's
set, is driven over sibling launches split the ways the engines split
them, and through whole engine solves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bb.frontier as frontier
import repro.flowshop.bounds as bounds
from repro.core import GpuBBConfig, GpuBranchAndBound
from repro.core.cluster import ClusterBranchAndBound, ClusterSpec
from repro.flowshop import FlowShopInstance, taillard_instance
from repro.flowshop.bounds import (
    BATCH_KERNELS,
    LowerBoundData,
    get_batch_kernel,
    lower_bound,
    lower_bound_batch,
    lower_bound_batch_v2,
)

V2_STRATEGIES = ("gemm", "scan")


def instances(min_jobs=1, max_jobs=7, min_machines=1, max_machines=5, max_pt=99):
    return st.builds(
        lambda n, m, seed: FlowShopInstance(
            np.random.default_rng(seed).integers(1, max_pt, size=(n, m)),
            name=f"hyp_{n}x{m}_{seed}",
        ),
        st.integers(min_jobs, max_jobs),
        st.integers(min_machines, max_machines),
        st.integers(0, 10_000),
    )


def random_pool(instance, data, batch, seed, force_edges=True):
    """A pool of random partial schedules (masks + exact release times)."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((batch, instance.n_jobs), dtype=bool)
    release = np.zeros((batch, instance.n_machines), dtype=np.int64)
    prefixes = []
    for i in range(batch):
        if force_edges and i == 0:
            depth = 0  # empty prefix (root node)
        elif force_edges and i == 1 and batch > 1:
            depth = instance.n_jobs  # complete schedule
        else:
            depth = int(rng.integers(0, instance.n_jobs + 1))
        prefix = [int(j) for j in rng.permutation(instance.n_jobs)[:depth]]
        prefixes.append(prefix)
        mask[i, prefix] = True
        release[i] = data.machine_release_times(prefix)
    return mask, release, prefixes


class TestKernelV2Equivalence:
    @given(
        instances(),
        st.integers(1, 24),
        st.integers(0, 10_000),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_v2_bit_identical_to_scalar_and_v1(self, instance, batch, seed, one_mach):
        data = LowerBoundData(instance)
        mask, release, prefixes = random_pool(instance, data, batch, seed)
        scalar = np.array(
            [
                lower_bound(data, p, release=rel, include_one_machine=one_mach)
                for p, rel in zip(prefixes, release)
            ],
            dtype=np.int64,
        )
        v1 = lower_bound_batch(data, mask, release, include_one_machine=one_mach)
        assert np.array_equal(v1, scalar)
        for strategy in (None, *V2_STRATEGIES):
            v2 = lower_bound_batch_v2(
                data, mask, release, include_one_machine=one_mach, strategy=strategy
            )
            assert np.array_equal(v2, scalar), f"strategy={strategy}"

    @given(instances(min_machines=1, max_machines=1), st.integers(1, 12), st.integers(0, 999))
    @settings(max_examples=15, deadline=None)
    def test_single_machine_instances(self, instance, batch, seed):
        data = LowerBoundData(instance)
        mask, release, prefixes = random_pool(instance, data, batch, seed)
        expected = np.array([lower_bound(data, p) for p in prefixes], dtype=np.int64)
        assert np.array_equal(lower_bound_batch_v2(data, mask, release), expected)

    @given(instances(min_machines=2, max_machines=2), st.integers(1, 12), st.integers(0, 999))
    @settings(max_examples=15, deadline=None)
    def test_two_machine_instances(self, instance, batch, seed):
        data = LowerBoundData(instance)
        mask, release, prefixes = random_pool(instance, data, batch, seed)
        expected = np.array([lower_bound(data, p) for p in prefixes], dtype=np.int64)
        for strategy in V2_STRATEGIES:
            out = lower_bound_batch_v2(data, mask, release, strategy=strategy)
            assert np.array_equal(out, expected), f"strategy={strategy}"

    @given(instances(max_pt=10**6), st.integers(1, 8), st.integers(0, 999))
    @settings(max_examples=10, deadline=None)
    def test_large_processing_times_select_wider_dtypes(self, instance, batch, seed):
        """Values beyond the float32 / int16 guards still match exactly."""
        data = LowerBoundData(instance)
        mask, release, prefixes = random_pool(instance, data, batch, seed)
        expected = np.array([lower_bound(data, p) for p in prefixes], dtype=np.int64)
        for strategy in V2_STRATEGIES:
            out = lower_bound_batch_v2(data, mask, release, strategy=strategy)
            assert np.array_equal(out, expected), f"strategy={strategy}"


class TestKernelV2Edges:
    def test_empty_pool(self):
        instance = FlowShopInstance(np.full((4, 3), 7), name="edge")
        data = LowerBoundData(instance)
        out = lower_bound_batch_v2(
            data, np.zeros((0, 4), dtype=bool), np.zeros((0, 3), dtype=np.int64)
        )
        assert out.shape == (0,)
        assert out.dtype == np.int64

    def test_pool_of_only_complete_schedules(self):
        rng = np.random.default_rng(5)
        instance = FlowShopInstance(rng.integers(1, 50, size=(5, 4)), name="edge")
        data = LowerBoundData(instance)
        orders = [list(rng.permutation(5)) for _ in range(6)]
        mask = np.ones((6, 5), dtype=bool)
        release = np.stack([data.machine_release_times(o) for o in orders])
        expected = release[:, -1]
        for strategy in V2_STRATEGIES:
            out = lower_bound_batch_v2(data, mask, release, strategy=strategy)
            assert np.array_equal(out, expected)

    def test_unknown_strategy_rejected(self):
        instance = FlowShopInstance(np.full((3, 3), 2), name="edge")
        data = LowerBoundData(instance)
        with pytest.raises(ValueError):
            lower_bound_batch_v2(
                data,
                np.zeros((1, 3), dtype=bool),
                np.zeros((1, 3), dtype=np.int64),
                strategy="v3",
            )

    def test_kernel_registry(self):
        assert set(BATCH_KERNELS) == {"v1", "v2"}
        assert get_batch_kernel("v1") is lower_bound_batch
        assert get_batch_kernel("v2") is lower_bound_batch_v2
        with pytest.raises(ValueError):
            get_batch_kernel("v0")

    def test_scan_forced_on_single_job_instance(self):
        instance = FlowShopInstance(np.array([[3, 4, 5]]), name="edge-1job")
        data = LowerBoundData(instance)
        mask = np.array([[False], [True]])
        release = np.stack([np.zeros(3, dtype=np.int64), data.machine_release_times([0])])
        expected = lower_bound_batch(data, mask, release)
        for strategy in V2_STRATEGIES:
            assert np.array_equal(
                lower_bound_batch_v2(data, mask, release, strategy=strategy), expected
            )


def sibling_launch(instance, data, n_parents, seed):
    """The children of random parents, parent-major like ``branch_block``.

    Parents have random depths; the last one has depth ``n - 1``, so its
    only child is a complete schedule (a leaf row).  Returns ``(mask,
    release, jobs, prefixes, parent_of_row)``.
    """
    rng = np.random.default_rng(seed)
    n = instance.n_jobs
    depths = rng.integers(0, n, size=n_parents)
    depths[-1] = n - 1
    prefixes, jobs, parent_of = [], [], []
    for parent, depth in enumerate(depths):
        prefix = [int(j) for j in rng.permutation(n)[:depth]]
        for job in range(n):
            if job not in prefix:
                prefixes.append(prefix + [job])
                jobs.append(job)
                parent_of.append(parent)
    mask = np.zeros((len(prefixes), n), dtype=bool)
    release = np.zeros((len(prefixes), instance.n_machines), dtype=np.int64)
    for i, prefix in enumerate(prefixes):
        mask[i, prefix] = True
        release[i] = data.machine_release_times(prefix)
    return mask, release, np.array(jobs), prefixes, np.array(parent_of)


@pytest.fixture
def incremental_calls(monkeypatch):
    """Row counts of the incremental-strategy evaluations made during a test."""
    calls = []
    real = bounds._lower_bound_batch_v2_incremental

    def spy(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(bounds, "_lower_bound_batch_v2_incremental", spy)
    return calls


def split_first_parent(parent_of):
    """A row order cutting parent 0's sibling run into two separate runs."""
    first = np.flatnonzero(parent_of == 0)
    rest = np.flatnonzero(parent_of != 0)
    half = (first.size + 1) // 2
    return np.concatenate([first[:half], rest, first[half:]])


class TestIncrementalStrategy:
    @given(
        instances(min_jobs=2, max_jobs=8, min_machines=2, max_machines=6),
        st.integers(1, 5),
        st.integers(0, 10_000),
        st.booleans(),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar(self, instance, n_parents, seed, one_mach, n_slices):
        data = LowerBoundData(instance)
        mask, release, jobs, prefixes, parent_of = sibling_launch(instance, data, n_parents, seed)
        rows = split_first_parent(parent_of)
        mask, release, jobs = mask[rows], release[rows], jobs[rows]
        expected = np.array(
            [lower_bound(data, prefixes[i], include_one_machine=one_mach) for i in rows],
            dtype=np.int64,
        )
        options = {"include_one_machine": one_mach, "strategy": "incremental"}
        whole = lower_bound_batch_v2(data, mask, release, jobs=jobs, **options)
        assert np.array_equal(whole, expected)
        # contiguous slices, as the cluster engine bounds them
        for part in np.array_split(np.arange(len(rows)), n_slices):
            if part.size == 0:
                continue
            lo, hi = int(part[0]), int(part[-1]) + 1
            sliced = lower_bound_batch_v2(
                data, mask[lo:hi], release[lo:hi], jobs=jobs[lo:hi], **options
            )
            assert np.array_equal(sliced, expected[lo:hi])

    @given(instances(min_jobs=2, max_jobs=8, min_machines=2, max_pt=10**8), st.integers(0, 999))
    @settings(max_examples=10, deadline=None)
    def test_int64_tier_beyond_the_int32_guard(self, instance, seed):
        data = LowerBoundData(instance)
        mask, release, jobs, prefixes, _ = sibling_launch(instance, data, 3, seed)
        expected = np.array([lower_bound(data, p) for p in prefixes], dtype=np.int64)
        out = lower_bound_batch_v2(data, mask, release, strategy="incremental", jobs=jobs)
        assert np.array_equal(out, expected)

    @given(instances(min_jobs=2, min_machines=1, max_machines=1), st.integers(0, 999))
    @settings(max_examples=10, deadline=None)
    def test_single_machine_falls_back(self, instance, seed):
        data = LowerBoundData(instance)
        mask, release, jobs, prefixes, _ = sibling_launch(instance, data, 3, seed)
        expected = np.array([lower_bound(data, p) for p in prefixes], dtype=np.int64)
        out = lower_bound_batch_v2(data, mask, release, strategy="incremental", jobs=jobs)
        assert np.array_equal(out, expected)

    def test_unscheduled_job_rejected(self):
        instance = FlowShopInstance(np.arange(1, 13).reshape(4, 3), name="edge")
        data = LowerBoundData(instance)
        mask = np.array([[True, False, False, False]])
        release = data.machine_release_times([0])[None, :]
        with pytest.raises(ValueError, match="scheduled"):
            lower_bound_batch_v2(data, mask, release, jobs=np.array([1]))
        with pytest.raises(ValueError):
            lower_bound_batch_v2(data, mask, release, strategy="incremental")

    def test_auto_selects_incremental_from_the_crossover(self, monkeypatch, incremental_calls):
        instance = taillard_instance(6, 4, index=1)
        data = LowerBoundData(instance)
        mask, release, jobs, _, _ = sibling_launch(instance, data, 3, 0)
        lower_bound_batch_v2(data, mask, release, jobs=jobs)
        assert not incremental_calls  # 6 jobs: below the crossover
        monkeypatch.setattr(bounds, "_V2_INCREMENTAL_MIN_JOBS", 6)
        lower_bound_batch_v2(data, mask, release)
        assert not incremental_calls  # no jobs, no incremental strategy
        lower_bound_batch_v2(data, mask, release, jobs=jobs)
        assert incremental_calls


def _set_crossover(monkeypatch, n_jobs):
    monkeypatch.setattr(bounds, "_V2_INCREMENTAL_MIN_JOBS", n_jobs)
    monkeypatch.setattr(frontier, "_V2_INCREMENTAL_MIN_JOBS", n_jobs)


class TestIncrementalEngines:
    """Budgeted ta50x20 solves take the same tree down either kernel path."""

    INSTANCE = taillard_instance(50, 20, index=1)
    CONFIG = GpuBBConfig(pool_size=32, max_nodes=100)

    COUNTERS = (
        "nodes_bounded",
        "nodes_branched",
        "nodes_pruned",
        "leaves_evaluated",
        "incumbent_updates",
        "pools_evaluated",
        "max_pool_size",
    )

    def _fingerprint(self, result):
        return (
            result.best_makespan,
            tuple(result.best_order),
            [getattr(result.stats, name) for name in self.COUNTERS],
            result.simulated_device_time_s,
        )

    def _solve(self, engine):
        if engine == "gpu":
            return GpuBranchAndBound(self.INSTANCE, self.CONFIG).solve()
        return ClusterBranchAndBound(self.INSTANCE, ClusterSpec(n_nodes=3), self.CONFIG).solve()

    @pytest.mark.parametrize("engine", ["gpu", "cluster"])
    def test_gemm_and_incremental_paths_agree(self, monkeypatch, incremental_calls, engine):
        _set_crossover(monkeypatch, 10**9)
        via_gemm = self._solve(engine)
        assert not incremental_calls
        _set_crossover(monkeypatch, 2)
        via_incremental = self._solve(engine)
        assert incremental_calls
        assert self._fingerprint(via_gemm) == self._fingerprint(via_incremental)

    @pytest.mark.parametrize("engine", ["gpu", "cluster"])
    def test_split_launches_explore_the_same_tree(self, monkeypatch, incremental_calls, engine):
        monkeypatch.setattr(bounds, "_SPLIT_MIN_ELEMENTS", 1)
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 1)
        one_cpu = self._solve(engine)
        whole_launches = len(incremental_calls)
        incremental_calls.clear()
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 4)
        split = self._solve(engine)
        assert len(incremental_calls) > whole_launches  # launches ran as parts
        assert self._fingerprint(split) == self._fingerprint(one_cpu)

    def test_root_bound_builds_no_gemm_tables(self, monkeypatch):
        """The one-row root launch takes the scan, not the GEMM's tables."""
        engine = GpuBranchAndBound(self.INSTANCE, self.CONFIG)
        launches = []
        evaluate_block = engine.executor.evaluate_block

        def spy(block):
            result = evaluate_block(block)
            launches.append(result.bounds.copy())
            return result

        monkeypatch.setattr(engine.executor, "evaluate_block", spy)
        engine.solve()
        gemm_tables = (bounds._V2GemmData, frontier._FusedData)
        cache = engine.data._v2_gemm_cache.values()
        assert not [table for table in cache if isinstance(table, gemm_tables)]
        assert launches[0].tolist() == [lower_bound(engine.data, [])]


class TestOneMachineTermIsDominated:
    """The ``include_one_machine`` operator flag never changes a bound.

    At m >= 2 the couple bound dominates the one-machine bound on every
    machine; at m = 1 every path adds the one-machine bound itself (no
    couples).  This is why no engine surface exposes the flag.
    """

    @staticmethod
    def _every_path(instance, data, seed, flag):
        mask, release, prefixes = random_pool(instance, data, 24, seed)
        paths = {
            "scalar": np.array([lower_bound(data, p, include_one_machine=flag) for p in prefixes]),
            "v1": lower_bound_batch(data, mask, release, include_one_machine=flag),
        }
        for strategy in (None, *V2_STRATEGIES):
            paths[f"v2-{strategy}"] = lower_bound_batch_v2(
                data, mask, release, include_one_machine=flag, strategy=strategy
            )
        s_mask, s_release, jobs, _, _ = sibling_launch(instance, data, 3, seed)
        paths["v2-incremental"] = lower_bound_batch_v2(
            data, s_mask, s_release, jobs=jobs, include_one_machine=flag, strategy="incremental"
        )
        # the frontier operator on branch-built sibling blocks: the fused
        # path (with and without the sibling shortcut), scalar and v1
        pt = instance.processing_times
        level1 = frontier.branch_block(frontier.root_block(instance, frontier.Trail()), pt, 1)
        level2 = frontier.branch_block(level1, pt, 1 + len(level1))
        for depth, block in ((1, level1), (2, level2)):
            for kernel in ("v2", "scalar", "v1"):
                for siblings in (False, True):
                    paths[f"block{depth}-{kernel}-{siblings}"] = frontier.bound_block(
                        data, block, flag, kernel=kernel, siblings=siblings
                    ).copy()
        return paths

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_flag_never_changes_a_bound(self, m):
        for seed in range(8):
            rng = np.random.default_rng(1000 * m + seed)
            instance = FlowShopInstance(rng.integers(1, 99, size=(int(rng.integers(3, 9)), m)))
            data = LowerBoundData(instance)
            without = self._every_path(instance, data, seed, False)
            with_term = self._every_path(instance, data, seed, True)
            for path, bounds_off in without.items():
                assert np.array_equal(with_term[path], bounds_off), (seed, path)
