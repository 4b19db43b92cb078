"""Property-based equivalence of kernel v2 against the reference kernels.

Kernel v2 (:func:`repro.flowshop.bounds.lower_bound_batch_v2`) must be
*bit-identical* to both the scalar ``lower_bound`` and the v1
``lower_bound_batch`` on every input — that is the contract that lets the
engines switch kernels without changing the explored tree.  These tests
drive all three implementations (and both v2 bodies) over randomly
generated instances and pools, including every edge case the kernel
special-cases: ``m = 1`` (no couples), ``m = 2`` (a single couple), empty
prefixes (root nodes, bounded in closed form), complete schedules and
empty pools.  The GEMM body is driven across its row chunks and job
blocks, and the incremental body, which bounds rows from their parent's
set, over sibling launches split the ways the engines split them, with
any scheduled job standing in for a missing ``jobs`` column, and through
whole engine solves.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.bb.frontier as frontier
import repro.flowshop.bounds as bounds
from repro.bb.sequential import SequentialBranchAndBound
from repro.core import GpuBBConfig, GpuBranchAndBound
from repro.core.cluster import ClusterBranchAndBound, ClusterSpec
from repro.flowshop import FlowShopInstance, random_instance, taillard_instance
from repro.flowshop.bounds import (
    BATCH_KERNELS,
    LowerBoundData,
    get_batch_kernel,
    lower_bound,
    lower_bound_batch,
    lower_bound_batch_v2,
    one_machine_bound,
)

V2_STRATEGIES = ("gemm", "incremental")


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
    )
    @settings(max_examples=40, deadline=None)
    def test_v2_bit_identical_to_scalar_and_v1(self, instance, batch, seed):
        data = LowerBoundData(instance)
        mask, release, prefixes = random_pool(instance, data, batch, seed)
        scalar = np.array(
            [
                lower_bound(data, p, release=rel)
                for p, rel in zip(prefixes, release)
            ],
            dtype=np.int64,
        )
        v1 = lower_bound_batch(data, mask, release)
        assert np.array_equal(v1, scalar)
        for strategy in (None, *V2_STRATEGIES):
            v2 = lower_bound_batch_v2(data, mask, release, strategy=strategy)
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
        for strategy in ("v3", "scan"):
            with pytest.raises(ValueError):
                lower_bound_batch_v2(
                    data,
                    np.zeros((1, 3), dtype=bool),
                    np.zeros((1, 3), dtype=np.int64),
                    strategy=strategy,
                )

    def test_kernel_registry(self):
        """Engines select only v2; v1 is a reference called directly."""
        assert set(BATCH_KERNELS) == {"v2"}
        assert get_batch_kernel("v2") is lower_bound_batch_v2
        for name in ("v0", "v1"):
            with pytest.raises(ValueError):
                get_batch_kernel(name)

    def test_each_strategy_forced_on_single_job_instance(self):
        instance = FlowShopInstance(np.array([[3, 4, 5]]), name="edge-1job")
        data = LowerBoundData(instance)
        mask = np.array([[False], [True]])
        release = np.stack([np.zeros(3, dtype=np.int64), data.machine_release_times([0])])
        expected = lower_bound_batch(data, mask, release)
        for strategy in V2_STRATEGIES:
            assert np.array_equal(
                lower_bound_batch_v2(data, mask, release, strategy=strategy), expected
            )


def _non_decreasing_release(data, rng, rows):
    """``rows`` random release vectors, non-decreasing along the machines."""
    steps = rng.integers(0, 3 * int(data.ptm.max()) + 1, size=(rows, data.n_machines))
    steps[rng.random(rows) < 0.25] = 0  # some all-zero rows, as at the root
    return np.cumsum(steps, axis=1)


class TestRootClosedForm:
    """Rows with nothing scheduled: ``max_c(max(r_l, r_i + K_c) + B_c + QM_l)``."""

    @given(
        instances(min_jobs=3, max_jobs=9, min_machines=2, max_machines=5),
        st.integers(1, 6),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_scalar_bound(self, instance, rows, seed):
        data = LowerBoundData(instance)
        release = _non_decreasing_release(data, np.random.default_rng(seed), rows)
        mask = np.zeros((rows, instance.n_jobs), dtype=bool)
        expected = [lower_bound(data, [], release=rel) for rel in release]
        for strategy in (None, *V2_STRATEGIES):
            got = lower_bound_batch_v2(data, mask, release, strategy=strategy)
            assert got.tolist() == expected, strategy
        assert bounds._root_bounds(data, release).tolist() == expected

    def test_root_launch_builds_no_body_tables(self):
        data = LowerBoundData(taillard_instance(100, 20, index=1))
        got = lower_bound_batch_v2(data, np.zeros((1, 100), dtype=bool), np.zeros((1, 20)))
        assert got.tolist() == [lower_bound(data, [])]
        assert set(data._v2_gemm_cache) == {"big", "root"}


def sibling_launch(instance, data, n_parents, seed, deep=False):
    """The children of random parents, parent-major like ``branch_block``.

    Parents have random depths; the last one has depth ``n - 1``, so its
    only child is a complete schedule (a leaf row).  With ``deep``, half
    the parents sit at depth ``n - 2`` (two children with one job left
    each) and none deeper, so every row is active.  Returns ``(mask,
    release, jobs, prefixes, parent_of_row)``.
    """
    rng = np.random.default_rng(seed)
    n = instance.n_jobs
    depths = rng.integers(0, n, size=n_parents)
    if deep:
        depths = np.where(rng.random(n_parents) < 0.5, n - 2, np.minimum(depths, n - 2))
    else:
        depths[-1] = n - 1
    prefixes, jobs, parent_of = [], [], []
    for parent, depth in enumerate(depths):
        prefix = [int(j) for j in rng.permutation(n)[:depth]]
        for job in range(n):
            if job not in prefix:
                prefixes.append(prefix + [job])
                jobs.append(job)
                parent_of.append(parent)
    mask, release = prefix_rows(data, prefixes)
    return mask, release, np.array(jobs), prefixes, np.array(parent_of)


def prefix_rows(data, prefixes):
    """``(mask, release)`` of the partial schedules ``prefixes``, one row each."""
    mask = np.zeros((len(prefixes), data.n_jobs), dtype=bool)
    release = np.zeros((len(prefixes), data.n_machines), dtype=np.int64)
    for i, prefix in enumerate(prefixes):
        mask[i, prefix] = True
        release[i] = data.machine_release_times(prefix)
    return mask, release


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
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar(self, instance, n_parents, seed, n_slices):
        data = LowerBoundData(instance)
        mask, release, jobs, prefixes, parent_of = sibling_launch(instance, data, n_parents, seed)
        rows = split_first_parent(parent_of)
        mask, release, jobs = mask[rows], release[rows], jobs[rows]
        expected = np.array([lower_bound(data, prefixes[i]) for i in rows], dtype=np.int64)
        whole = lower_bound_batch_v2(data, mask, release, jobs=jobs, strategy="incremental")
        assert np.array_equal(whole, expected)
        # contiguous slices, as the cluster engine bounds them
        for part in np.array_split(np.arange(len(rows)), n_slices):
            if part.size == 0:
                continue
            lo, hi = int(part[0]), int(part[-1]) + 1
            sliced = lower_bound_batch_v2(
                data, mask[lo:hi], release[lo:hi], jobs=jobs[lo:hi], strategy="incremental"
            )
            assert np.array_equal(sliced, expected[lo:hi])

    @given(
        instances(min_jobs=3, max_jobs=9, min_machines=2, max_machines=5),
        st.integers(1, 5),
        st.integers(0, 10_000),
        st.sampled_from(["first", "last", "random"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_scheduled_job_as_jobs_gives_the_scalar_bound(
        self, instance, n_parents, seed, pick
    ):
        """A row's parent set may be its unscheduled set plus ANY scheduled job."""
        data = LowerBoundData(instance)
        rng = np.random.default_rng(seed)
        mask, release, _, prefixes, parent_of = sibling_launch(instance, data, n_parents, seed)
        active = np.flatnonzero(~mask.all(axis=1))
        mask, release = mask[active], release[active]
        expected = [lower_bound(data, prefixes[row]) for row in active]
        scheduled = [np.flatnonzero(row) for row in mask]
        chosen = {
            "first": [jobs[0] for jobs in scheduled],
            "last": [jobs[-1] for jobs in scheduled],
            "random": [rng.choice(jobs) for jobs in scheduled],
        }[pick]
        got = lower_bound_batch_v2(
            data, mask, release, strategy="incremental", jobs=np.array(chosen, dtype=np.int64)
        )
        assert got.tolist() == expected
        # without ``jobs`` the body takes each row's first scheduled job
        jobless = lower_bound_batch_v2(data, mask, release, strategy="incremental")
        assert jobless.tolist() == expected

    @given(instances(min_jobs=2, max_jobs=8, min_machines=2, max_pt=10**8), st.integers(0, 999))
    @settings(max_examples=10, deadline=None)
    def test_int64_tier_beyond_the_int32_guard(self, instance, seed):
        # past the int32 limit of its total an instance is refused (see
        # tests/test_engine_assembly.py); within it the v2 value guard of
        # these processing times still picks the int64 tier from 3 jobs
        assume(int(instance.processing_times.sum()) <= 2**31 - 1)
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
            lower_bound_batch_v2(data, mask, release, strategy="incremental", jobs=np.array([1]))
        for jobs in (np.array([-1]), np.array([4]), np.array([0, 0]), np.array([0.0])):
            with pytest.raises(ValueError):
                lower_bound_batch_v2(data, mask, release, strategy="incremental", jobs=jobs)
        # the GEMM body reads no ``jobs``, so its launches skip the check
        expected = lower_bound_batch(data, mask, release).tolist()
        for jobs in (np.array([1]), np.array([4]), np.array([0, 0])):
            got = lower_bound_batch_v2(data, mask, release, strategy="gemm", jobs=jobs)
            assert got.tolist() == expected

    def test_auto_selects_incremental_from_the_crossover(self, monkeypatch, incremental_calls):
        instance = taillard_instance(6, 4, index=1)
        data = LowerBoundData(instance)
        mask, release, jobs, _, _ = sibling_launch(instance, data, 3, 0)
        expected = lower_bound_batch(data, mask, release)
        assert lower_bound_batch_v2(data, mask, release, jobs=jobs).tolist() == expected.tolist()
        assert not incremental_calls  # 6 jobs: below the crossover
        monkeypatch.setattr(bounds, "_V2_INCREMENTAL_MIN_JOBS", 6)
        assert lower_bound_batch_v2(data, mask, release, jobs=jobs).tolist() == expected.tolist()
        assert len(incremental_calls) == 1
        # from the crossover a launch without ``jobs`` is incremental too
        assert lower_bound_batch_v2(data, mask, release).tolist() == expected.tolist()
        assert len(incremental_calls) == 2


class TestPackedRows:
    """Kernel v2 on bit-packed rows, around the byte boundaries of the layout.

    Job counts sit on both sides of 8, 16, 24 and 32 (a padded last byte,
    an exact one; the GEMM's set keys are 1 to 5 bytes wide) and of the
    40-job strategy crossover.  The GEMM's element budget and the
    incremental tile are patched to ``grain`` rows or parents, so the
    launches cross row-chunk, set-step-chunk, parent-set-chunk and tile
    boundaries, and the set step's threshold is drawn as 1 (every GEMM
    launch takes it) or left at its default.  The set table's cap is drawn
    as 0 (no table) or left at its default, so the small instances cover
    the GEMM body too.  One more parent permutes the first parent's
    prefix, so its children repeat the first parent's sets with other
    release times.
    """

    @given(
        st.sampled_from([7, 8, 9, 15, 16, 17, 24, 25, 32, 33, 39, 40, 41]),
        st.integers(2, 5),
        st.integers(1, 4),
        st.integers(0, 10_000),
        st.booleans(),
        st.sampled_from([None, *V2_STRATEGIES]),
        st.integers(1, 3),
        st.sampled_from([1, bounds._V2_SET_STEP_MIN_ROWS]),
        st.sampled_from([0, bounds._V2_TABLE_ELEMENTS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_to_the_v1_reference(
        self, n, m, n_parents, seed, with_jobs, strategy, grain, set_step_min_rows, table_elements
    ):
        rng = np.random.default_rng(seed)
        instance = FlowShopInstance(rng.integers(1, 99, size=(n, m)))
        data = LowerBoundData(instance)
        mask, release, jobs, prefixes, _ = sibling_launch(instance, data, n_parents, seed)
        twin = [int(j) for j in rng.permutation(prefixes[0][:-1])]  # parent 0, reordered
        twin_children = [twin + [job] for job in range(n) if job not in twin]
        twin_mask, twin_release = prefix_rows(data, twin_children)
        mask = np.concatenate([mask, twin_mask])
        release = np.concatenate([release, twin_release])
        jobs = np.concatenate([jobs, [prefix[-1] for prefix in twin_children]])
        if not with_jobs:
            # root rows, a complete row and random depths join the siblings
            extra_mask, extra_release, _ = random_pool(instance, data, 4, seed)
            mask = np.concatenate([extra_mask, mask])
            release = np.concatenate([extra_release, release])
            jobs = None
        bits = bounds.pack_mask(mask)
        assert bits.shape == (len(mask), (n + 7) // 8)
        assert np.array_equal(bounds.unpack_mask(bits, n), mask)
        expected = lower_bound_batch(data, mask, release).tolist()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_V2_GEMM_ELEMENTS", grain * n * m)
            patch.setattr(bounds, "_V2_INCREMENTAL_TILE", grain * n * data.n_couples)
            patch.setattr(bounds, "_V2_SET_STEP_MIN_ROWS", set_step_min_rows)
            patch.setattr(bounds, "_V2_TABLE_ELEMENTS", table_elements)
            got = lower_bound_batch_v2(
                data, bits, release.astype(np.int32), strategy=strategy, jobs=jobs
            )
            assert got.tolist() == expected
            # a bool mask is packed at the entry: the same bounds
            got = lower_bound_batch_v2(data, mask, release, strategy=strategy, jobs=jobs)
            assert got.tolist() == expected

    def test_mask_shapes_are_checked(self):
        data = LowerBoundData(taillard_instance(9, 3, index=1))
        release = np.zeros((2, 3), dtype=np.int64)
        for mask in (np.zeros((2, 8), dtype=bool), np.zeros((2, 3), dtype=np.uint8)):
            with pytest.raises(ValueError, match="scheduled_mask"):
                lower_bound_batch_v2(data, mask, release)
        # packed rows pass through; a 0/1 integer mask of width n converts
        packed = bounds.pack_mask(np.eye(2, 9, dtype=bool))
        assert bounds.as_mask_bits(packed, 9) is packed
        as_ints = np.eye(2, 9, dtype=np.uint8)
        assert np.array_equal(bounds.as_mask_bits(as_ints, 9), packed)


class TestIncrementalGroupStarts:
    """Parent-set runs found one chunk of rows at a time, on a 6-job launch."""

    PREFIXES = (
        [0, 1],  # five siblings of parent [0] and a duplicate of the last
        [0, 2],
        [0, 3],
        [0, 4],
        [0, 5],
        [0, 5],
        [1, 2],  # equal masks, last jobs swapped: parents [1] and [2]
        [2, 1],
        [2, 3],
        [4, 3, 5],  # two siblings of parent [4, 3]
        [4, 3, 1],
    )
    STARTS = [True, False, False, False, False, False, True, True, False, True, False]

    def _launch(self):
        data = LowerBoundData(taillard_instance(6, 4, index=1))
        mask = np.zeros((len(self.PREFIXES), data.n_jobs), dtype=bool)
        for row, prefix in enumerate(self.PREFIXES):
            mask[row, prefix] = True
        release = np.stack([data.machine_release_times(p) for p in self.PREFIXES])
        jobs = np.array([prefix[-1] for prefix in self.PREFIXES])
        return data, mask, release.astype(np.int32), jobs

    def test_every_chunk_size_finds_the_same_starts(self):
        _, mask, _, jobs = self._launch()
        # a mask-only comparison would merge the swapped pair into one run
        assert np.array_equal(mask[6], mask[7])
        bits = bounds.pack_mask(mask)
        for chunk in range(1, len(mask) + 1):
            starts = bounds._parent_set_starts(bits, jobs, chunk)
            assert starts.tolist() == self.STARTS, f"chunk={chunk}"

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 7])
    def test_bounds_exact_at_every_chunk_boundary(self, monkeypatch, chunk):
        data, mask, release, jobs = self._launch()
        # one chunk of rows per ``chunk`` rows, and one group per tile
        monkeypatch.setattr(bounds, "_V2_INCREMENTAL_TILE", chunk * data.n_jobs)
        expected = [lower_bound(data, p) for p in self.PREFIXES]
        got = lower_bound_batch_v2(data, mask, release, strategy="incremental", jobs=jobs)
        assert got.tolist() == expected


class TestIncrementalTiles:
    """Tiles of one to three parents, with runs, slices and split parts across them.

    The per-tile tables hold ``PW_i = max(P_i, W_i)`` per machine; m = 2
    leaves one couple, so the last (and only) first-machine run decides
    the bound.  Launches this small sit below the split grain (one tile
    per part), so the cuts are forced: ``parts`` even parts whatever the
    size.
    """

    @given(
        instances(min_jobs=3, max_jobs=8, min_machines=2, max_machines=8),
        st.integers(1, 3),
        st.integers(2, 6),
        st.integers(0, 10_000),
        st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_scalar(self, instance, per_tile, n_parents, seed, parts):
        data = LowerBoundData(instance)
        mask, release, jobs, prefixes, parent_of = sibling_launch(
            instance, data, n_parents, seed, deep=True
        )
        rows = split_first_parent(parent_of)  # parent 0's set in two runs
        mask, release, jobs = mask[rows], release[rows].astype(np.int32), jobs[rows]
        expected = [lower_bound(data, prefixes[i]) for i in rows]
        options = {"strategy": "incremental"}
        cut = int(np.random.default_rng(seed).integers(1, len(rows)))

        def even_cuts(length, n_couples):
            if length < parts or parts < 2:
                return None
            return [length * part // parts for part in range(parts)] + [length]

        with pytest.MonkeyPatch.context() as patch:
            tile = per_tile * data.n_jobs * data.n_couples
            patch.setattr(bounds, "_V2_INCREMENTAL_TILE", tile)
            patch.setattr(bounds, "_split_cuts", even_cuts)
            whole = lower_bound_batch_v2(data, mask, release, jobs=jobs, **options)
            assert whole.tolist() == expected
            for lo, hi in ((0, cut), (cut, len(rows))):  # as the cluster engine slices
                part = lower_bound_batch_v2(
                    data, mask[lo:hi], release[lo:hi], jobs=jobs[lo:hi], **options
                )
                assert part.tolist() == expected[lo:hi]


class TestGemmChunks:
    """The GEMM body across row-chunk and job-block boundaries.

    The element budget is patched small, so a launch runs as several row
    chunks and each chunk's candidates as several products of one to
    ``n`` jobs: ``chunk = budget // max(C, n * m)`` rows and ``budget //
    (C * chunk)`` jobs per product.  With the set step's threshold drawn
    as 1, every launch takes the set step, whose chunks of ``budget // m``
    rows the patch cuts as well.  These instances are within the set
    table's cap, so the cap is drawn as 0 (the launches run the GEMM) or
    left at its default (the table's build runs it, in the patched
    chunks, and its launches gather ``budget // m`` rows at a time).
    """

    @given(
        instances(min_jobs=3, max_jobs=9, min_machines=2, max_machines=5),
        st.integers(1, 6),
        st.integers(1, 600),
        st.integers(0, 10_000),
        st.booleans(),
        st.sampled_from([1, bounds._V2_SET_STEP_MIN_ROWS]),
        st.sampled_from([0, bounds._V2_TABLE_ELEMENTS]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_scalar(
        self, instance, n_parents, budget, seed, with_jobs, set_step_min_rows, table_elements
    ):
        data = LowerBoundData(instance)
        mask, release, jobs, prefixes, parent_of = sibling_launch(instance, data, n_parents, seed)
        rows = split_first_parent(parent_of)  # parent 0's set in two runs
        mask, release, jobs = mask[rows], release[rows].astype(np.int32), jobs[rows]
        expected = [lower_bound(data, prefixes[i]) for i in rows]
        launch_jobs = jobs if with_jobs else None
        cut = int(np.random.default_rng(seed).integers(1, len(rows))) if len(rows) > 1 else 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_V2_GEMM_ELEMENTS", budget)
            patch.setattr(bounds, "_V2_SET_STEP_MIN_ROWS", set_step_min_rows)
            patch.setattr(bounds, "_V2_TABLE_ELEMENTS", table_elements)
            whole = lower_bound_batch_v2(data, mask, release, strategy="gemm", jobs=launch_jobs)
            assert whole.tolist() == expected
            for lo, hi in ((0, cut), (cut, len(rows))):  # as the cluster engine slices
                part = lower_bound_batch_v2(
                    data,
                    mask[lo:hi],
                    release[lo:hi],
                    strategy="gemm",
                    jobs=None if launch_jobs is None else launch_jobs[lo:hi],
                )
                assert part.tolist() == expected[lo:hi]

    def test_blocks_cover_every_job_once(self, monkeypatch):
        """One product per chunk when it fits, one job per product at the least."""
        data = LowerBoundData(taillard_instance(20, 20, index=1))
        n, n_couples = data.n_jobs, data.n_couples
        mask, release, _ = random_pool(data.instance, data, 40, 3)
        active = int(np.count_nonzero(mask.any(axis=1) & ~mask.all(axis=1)))
        expected = lower_bound_batch(data, mask, release)
        stacked = bounds._v2_gemm_data(data, np.float32).stacked
        products = []
        real_dot = np.dot

        def counting_dot(a, b, out=None):
            products.append((np.shares_memory(a, stacked), a.shape[0], b.shape[1]))
            return real_dot(a, b, out=out)

        monkeypatch.setattr(bounds.np, "dot", counting_dot)
        for budget in (1 << 17, 3 * n * n_couples, n_couples, 1):
            products.clear()
            monkeypatch.setattr(bounds, "_V2_GEMM_ELEMENTS", budget)
            got = lower_bound_batch_v2(data, mask, release, strategy="gemm")
            assert got.tolist() == expected.tolist()
            candidates = [(rows, width) for is_candidate, rows, width in products if is_candidate]
            chunks = [width for is_candidate, _, width in products if not is_candidate]  # B_N
            assert sum(chunks) == active, budget
            assert sum(rows for rows, _ in candidates) == len(chunks) * n * n_couples, budget
            assert all(rows * width <= max(budget, n_couples) for rows, width in candidates)
            if budget == 1 << 17:
                assert len(candidates) == len(chunks) == 1  # the whole launch in one product
            if budget <= n_couples:
                assert {rows for rows, _ in candidates} == {n_couples}  # a job per product


class TestSetStep:
    """GEMM launches from ``_V2_SET_STEP_MIN_ROWS`` rows bound each distinct set once.

    The products, ``B_N`` and ``QM`` run on the distinct unscheduled sets of
    a row chunk, and every row is then bounded from its set's per-machine
    terms; complete rows are resolved among the distinct sets.
    """

    def test_one_product_column_per_distinct_set(self, monkeypatch):
        data = LowerBoundData(taillard_instance(13, 6, index=1))
        n = data.n_jobs
        rng = np.random.default_rng(7)
        prefixes, seen = [], set()
        while len(prefixes) < 40:  # the distinct active sets
            prefix = [int(j) for j in rng.permutation(n)[: rng.integers(1, n)]]
            if frozenset(prefix) not in seen:
                seen.add(frozenset(prefix))
                prefixes.append(prefix)
        rows = list(prefixes)
        while len(rows) < bounds._V2_SET_STEP_MIN_ROWS:  # each set again, in another order
            rows.append([int(j) for j in rng.permutation(prefixes[rng.integers(len(prefixes))])])
        rows += [[int(j) for j in rng.permutation(n)] for _ in range(5)]  # complete rows
        rows = [rows[i] for i in rng.permutation(len(rows))]
        mask, release = prefix_rows(data, rows)
        jobs = np.array([prefix[-1] for prefix in rows])
        expected = lower_bound_batch(data, mask, release)
        bf = bounds._v2_gemm_data(data, np.float32).bf
        columns = []
        real_dot = np.dot

        def counting_dot(a, b, out=None):
            if np.shares_memory(a, bf):
                columns.append(b.shape[1])
            return real_dot(a, b, out=out)

        monkeypatch.setattr(bounds.np, "dot", counting_dot)
        monkeypatch.setattr(bounds, "_V2_TABLE_ELEMENTS", 0)  # 13x6: the GEMM, not the table
        bits = bounds.pack_mask(mask)
        got = lower_bound_batch_v2(data, bits, release.astype(np.int32), jobs=jobs)
        assert sum(columns) == len(prefixes)
        assert got.tolist() == expected.tolist()

    def test_launch_temporaries_stay_bounded(self, monkeypatch):
        """A 65,536-row 13x6 launch of random sets traces below 3 MB, with or without the table.

        The set step holds one row chunk's keys, sort buffers and gathered
        terms at a time; deduplicating the whole launch at once traced
        4.5 MB, growing with the rows, and bounding every row 1.8 MB.  The
        set table's launch holds one chunk's gathered terms and sums.
        """
        data = LowerBoundData(taillard_instance(13, 6, index=1))
        n, rows = data.n_jobs, 65_536
        rng = np.random.default_rng(3)
        depth = rng.integers(1, n, size=rows)
        mask = rng.random((rows, n)).argsort(axis=1) < depth[:, None]  # ~8,000 distinct sets
        release = rng.integers(0, 2_000, size=(rows, data.n_machines)).astype(np.int32)
        bits = bounds.pack_mask(mask)
        head = slice(0, 512)
        expected = lower_bound_batch(data, mask[head], release[head])
        for table_elements in (0, bounds._V2_TABLE_ELEMENTS):  # the set step, then the table
            monkeypatch.setattr(bounds, "_V2_TABLE_ELEMENTS", table_elements)
            lower_bound_batch_v2(data, bits[:1024], release[:1024])  # build the per-instance tables
            tracemalloc.start()
            try:
                got = lower_bound_batch_v2(data, bits, release)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, f"traced peak {peak / 2**20:.2f} MB"
            assert np.array_equal(got[head], expected)
        assert "table" in data._v2_gemm_cache


def every_set(data, rng):
    """``(mask, release, prefixes)`` of all ``2**n`` sets: row ``key`` schedules key's bits.

    Each set's jobs are scheduled in a random order, so the release
    vectors are real completion times.
    """
    n = data.n_jobs
    keys = np.arange(1 << n)
    mask = ((keys[:, None] >> np.arange(n)) & 1).astype(bool)
    prefixes = [[int(j) for j in rng.permutation(np.flatnonzero(row))] for row in mask]
    release = np.stack([data.machine_release_times(prefix) for prefix in prefixes])
    return mask, release, prefixes


class TestSetTable:
    """Instances within ``_V2_TABLE_ELEMENTS`` bound GEMM launches from a per-instance table.

    The table holds every unscheduled set's per-machine terms, built by the
    GEMM on the instance's first launch; a row's bound is ``max_k(r_k +
    W_k)`` from its set's column, the complete set's giving its makespan.
    """

    @pytest.mark.parametrize("n, m", [(5, 3), (8, 4), (9, 2), (11, 5)])
    def test_every_set_equals_the_scalar_bound(self, n, m):
        """1- and 2-byte rows, root and complete sets, int32 and int64 ``release``."""
        rng = np.random.default_rng(n * m)
        data = LowerBoundData(FlowShopInstance(rng.integers(1, 99, size=(n, m))))
        mask, release, prefixes = every_set(data, rng)
        expected = [lower_bound(data, p, release=rel) for p, rel in zip(prefixes, release)]
        bits = bounds.pack_mask(mask)
        assert bits.shape[1] == (1 if n <= 8 else 2)
        for dtype in (np.int32, np.int64):
            for strategy in (None, "gemm"):
                got = lower_bound_batch_v2(data, bits, release.astype(dtype), strategy=strategy)
                assert got.tolist() == expected, (dtype, strategy)
        assert data._v2_gemm_cache["table"].shape == (m, 1 << n)

    @pytest.mark.parametrize("total, dtype", [(2**15 - 1, np.int16), (2**15, np.int32)])
    def test_the_total_picks_the_table_dtype(self, monkeypatch, total, dtype):
        """Every ``W_k`` is at most the total, so int16 holds a total below ``2**15``.

        Job 0 holds all but 18 of the total, so the root's ``W_0`` comes
        within 18 of it; every launch reads the table, none runs the GEMM.
        """
        n, m = 7, 3
        pt = np.ones((n, m), dtype=np.int64)  # 18 for jobs 1-6
        pt[0] = [10_000, 10_000, total - 18 - 20_000]
        data = LowerBoundData(FlowShopInstance(pt))
        assert int(data.ptm.sum()) == total
        mask, release, prefixes = every_set(data, np.random.default_rng(total))
        expected = [lower_bound(data, p, release=rel) for p, rel in zip(prefixes, release)]
        monkeypatch.setattr(bounds, "_lower_bound_batch_v2_matmul", None)  # no GEMM launch
        got = lower_bound_batch_v2(data, mask, release.astype(np.int32))
        assert got.tolist() == expected
        table = data._v2_gemm_cache["table"]
        assert table.dtype == dtype
        assert total - 18 <= int(table[:, :-1].max()) <= total

    @pytest.mark.parametrize("n, bit", [(7, 7), (13, 13), (13, 15)])
    def test_a_padding_bit_raises(self, n, bit):
        """A key past the table is refused, never read as another set's column."""
        data = LowerBoundData(taillard_instance(n, 4, index=1))
        bits = bounds.pack_mask(np.zeros((3, n), dtype=bool))
        bits[1, bit // 8] |= 1 << (bit % 8)
        release = np.zeros((3, 4), dtype=np.int32)
        with pytest.raises(ValueError, match="past job"):
            lower_bound_batch_v2(data, bits, release)
        bits[1] = 0
        assert lower_bound_batch_v2(data, bits, release).tolist() == [lower_bound(data, [])] * 3

    def test_release_past_the_sentinel_takes_the_gemm(self):
        """A ``release`` past the int16 table's ``-inf`` is bounded by the GEMM, as exactly.

        A complete row's bound is ``r_{m-1}`` whatever its other release
        times; with ``r_0`` more than ``2**15`` above it the table's
        ``-inf`` would not hide ``r_0``, and near ``2**31`` an int32 sum
        would wrap.
        """
        data = LowerBoundData(taillard_instance(7, 4, index=2))
        mask, release, prefixes = every_set(data, np.random.default_rng(1))
        for shift in (40_000, 2**31 - 10_000):
            shifted = release.copy()
            shifted[:, 0] += shift  # r_0 far above r_{m-1}
            expected = [lower_bound(data, p, release=rel) for p, rel in zip(prefixes, shifted)]
            assert lower_bound_batch_v2(data, mask, shifted).tolist() == expected
        assert data._v2_gemm_cache["table"].dtype == np.int16

    def test_built_on_the_first_launch_only_within_the_cap(self, monkeypatch):
        """Engines build no table at construction, and no launch builds one past the cap."""
        builds = []
        real = bounds._set_table

        def spy(data):
            if "table" not in data._v2_gemm_cache:
                builds.append((data.n_jobs, data.n_machines))
            return real(data)

        monkeypatch.setattr(bounds, "_set_table", spy)
        engine = SequentialBranchAndBound(random_instance(12, 8, seed=1), max_nodes=2_000)
        assert "table" not in engine.data._v2_gemm_cache
        engine.solve()
        assert builds == [(12, 8)]
        assert "table" in engine.data._v2_gemm_cache
        # the paper's 20x20 class (the gpu-100x20 warm-up) is past the cap
        GpuBranchAndBound(taillard_instance(20, 20, index=1), GpuBBConfig(max_nodes=100)).solve()
        assert builds == [(12, 8)]


STRATEGY_FUNCTIONS = {
    "gemm": "_lower_bound_batch_v2_matmul",
    "incremental": "_lower_bound_batch_v2_incremental",
}


class TestReleaseDtypes:
    """A signed-integer ``release`` is read in its own dtype; other input is converted.

    Every strategy casts one tile at a time to the dtype its value guard
    picks, so a block's int32 ``release`` and its int64 widening give the
    same bounds.  A launch without complete rows hands its own arrays to
    the strategy; one with complete rows gathers the active rows first.
    """

    @given(
        instances(min_jobs=2, max_jobs=8, max_machines=6),
        st.integers(2, 5),
        st.integers(0, 10_000),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_int32_and_int64_release_give_the_scalar_bound(
        self, instance, n_parents, seed, with_complete
    ):
        data = LowerBoundData(instance)
        mask, release, jobs, prefixes, _ = sibling_launch(instance, data, n_parents, seed)
        if not with_complete:
            rows = np.flatnonzero(~mask.all(axis=1))
            mask, release, jobs = mask[rows], release[rows], jobs[rows]
            prefixes = [prefixes[row] for row in rows]
        expected = [lower_bound(data, p) for p in prefixes]
        for strategy in (None, *V2_STRATEGIES):
            for dtype in (np.int32, np.int64):
                got = lower_bound_batch_v2(
                    data, mask, release.astype(dtype), strategy=strategy, jobs=jobs
                )
                assert got.dtype == np.int64
                assert got.tolist() == expected, (strategy, dtype)

    @pytest.mark.parametrize("strategy", ["gemm", "incremental"])
    def test_strategies_read_the_launch_arrays_in_place(self, monkeypatch, strategy):
        instance = taillard_instance(8, 5, index=1)
        data = LowerBoundData(instance)
        mask, release, jobs, _, _ = sibling_launch(instance, data, 4, 0)
        seen = []
        real = getattr(bounds, STRATEGY_FUNCTIONS[strategy])

        def spy(*args):
            seen.append(args[1:3])
            return real(*args)

        monkeypatch.setattr(bounds, STRATEGY_FUNCTIONS[strategy], spy)
        monkeypatch.setattr(bounds, "_V2_TABLE_ELEMENTS", 0)  # 8x5: the GEMM, not the table
        active = np.flatnonzero(~mask.all(axis=1))
        assert active.size < len(mask)  # the last parent's child is complete
        bits = bounds.pack_mask(mask)  # the packed rows a block carries
        launches = {
            "pass-through": (bits[active], release[active].astype(np.int32), jobs[active]),
            "gather": (bits, release.astype(np.int32), jobs),
        }
        for path, (launch_mask, launch_release, launch_jobs) in launches.items():
            seen.clear()
            lower_bound_batch_v2(
                data, launch_mask, launch_release, strategy=strategy, jobs=launch_jobs
            )
            [(part_mask, part_release)] = seen
            assert part_release.dtype == np.int32
            in_place = path == "pass-through"
            assert np.shares_memory(part_mask, launch_mask) == in_place, path
            assert np.shares_memory(part_release, launch_release) == in_place, path

    def test_list_and_float_release_still_work(self):
        instance = taillard_instance(7, 4, index=2)
        data = LowerBoundData(instance)
        mask, release, jobs, prefixes, _ = sibling_launch(instance, data, 3, 1)
        expected = [lower_bound(data, p) for p in prefixes]
        for given_release in (release.tolist(), release.astype(np.float64)):
            for strategy in (None, *V2_STRATEGIES):
                got = lower_bound_batch_v2(data, mask, given_release, strategy=strategy, jobs=jobs)
                assert got.tolist() == expected, (type(given_release), strategy)


def _set_crossover(monkeypatch, n_jobs):
    monkeypatch.setattr(bounds, "_V2_INCREMENTAL_MIN_JOBS", n_jobs)


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
        monkeypatch.setattr(bounds, "_V2_INCREMENTAL_TILE", 1)  # the grain: one parent
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 1)
        one_cpu = self._solve(engine)
        whole_launches = len(incremental_calls)
        incremental_calls.clear()
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 4)
        split = self._solve(engine)
        assert len(incremental_calls) > whole_launches  # launches ran as parts
        assert self._fingerprint(split) == self._fingerprint(one_cpu)

    def test_root_bound_builds_no_gemm_tables(self, monkeypatch):
        """The one-row root launch takes the closed form, not the GEMM's tables."""
        engine = GpuBranchAndBound(self.INSTANCE, self.CONFIG)
        launches = []
        evaluate_block = engine.executor.evaluate_block

        def spy(block):
            result = evaluate_block(block)
            launches.append(result.bounds.copy())
            return result

        monkeypatch.setattr(engine.executor, "evaluate_block", spy)
        engine.solve()
        cache = engine.data._v2_gemm_cache
        assert not [table for table in cache.values() if isinstance(table, bounds._V2GemmData)]
        assert "root" in cache
        assert launches[0].tolist() == [lower_bound(engine.data, [])]


class TestOneMachineTermIsDominated:
    """The one-machine term never raises a bound at m >= 2.

    At m >= 2 the couple bound dominates the one-machine bound on every
    machine; at m = 1 there are no couples and the references' bound is
    the one-machine bound.  This is why kernel v2 and the frontier
    operator have no one-machine term of their own: the scalar reference
    equals every v2 path.
    """

    @staticmethod
    def _references(instance, data, seed):
        mask, release, prefixes = random_pool(instance, data, 24, seed)
        s_mask, s_release, jobs, s_prefixes, _ = sibling_launch(instance, data, 3, seed)
        scalar = [lower_bound(data, p) for p in prefixes]
        assert lower_bound_batch(data, mask, release).tolist() == scalar
        s_scalar = [lower_bound(data, p) for p in s_prefixes]
        for prefix, bound in zip(prefixes + s_prefixes, scalar + s_scalar):
            one_machine = one_machine_bound(data, prefix)
            assert one_machine <= bound, prefix
            if instance.n_machines == 1:
                assert one_machine == bound, prefix
        return (mask, release, scalar), (s_mask, s_release, jobs, s_scalar)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_flag_never_changes_a_bound(self, m):
        for seed in range(8):
            rng = np.random.default_rng(1000 * m + seed)
            instance = FlowShopInstance(rng.integers(1, 99, size=(int(rng.integers(3, 9)), m)))
            data = LowerBoundData(instance)
            pool, siblings = self._references(instance, data, seed)
            mask, release, expected = pool
            for strategy in (None, *V2_STRATEGIES):
                got = lower_bound_batch_v2(data, mask, release, strategy=strategy)
                assert got.tolist() == expected, (seed, strategy)
            s_mask, s_release, jobs, s_expected = siblings
            for strategy in (None, *V2_STRATEGIES):
                got = lower_bound_batch_v2(data, s_mask, s_release, jobs=jobs, strategy=strategy)
                assert got.tolist() == s_expected, (seed, strategy)
            # the frontier operator on branch-built sibling blocks
            pt = instance.processing_times
            level1 = frontier.branch_block(frontier.root_block(instance, frontier.Trail()), pt)
            level2 = frontier.branch_block(level1, pt)
            for block in (level1, level2):
                want = [lower_bound(data, block.prefix(row)) for row in range(len(block))]
                for kernel in ("v2", "scalar"):
                    got = frontier.bound_block(data, block, kernel=kernel)
                    assert got.tolist() == want, (seed, kernel)
