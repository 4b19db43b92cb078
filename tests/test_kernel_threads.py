"""Concurrent kernel calls on one instance's bound data stay exact.

The solve service shares one :class:`~repro.flowshop.bounds.LowerBoundData`
per distinct instance, and bounds it from more than one thread at a time: a
degraded session bounds locally beside the dispatcher's fused launches, and
a launch watchdog's straggler keeps running while the launch is retried.
The kernels must therefore keep no shared mutable scratch state — every
bound computed beside another thread must equal the single-threaded one.

Kernel v2 also splits one large incremental launch across the usable
CPUs, on threads that live only for that launch.  The split cases
below force it on any host by reporting 4 usable CPUs and lowering the
grain, and check that every part's bounds are exact, that a failing part's
error reaches the caller, and that no thread outlives the launch.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.flowshop.bounds as bounds
from repro.bb.frontier import Trail, branch_block, root_block
from repro.flowshop import random_instance, taillard_instance
from repro.flowshop.bounds import (
    LowerBoundData,
    lower_bound,
    lower_bound_batch,
    lower_bound_batch_v2,
)

#: rows per launch: one GEMM chunk, so both threads want workspaces of the
#: same size
ROWS = 256
#: launches per thread
LAUNCHES = 300


def _random_rows(data: LowerBoundData, rows: int, seed: int):
    """``rows`` random partial schedules (1 .. n-1 jobs placed)."""
    rng = np.random.default_rng(seed)
    n = data.n_jobs
    mask = np.zeros((rows, n), dtype=bool)
    release = np.zeros((rows, data.n_machines), dtype=np.int64)
    for i in range(rows):
        prefix = rng.permutation(n)[: rng.integers(1, n)]
        mask[i, prefix] = True
        release[i] = data.machine_release_times(prefix)
    return mask, release


def test_two_threads_bounding_one_instance_get_exact_bounds(monkeypatch):
    """Two threads hammer the GEMM body on one :class:`LowerBoundData`.

    A 13x6 instance is within the set table's cap, so the cap is patched to
    0: every launch, the references included, runs
    ``_lower_bound_batch_v2_matmul`` and its per-call workspaces, as a
    shared instance past the cap (20x20, say) does in the service.
    """
    monkeypatch.setattr(bounds, "_V2_TABLE_ELEMENTS", 0)
    instance = random_instance(13, 6, seed=11)
    data = LowerBoundData(instance)
    blocks = [_random_rows(data, ROWS, seed) for seed in (1, 2)]
    # references from a private copy of the data, one thread
    reference = LowerBoundData(instance)
    expected = [
        lower_bound_batch_v2(reference, mask, release, strategy="gemm")
        for mask, release in blocks
    ]
    gemm_threads = set()
    real_gemm = bounds._lower_bound_batch_v2_matmul

    def spy_gemm(*args):
        gemm_threads.add(threading.get_ident())
        return real_gemm(*args)

    monkeypatch.setattr(bounds, "_lower_bound_batch_v2_matmul", spy_gemm)

    start = threading.Barrier(2, timeout=30.0)
    wrong = [0, 0]
    done = [0, 0]
    errors: list[Exception] = []

    def hammer(slot: int) -> None:
        mask, release = blocks[slot]
        try:
            start.wait()
            for _ in range(LAUNCHES):
                got = lower_bound_batch_v2(data, mask, release, strategy="gemm")
                wrong[slot] += int(np.count_nonzero(got != expected[slot]))
                done[slot] += 1
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(slot,)) for slot in (0, 1)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads), "a bounding thread hung"
    assert not errors, errors
    assert done == [LAUNCHES, LAUNCHES]
    assert gemm_threads == {thread.ident for thread in threads}  # both ran the GEMM body
    assert wrong == [0, 0], f"bounds corrupted by a concurrent launch: {wrong}"


def test_threads_building_one_set_table_get_exact_bounds(monkeypatch):
    """Threads whose first launches race to build a fresh instance's set table.

    A 13x6 instance is within the set table's cap, so the first GEMM launch
    on its :class:`LowerBoundData` builds the table; every round starts
    from a fresh one, so the threads' launches build it at once, and every
    bound must equal the v1 reference.
    """
    instance = random_instance(13, 6, seed=12)
    callers, rounds = 4, 20
    blocks = [_random_rows(LowerBoundData(instance), 64, seed) for seed in range(callers)]
    reference = LowerBoundData(instance)
    expected = [lower_bound_batch(reference, mask, release) for mask, release in blocks]
    builds = []
    real_build = bounds._V2GemmData

    def counting_build(*args):
        builds.append(threading.get_ident())
        return real_build(*args)

    monkeypatch.setattr(bounds, "_V2GemmData", counting_build)
    wrong = [0] * callers
    errors: list[BaseException] = []
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(rounds):
            data = LowerBoundData(instance)  # no table yet
            start = threading.Barrier(callers, timeout=30.0)

            def bound(slot: int) -> None:
                mask, release = blocks[slot]
                try:
                    start.wait()
                    got = lower_bound_batch_v2(data, bounds.pack_mask(mask), release)
                    wrong[slot] += int(np.count_nonzero(got != expected[slot]))
                except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=bound, args=(slot,)) for slot in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads), "a bounding thread hung"
            assert data._v2_gemm_cache["table"].shape == (6, 1 << 13)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not errors, errors
    assert wrong == [0] * callers, f"bounds corrupted while the table was built: {wrong}"
    assert rounds <= len(builds) <= rounds * callers  # one build per round at least


# --------------------------------------------------------------------- #
# One launch split across CPUs
# --------------------------------------------------------------------- #
#: per-strategy kernel functions a split launch evaluates once per part
STRATEGY_FUNCTIONS = {
    "gemm": "_lower_bound_batch_v2_matmul",
    "incremental": "_lower_bound_batch_v2_incremental",
}


def _force_split(monkeypatch, cpus: int = 4, grain: int = 1) -> None:
    """Report ``cpus`` usable CPUs and lower the split grain to ``grain``.

    The incremental body's grain is its tile, so its tiles shrink to one
    parent as well.
    """
    monkeypatch.setattr(bounds, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(bounds, "_V2_INCREMENTAL_TILE", grain)


def _spy_parts(monkeypatch, strategy: str, fail_in=None) -> list[tuple[int, int]]:
    """``(thread id, rows)`` of every part the strategy's kernel evaluates.

    ``fail_in`` makes the part evaluated by that thread (``"caller"`` or
    ``"helper"``) raise instead.
    """
    name = STRATEGY_FUNCTIONS[strategy]
    real = getattr(bounds, name)
    caller = threading.get_ident()
    parts: list[tuple[int, int]] = []

    def spy(*args):
        ident = threading.get_ident()
        parts.append((ident, len(args[1])))
        if fail_in is not None and (ident == caller) == (fail_in == "caller"):
            raise RuntimeError(f"part failed in the {fail_in}")
        return real(*args)

    monkeypatch.setattr(bounds, name, spy)
    return parts


def _sibling_block(n_jobs: int, n_machines: int, n_parents: int):
    """The children of ``n_parents`` depth-2 parents, as ``branch_block`` builds them."""
    instance = taillard_instance(n_jobs, n_machines, index=1)
    pt = instance.processing_times
    depth1 = branch_block(root_block(instance, Trail()), pt)
    depth2 = branch_block(depth1, pt)
    rows = np.linspace(0, len(depth2) - 1, n_parents).astype(np.int64)
    return instance, branch_block(depth2.take(rows), pt)


def _scalar(data: LowerBoundData, mask: np.ndarray, release: np.ndarray) -> np.ndarray:
    return np.array(
        [lower_bound(data, np.flatnonzero(row), release=rel) for row, rel in zip(mask, release)],
        dtype=np.int64,
    )


def _wait_for_thread_count(count: int, timeout: float = 10.0) -> int:
    deadline = time.monotonic() + timeout
    while threading.active_count() != count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


class TestSplitLaunch:
    """How a launch is cut into parts, and that every part stays exact."""

    def test_incremental_parts_cut_sibling_runs_and_stay_exact(self, monkeypatch):
        instance, block = _sibling_block(50, 20, n_parents=2)  # 2 runs of 48 siblings
        data = LowerBoundData(instance)
        args = (data, block.mask_bits, block.release)
        expected = _scalar(data, bounds.unpack_mask(block.mask_bits, block.n_jobs), block.release)
        _force_split(monkeypatch, cpus=1)
        one_cpu = lower_bound_batch_v2(*args, jobs=block.jobs)
        _force_split(monkeypatch, cpus=4)
        real = bounds._lower_bound_batch_v2_incremental
        parts = []  # (thread id, packed rows) of every part

        def spy(*part_args):
            parts.append((threading.get_ident(), part_args[1]))
            return real(*part_args)

        monkeypatch.setattr(bounds, "_lower_bound_batch_v2_incremental", spy)
        threads_before = threading.active_count()
        split = lower_bound_batch_v2(*args, jobs=block.jobs)
        assert threading.active_count() == threads_before  # every helper joined
        # cuts at rows 24, 48 and 72: 24 and 72 fall inside a sibling run
        assert [len(mask) for _, mask in parts] == [24, 24, 24, 24]
        # part 0 runs on the calling thread and parts 1-3 on helpers; idents
        # are not counted, since a helper that ends before the next one
        # starts may hand it its ident
        on_caller = [mask for ident, mask in parts if ident == threading.get_ident()]
        assert len(on_caller) == 1
        assert np.array_equal(on_caller[0], block.mask_bits[:24])
        assert np.array_equal(split, expected)
        assert np.array_equal(one_cpu, expected)

    def test_gemm_is_never_split(self, monkeypatch, paper_instance_data):
        """BLAS runs the GEMM's products on its own threads, so no split."""
        mask, release = _random_rows(paper_instance_data, 1100, seed=4)
        _force_split(monkeypatch, cpus=4)
        parts = _spy_parts(monkeypatch, "gemm")
        got = lower_bound_batch_v2(paper_instance_data, mask, release)
        assert [rows for _, rows in parts] == [1100]
        head = slice(0, 40)
        assert np.array_equal(got[head], _scalar(paper_instance_data, mask[head], release[head]))

    @pytest.mark.parametrize("strategy", ["gemm", "incremental"])
    def test_13x6_launch_below_the_grain_runs_as_one_part(self, monkeypatch, strategy):
        """The GEMM never splits; 65,536 rows x 15 couples are below two incremental tiles."""
        data = LowerBoundData(taillard_instance(13, 6, index=1))
        block_mask, block_release = _random_rows(data, 64, seed=6)
        reps = 65_536 // 64
        mask, release = np.tile(block_mask, (reps, 1)), np.tile(block_release, (reps, 1))
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(bounds, "_V2_TABLE_ELEMENTS", 0)  # the GEMM body, not the table
        parts = _spy_parts(monkeypatch, strategy)
        got = lower_bound_batch_v2(data, mask, release, strategy=strategy)
        assert [rows for _, rows in parts] == [65_536]
        assert np.array_equal(got[:64], _scalar(data, block_mask, block_release))

    def test_grain_rule(self, monkeypatch):
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 4)
        cuts = bounds._split_cuts
        # incremental: a part needs rows * n_couples >= 2**19, one tile
        assert cuts(689, 190) is None
        assert cuts(5_518, 190) is None
        assert cuts(5_519, 190) == [0, 2_759, 5_519]
        assert cuts(104_857, 10) is None
        assert cuts(104_858, 10) == [0, 52_429, 104_858]
        assert cuts(100_000, 190) == [0, 25_000, 50_000, 75_000, 100_000]

    def test_small_launches_skip_the_affinity_read(self, monkeypatch):
        def unexpected():
            raise AssertionError("affinity read below the grain")

        monkeypatch.setattr(bounds, "_usable_cpus", unexpected)
        assert bounds._split_cuts(689, 190) is None
        assert bounds._split_cuts(65_536, 15) is None

    def test_one_usable_cpu_runs_one_part(self, monkeypatch):
        instance, block = _sibling_block(50, 20, n_parents=40)
        data = LowerBoundData(instance)
        _force_split(monkeypatch, cpus=1)
        parts = _spy_parts(monkeypatch, "incremental")
        lower_bound_batch_v2(data, block.mask_bits, block.release, jobs=block.jobs)
        assert [rows for _, rows in parts] == [len(block)]

    def test_usable_cpus_reads_the_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert bounds._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert bounds._usable_cpus() == 6

    @pytest.mark.parametrize("fail_in", ["caller", "helper"])
    def test_failing_part_reaches_the_caller(self, monkeypatch, fail_in):
        instance, block = _sibling_block(50, 20, n_parents=2)
        data = LowerBoundData(instance)
        _force_split(monkeypatch, cpus=4)
        parts = _spy_parts(monkeypatch, "incremental", fail_in=fail_in)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"part failed in the {fail_in}"):
            lower_bound_batch_v2(data, block.mask_bits, block.release, jobs=block.jobs)
        assert len(parts) == 4
        assert _wait_for_thread_count(threads_before) == threads_before

    def test_callers_outnumbering_the_cores_get_exact_split_bounds(self, monkeypatch):
        instance, block = _sibling_block(50, 20, n_parents=2)
        data = LowerBoundData(instance)
        args = (block.mask_bits, block.release)
        expected = lower_bound_batch_v2(LowerBoundData(instance), *args, jobs=block.jobs)
        _force_split(monkeypatch, cpus=4)
        parts = _spy_parts(monkeypatch, "incremental")
        callers, launches = 3, 40
        wrong = [0] * callers
        done = [0] * callers
        errors: list[BaseException] = []
        start = threading.Barrier(callers, timeout=30.0)

        def hammer(slot: int) -> None:
            try:
                start.wait()
                for _ in range(launches):
                    got = lower_bound_batch_v2(data, *args, jobs=block.jobs)
                    wrong[slot] += int(np.count_nonzero(got != expected))
                    done[slot] += 1
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(callers)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads), "a bounding thread hung"
        assert not errors, errors
        assert done == [launches] * callers
        assert len(parts) == 4 * callers * launches
        assert wrong == [0] * callers, f"split bounds corrupted: {wrong}"


def test_importing_the_package_starts_no_thread():
    """The split keeps no module-level thread pool."""
    code = (
        "import threading, repro, repro.flowshop.bounds, repro.bb, repro.core, "
        "repro.gpu, repro.service; print(threading.active_count())"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"
