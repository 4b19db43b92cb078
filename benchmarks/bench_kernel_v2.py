"""Kernel v2 vs v1: launch throughput and end-to-end engine wall-clock.

The v1 batched kernel vectorises the pool axis only, leaving a
``n_couples * n_jobs`` Python loop per launch (3 800 interpreter round
trips on an ``m = 20`` Taillard instance).  Kernel v2 vectorises the
machine-couple axis as well, with two bodies (the closed-form GEMM below
40 jobs, the incremental body from 40) and returns bit-identical bounds.
This module measures both:

* launch throughput of one batched evaluation at the paper's pool sizes
  (the acceptance bar is a >= 5x improvement at pool >= 4096 on a
  20-machine instance);
* end-to-end wall-clock of the sequential and GPU-simulator engines, which
  route every bounding call through kernel v2;
* the incremental body on the GPU engine's launch shape (the children of
  256 depth-2 parents): bit-identity with the v1 reference and with a
  frozen copy of the tiled GEMM kernel v2 ran before its two GEMM paths
  were merged (``_frozen_tiled_gemm``: one product per job over 512-row
  chunks, the reference the floors were set against), and per-launch
  floors over that frozen GEMM of >= 16x at 100x20 with the launch run as
  one part and >= 5x at 200x20 (asserted by a plain pytest case, so the
  CI smoke run enforces them); in script mode the one-part launch times at
  50/100/200x20, the crossover table behind ``_V2_INCREMENTAL_MIN_JOBS``
  and the tie-batch table (the merged GEMM body against the frozen one);
* one launch split across the usable CPUs: the ta100x20 sibling launch
  (the ``gpu-100x20`` shape) with the calling thread pinned to one CPU
  (one part) against unpinned (one part per CPU), alternating pinned and
  unpinned rounds so a host whose second CPU comes and goes slows both
  sides alike, bit-identical and >= 1.4x faster where two or more CPUs
  are usable (a plain pytest case); script mode prints the ratio for the
  50/100/200x20 sibling launches, a 200x20 pool without ``jobs`` and the
  20x20 GEMM pool, which is never split;
* the memory of one ``GpuExecutor.evaluate_block`` launch: the traced
  (``tracemalloc``) peak of the ta100x20 sibling launch, run as one part,
  stays below a 10 MB ceiling that a launch copying the block's columns
  exceeds (a plain pytest case); script mode prints it beside the launch
  time, with a ta200x20 pool launch (the children of 2048 depth-2
  parents).

Runable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel_v2.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_kernel_v2.py   # self-checking report
"""

from __future__ import annotations

import contextlib
import os
import time
import tracemalloc

import numpy as np
import pytest

import repro.flowshop.bounds as bounds
from repro.bb.frontier import Trail, branch_block, root_block
from repro.bb.sequential import SequentialBranchAndBound
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import GpuBranchAndBound
from repro.experiments.protocol import synthetic_pool
from repro.flowshop import random_instance, taillard_instance
from repro.flowshop.bounds import (
    _V2_INCREMENTAL_MIN_JOBS,
    LowerBoundData,
    lower_bound_batch,
    lower_bound_batch_v2,
)
from repro.gpu.executor import GpuExecutor

POOL_SIZE = 4096
SPEEDUP_FLOOR = 5.0

#: Depth-2 parents whose children form one incremental-strategy launch.
SIBLING_PARENTS = 256
#: Per-launch floor of the incremental body over the frozen tiled GEMM at
#: 200x20.
INCREMENTAL_FLOOR = 5.0
#: Per-launch floor of the incremental body run as one part over the
#: frozen tiled GEMM at 100x20: a same-process ratio, but the GEMM side
#: runs on BLAS's own threads.  On a 2-vCPU Xeon: 10-12x with O(C) work per
#: child, and with O(m) 31-37x under one BLAS thread and 30-56x under
#: OpenBLAS's default two (its GEMM did not speed up).  More BLAS threads
#: were not measured; the floor holds while they speed the GEMM up less
#: than 2x.
ONE_PART_FLOOR = 16.0
#: Parents whose children are also checked against the (slow) v1 reference.
V1_CHECK_PARENTS = 16
#: Instance classes of the crossover table (script mode).
CROSSOVER_CLASSES = ((13, 6), (20, 20), (30, 20), (50, 20), (100, 20), (200, 20))
#: Parents per launch and instance classes of the tie-batch table (script
#: mode): best-first tie batches bound several sibling sets at once.
GROUPED_PARENTS = (8, 32, 128)
GROUPED_CLASSES = ((13, 6), (20, 20))
#: Per-launch floor of a launch split across two or more CPUs over one part.
SPLIT_FLOOR = 1.4
#: Alternating pinned / unpinned rounds of the split measurement.
SPLIT_ROUNDS = 5
#: The split measurements pin the calling thread to one CPU for the baseline.
CAN_PIN = hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2
#: Ceiling on the traced peak, MB (2**20 bytes), of the ta100x20 sibling
#: launch run as one part (the same ceiling as tests/test_executor.py).
LAUNCH_PEAK_CEILING_MB = 10
#: Parents of the ta200x20 pool launch of the memory table (script mode):
#: the third launch of a pool-2048 GPU solve.
POOL_PARENTS = 2048


def _launch_inputs(n_jobs=20, n_machines=20, pool_size=POOL_SIZE):
    instance = taillard_instance(n_jobs, n_machines, index=1)
    data = LowerBoundData(instance)
    mask, release = synthetic_pool(instance, pool_size, seed=1)
    return data, mask, release


def test_kernel_v1_launch_20x20(benchmark):
    data, mask, release = _launch_inputs()
    values = benchmark(lower_bound_batch, data, mask, release)
    assert values.shape == (POOL_SIZE,)


def test_kernel_v2_launch_20x20(benchmark):
    data, mask, release = _launch_inputs()
    lower_bound_batch_v2(data, mask, release)  # build the cached tensors
    values = benchmark(lower_bound_batch_v2, data, mask, release)
    assert values.shape == (POOL_SIZE,)


def test_kernel_v2_matches_v1_on_large_pool(benchmark):
    data, mask, release = _launch_inputs(pool_size=8192)
    v2 = benchmark(lower_bound_batch_v2, data, mask, release)
    assert np.array_equal(v2, lower_bound_batch(data, mask, release))


# --------------------------------------------------------------------- #
# The frozen tiled GEMM: kernel v2's "gemm" strategy as it ran before its
# fused and tiled paths were merged, kept self-contained as the reference
# of the incremental floors (the way bench_frontier.py freezes the object
# loop).  Its tables are built per call, outside the timed launch.
# --------------------------------------------------------------------- #
_FROZEN_CHUNK = 512


class _FrozenTiledTables:
    """``kj[j]``: the ``(C, n + 1)`` weights of job ``j``'s candidates; ``bf``: ``B_N``."""

    def __init__(self, data: LowerBoundData, ftype=np.float32):
        n, n_couples = data.n_jobs, data.n_couples
        m1, m2 = data.mm[:, 0], data.mm[:, 1]
        self.ftype = np.dtype(ftype)
        big = bounds._v2_big_sentinel(data)
        pos = np.empty((n, n_couples), dtype=np.intp)
        pos[data.jm, np.arange(n_couples)[None, :]] = np.arange(n)[:, None]
        a_full, b_full = data.ptm[:, m1], data.ptm[:, m2]
        le = pos[:, None, :] >= pos[None, :, :]
        lt = pos[:, None, :] > pos[None, :, :]
        weights = a_full[None, :, :] * le - b_full[None, :, :] * lt
        diag = np.arange(n)
        weights[diag, diag, :] += big
        weights += b_full[None, :, :]
        const = np.broadcast_to((data.lm - big)[:, None, :], (n, 1, n_couples))
        kj = np.concatenate([weights, const], axis=1)
        self.kj = np.ascontiguousarray(kj.transpose(0, 2, 1)).astype(self.ftype)
        bf = np.concatenate([b_full, np.zeros((1, n_couples), dtype=np.int64)], axis=0)
        self.bf = np.ascontiguousarray(bf.T).astype(self.ftype)
        self.tails_t = np.ascontiguousarray(data.tails.T).astype(self.ftype)


def _frozen_tiled_gemm(data, tables, mask_a, rel_a):
    """``(B,)`` bounds of active rows: one BLAS product per job, 512-row chunks."""
    n, n_couples = data.n_jobs, data.n_couples
    gd = tables
    mask_t = np.ascontiguousarray(mask_a.T)
    rel_t = np.ascontiguousarray(rel_a.T).astype(gd.ftype)
    m2 = data.mm[:, 1]
    n_active = mask_a.shape[0]
    best = np.empty(n_active, dtype=np.int64)
    chunk = min(_FROZEN_CHUNK, n_active)
    running = np.empty((n_couples, chunk), dtype=gd.ftype)
    target = np.empty((n_couples, chunk), dtype=gd.ftype)
    indicators = np.empty((n + 1, chunk), dtype=gd.ftype)
    for start in range(0, n_active, chunk):
        end = min(start + chunk, n_active)
        width = end - start
        full = width == chunk
        u = indicators[:, :width] if full else np.empty((n + 1, width), dtype=gd.ftype)
        u[:n] = ~mask_t[:, start:end]
        u[n] = 1.0
        masked_tails = np.where(mask_t[:, None, start:end], np.inf, gd.tails_t.T[:, :, None])
        qm_t = masked_tails.min(axis=0)
        if full:
            cand_max, cand = running, target
            np.dot(gd.kj[0], u, out=cand_max)
        else:
            cand_max = np.dot(gd.kj[0], u)
            cand = np.empty_like(cand_max)
        for j in range(1, n):
            if full:
                np.dot(gd.kj[j], u, out=cand)
            else:
                cand = np.dot(gd.kj[j], u)
            np.maximum(cand_max, cand, out=cand_max)
        work_b = np.dot(gd.bf, u)
        front1 = rel_t[:, start:end][data.mm[:, 0]]
        front2 = rel_t[:, start:end][m2]
        front1 += cand_max[:, :width]
        front2 += work_b
        np.maximum(front2, front1, out=front2)
        front2 += qm_t[m2]
        best[start:end] = front2.max(axis=0).astype(np.int64)
    return best


def _sibling_launch(n_jobs, n_machines, n_parents=SIBLING_PARENTS):
    """The children of ``n_parents`` depth-2 parents, as one branch-built block.

    The parents are spread evenly over all depth-2 nodes of Taillard-style
    instance #1 of the class.
    """
    instance = taillard_instance(n_jobs, n_machines, index=1)
    data = LowerBoundData(instance)
    pt = instance.processing_times
    depth1 = branch_block(root_block(instance, Trail()), pt, 1)
    depth2 = branch_block(depth1, pt, 1 + len(depth1))
    rows = np.unique(np.linspace(0, len(depth2) - 1, n_parents).astype(np.int64))
    return data, branch_block(depth2.take(rows), pt, 1 + len(depth1) + len(depth2))


def _timed(fn, *args, reps=1, **kwargs):
    """``(best seconds over reps, result)`` of ``fn(*args, **kwargs)``."""
    best, out = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, out


@pytest.mark.parametrize("n_jobs, floor", [(100, ONE_PART_FLOOR), (200, INCREMENTAL_FLOOR)])
def test_incremental_launch_exact_and_fast(n_jobs, floor):
    """Incremental == frozen tiled GEMM == v1 on one launch, and its floor over that GEMM.

    At 100x20 the incremental launch runs as one part; at 200x20 it is
    split across the usable CPUs as usual.
    """
    data, children = _sibling_launch(n_jobs, 20)
    mask, release = children.scheduled_mask, children.release
    tables = _FrozenTiledTables(data)
    t_gemm, gemm = _timed(_frozen_tiled_gemm, data, tables, mask, release)
    with _one_part() if n_jobs == 100 else contextlib.nullcontext():
        t_inc, incremental = _timed(
            lower_bound_batch_v2, data, mask, release, strategy="incremental",
            jobs=children.jobs, reps=3,
        )
    assert np.array_equal(incremental, gemm)
    head = slice(0, V1_CHECK_PARENTS * (n_jobs - 2))
    assert np.array_equal(incremental[head], lower_bound_batch(data, mask[head], release[head]))
    speedup = t_gemm / t_inc
    assert speedup >= floor, f"incremental {speedup:.1f}x over the GEMM, floor {floor:.0f}x"


def _one_cpu_vs_all(fn, rounds=SPLIT_ROUNDS):
    """``(best s pinned to one CPU, best s unpinned, pinned out, unpinned out)``.

    Pinning narrows the calling thread's affinity, which the kernel reads
    per launch, so the pinned launch runs as one part.  Pinned and
    unpinned launches alternate, one of each per round, so a host whose
    second CPU comes and goes slows both sides alike instead of only the
    side that ran while it was busy.
    """
    usable = os.sched_getaffinity(0)
    t_one = t_all = float("inf")
    one = split = None
    for _ in range(rounds):
        os.sched_setaffinity(0, {min(usable)})
        try:
            seconds, one = _timed(fn)
        finally:
            os.sched_setaffinity(0, usable)
        t_one = min(t_one, seconds)
        seconds, split = _timed(fn)
        t_all = min(t_all, seconds)
    return t_one, t_all, one, split


@pytest.mark.skipif(not CAN_PIN, reason="needs two usable CPUs and os.sched_setaffinity")
def test_split_launch_exact_and_faster():
    """The ta100x20 sibling launch: identical bounds, >= 1.4x split over one part."""
    data, children = _sibling_launch(100, 20)
    args = (data, children.scheduled_mask, children.release)
    lower_bound_batch_v2(*args, jobs=children.jobs)  # build the tables
    t_one, t_all, one, split = _one_cpu_vs_all(
        lambda: lower_bound_batch_v2(*args, jobs=children.jobs)
    )
    assert np.array_equal(split, one)
    speedup = t_one / t_all
    message = f"split launch {speedup:.2f}x over one part, floor {SPLIT_FLOOR}x"
    assert speedup >= SPLIT_FLOOR, message


@contextlib.contextmanager
def _one_part():
    """Launches inside run as one part (the kernel reads the usable CPUs per launch)."""
    usable_cpus = bounds._usable_cpus
    bounds._usable_cpus = lambda: 1
    try:
        yield
    finally:
        bounds._usable_cpus = usable_cpus


def _launch_memory(data, block):
    """``(input MB, traced peak MB, launch s)`` of ``GpuExecutor.evaluate_block(block)``.

    The peak is traced on a launch run as one part, since every part of a
    split launch holds its own tile tables; the time is untraced and split
    as usual.
    """
    executor = GpuExecutor(data)
    executor.evaluate_block(block)  # builds the per-instance tables
    seconds, _ = _timed(executor.evaluate_block, block)
    with _one_part():
        tracemalloc.start()
        try:
            executor.evaluate_block(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    inputs = block.scheduled_mask.nbytes + block.release.nbytes
    return inputs / 2**20, peak / 2**20, seconds


def test_sibling_launch_peak_below_the_ceiling():
    """The ta100x20 sibling launch reads the block's columns in place."""
    _, peak, _ = _launch_memory(*_sibling_launch(100, 20))
    assert peak < LAUNCH_PEAK_CEILING_MB, f"traced peak {peak:.1f} MB"


def test_sequential_engine_v2_end_to_end(benchmark):
    instance = random_instance(11, 10, seed=3)
    result = benchmark(lambda: SequentialBranchAndBound(instance).solve())
    assert result.proved_optimal


def test_gpu_engine_v2_end_to_end(benchmark):
    instance = random_instance(10, 10, seed=5)
    config = GpuBBConfig(pool_size=256)
    result = benchmark(lambda: GpuBranchAndBound(instance, config).solve())
    assert result.proved_optimal


# --------------------------------------------------------------------- #
# Script mode: self-checking speedup report
# --------------------------------------------------------------------- #
def crossover_table() -> None:
    """GEMM vs incremental per class: one 256-parent launch and one sibling set.

    The single sibling set is what the sequential engine bounds per step;
    below ``_V2_INCREMENTAL_MIN_JOBS`` it takes the GEMM body in one product.
    """
    print(
        f"incremental crossover (children of {SIBLING_PARENTS} depth-2 parents; "
        f"incremental from n = {_V2_INCREMENTAL_MIN_JOBS})"
    )
    print("  class      rows   gemm ms  incr ms  ratio | one parent: gemm us  incr us  ratio")
    for n_jobs, n_machines in CROSSOVER_CLASSES:
        data, children = _sibling_launch(n_jobs, n_machines)
        args = (data, children.scheduled_mask, children.release)
        t_gemm, gemm = _timed(lower_bound_batch_v2, *args, strategy="gemm", reps=2)
        t_inc, inc = _timed(
            lower_bound_batch_v2, *args, strategy="incremental", jobs=children.jobs, reps=3
        )
        assert np.array_equal(inc, gemm), f"{n_jobs}x{n_machines} diverged"
        sib = children.take(np.arange(n_jobs - 2))  # the first parent's children
        sib_args = (data, sib.scheduled_mask, sib.release)
        t_gemm_one, _ = _timed(
            lower_bound_batch_v2, *sib_args, strategy="gemm", jobs=sib.jobs, reps=21
        )
        t_sib, _ = _timed(
            lower_bound_batch_v2, *sib_args, strategy="incremental", jobs=sib.jobs, reps=21
        )
        print(
            f"  {n_jobs:>3}x{n_machines:<3} {len(children):>7} {t_gemm * 1e3:9.1f} "
            f"{t_inc * 1e3:8.1f} {t_gemm / t_inc:6.2f} | {t_gemm_one * 1e6:18.0f} "
            f"{t_sib * 1e6:8.0f} {t_gemm_one / t_sib:6.2f}"
        )


def one_part_table() -> None:
    """The incremental sibling launches of the split table, run as one part."""
    print(f"incremental sibling launches as one part (children of {SIBLING_PARENTS} parents)")
    print("  class      rows  one-part ms")
    with _one_part():
        for n_jobs in (50, 100, 200):
            data, children = _sibling_launch(n_jobs, 20)
            args = (data, children.scheduled_mask, children.release)
            lower_bound_batch_v2(*args, jobs=children.jobs)  # build the tables
            seconds, _ = _timed(lower_bound_batch_v2, *args, jobs=children.jobs, reps=3)
            print(f"  {n_jobs:>3}x20 {len(children):>7} {seconds * 1e3:12.1f}")


def grouped_sibling_table() -> None:
    """Several parents' complete sibling sets in one launch (a tie batch).

    The merged GEMM body (one product per row chunk when it fits) against
    the frozen tiled GEMM (one product per job), both called directly on
    the launch's rows (every row is active), bit-identity asserted.
    """
    print("tie-batch launches (children of P depth-2 parents): merged GEMM vs frozen tiled")
    print("  class      P   rows  merged us  tiled us  tiled/merged")
    for n_jobs, n_machines in GROUPED_CLASSES:
        for n_parents in GROUPED_PARENTS:
            data, children = _sibling_launch(n_jobs, n_machines, n_parents)
            args = (data, children.scheduled_mask, children.release)
            tables = _FrozenTiledTables(data)
            merged = bounds._lower_bound_batch_v2_matmul
            t_merged, out = _timed(merged, *args, np.float32, reps=21)
            t_tiled, reference = _timed(_frozen_tiled_gemm, data, tables, *args[1:], reps=21)
            assert np.array_equal(out, reference), f"{n_jobs}x{n_machines} diverged"
            print(
                f"  {n_jobs:>3}x{n_machines:<3} {n_parents:>4} {len(children):>6} "
                f"{t_merged * 1e6:10.0f} {t_tiled * 1e6:9.0f} {t_tiled / t_merged:13.2f}"
            )


def split_table() -> None:
    """One part (the caller pinned to one CPU) against one part per usable CPU."""
    if not CAN_PIN:
        print("split launches: skipped (needs two usable CPUs and os.sched_setaffinity)")
        return
    print(f"split launches ({len(os.sched_getaffinity(0))} usable CPUs; floor {SPLIT_FLOOR}x)")
    print("  launch                          rows  one-CPU ms  split ms  ratio")
    cases = []
    data, mask, release = _launch_inputs(pool_size=16384)
    cases.append(("20x20 pool, gemm (not split)", data, mask, release, None))
    data, mask, release = _launch_inputs(200, 20, pool_size=1024)
    cases.append(("200x20 pool, no jobs", data, mask, release, None))
    for n_jobs in (50, 100, 200):
        data, children = _sibling_launch(n_jobs, 20)
        label = f"{n_jobs}x20 siblings, incremental"
        cases.append((label, data, children.scheduled_mask, children.release, children.jobs))
    for label, data, mask, release, jobs in cases:
        lower_bound_batch_v2(data, mask, release, jobs=jobs)  # build the tables
        t_one, t_all, one, split = _one_cpu_vs_all(
            lambda: lower_bound_batch_v2(data, mask, release, jobs=jobs), rounds=3
        )
        assert np.array_equal(split, one), f"{label} diverged"
        print(
            f"  {label:<30} {len(mask):>6} {t_one * 1e3:11.1f} {t_all * 1e3:9.1f} "
            f"{t_one / t_all:6.2f}"
        )


def memory_table() -> float:
    """Input and traced peak of one launch per shape; returns the 100x20 sibling peak."""
    print(f"launch memory (peak traced as one part; ceiling {LAUNCH_PEAK_CEILING_MB} MB)")
    print("  launch                              rows  input MB  peak MB  launch ms")
    peaks = []
    shapes = ((100, SIBLING_PARENTS, "siblings"), (200, POOL_PARENTS, "pool"))
    for n_jobs, n_parents, shape in shapes:
        data, children = _sibling_launch(n_jobs, 20, n_parents)
        inputs, peak, seconds = _launch_memory(data, children)
        peaks.append(peak)
        label = f"{n_jobs}x20 {shape} ({n_parents} parents)"
        print(f"  {label:<32} {len(children):>7} {inputs:9.1f} {peak:8.1f} {seconds * 1e3:10.0f}")
    return peaks[0]


def main() -> int:
    print(f"kernel v1 vs v2 launch throughput (pool = {POOL_SIZE}, ta 20x20)")
    data, mask, release = _launch_inputs()
    reference = lower_bound_batch(data, mask, release)
    for strategy in (None, "gemm", "incremental"):
        out = lower_bound_batch_v2(data, mask, release, strategy=strategy)
        assert np.array_equal(out, reference), f"strategy {strategy} diverged"
    # best of 6: the first call also builds the cached tensors and workspaces
    t_v1, _ = _timed(lower_bound_batch, data, mask, release, reps=6)
    t_v2, _ = _timed(lower_bound_batch_v2, data, mask, release, reps=6)
    t_inc, _ = _timed(lower_bound_batch_v2, data, mask, release, strategy="incremental", reps=6)
    speedup = t_v1 / t_v2
    throughput = POOL_SIZE / t_v2
    print(f"  v1        : {t_v1 * 1e3:8.1f} ms/launch  ({POOL_SIZE / t_v1:10.0f} bounds/s)")
    print(f"  v2 (auto) : {t_v2 * 1e3:8.1f} ms/launch  ({throughput:10.0f} bounds/s)")
    print(f"  v2 (incr.): {t_inc * 1e3:8.1f} ms/launch  ({POOL_SIZE / t_inc:10.0f} bounds/s)")
    print(f"  launch speedup v2/v1: {speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)")

    print("end-to-end engine wall-clock (kernel v2)")
    instance = random_instance(11, 10, seed=3)
    start = time.perf_counter()
    seq = SequentialBranchAndBound(instance).solve()
    seq_s = time.perf_counter() - start
    start = time.perf_counter()
    gpu = GpuBranchAndBound(instance, GpuBBConfig(pool_size=256)).solve()
    gpu_s = time.perf_counter() - start
    assert seq.best_makespan == gpu.best_makespan
    print(f"  sequential {seq_s * 1e3:.1f} ms, gpu-sim {gpu_s * 1e3:.1f} ms")

    crossover_table()
    one_part_table()
    grouped_sibling_table()
    split_table()
    sibling_peak = memory_table()

    if speedup < SPEEDUP_FLOOR:
        print(f"FAIL: v2 launch speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:.0f}x floor")
        return 1
    if sibling_peak >= LAUNCH_PEAK_CEILING_MB:
        print(f"FAIL: the 100x20 sibling launch peaked at {sibling_peak:.1f} MB")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
