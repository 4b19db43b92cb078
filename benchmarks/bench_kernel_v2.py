"""Kernel v2 vs v1: launch throughput and end-to-end engine wall-clock.

The v1 batched kernel vectorises the pool axis only, leaving a
``n_couples * n_jobs`` Python loop per launch (3 800 interpreter round
trips on an ``m = 20`` Taillard instance).  Kernel v2 vectorises the
machine-couple axis as well (closed-form BLAS evaluation for small ``n``,
``(B, n_couples)`` scan tensors otherwise) and returns bit-identical
bounds.  This module measures both:

* launch throughput of one batched evaluation at the paper's pool sizes
  (the acceptance bar is a >= 5x improvement at pool >= 4096 on a
  20-machine instance);
* end-to-end wall-clock of the sequential and GPU-simulator engines, which
  route every bounding call through the selected kernel;
* the incremental strategy on the GPU engine's launch shape (the children
  of 256 depth-2 parents): bit-identity with the GEMM and scan strategies,
  a >= 5x per-launch floor over the GEMM at 200x20 (asserted by a plain
  pytest case, so the CI smoke run enforces it), and in script mode the
  crossover table behind ``_V2_INCREMENTAL_MIN_JOBS``.

Runable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel_v2.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_kernel_v2.py   # self-checking report
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bb.frontier import (
    _FUSED_MAX_BATCH,
    Trail,
    _bound_block_fused,
    _fused_data,
    _sibling_qm,
    branch_block,
    root_block,
)
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

POOL_SIZE = 4096
SPEEDUP_FLOOR = 5.0

#: Depth-2 parents whose children form one incremental-strategy launch.
SIBLING_PARENTS = 256
#: Per-launch floor of the incremental strategy over the GEMM at 200x20.
INCREMENTAL_FLOOR = 5.0
#: Parents whose children are also checked against the (slow) scan strategy.
SCAN_CHECK_PARENTS = 16
#: Instance classes of the crossover table (script mode).
CROSSOVER_CLASSES = ((13, 6), (20, 20), (50, 20), (100, 20), (200, 20))
#: Parents per launch and instance classes of the multi-parent sibling table
#: (script mode): best-first tie batches bound several sibling sets at once.
GROUPED_PARENTS = (8, 32)
GROUPED_CLASSES = ((13, 6), (20, 20))


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


def test_kernel_v2_scan_strategy_launch(benchmark):
    """The scan strategy (used for very large n_jobs) on the same pool."""
    data, mask, release = _launch_inputs()
    values = benchmark(lower_bound_batch_v2, data, mask, release, strategy="scan")
    assert np.array_equal(values, lower_bound_batch(data, mask, release))


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


@pytest.mark.parametrize("n_jobs", [100, 200])
def test_incremental_launch_exact_and_fast(n_jobs):
    """Incremental == GEMM == scan on one launch; >= 5x over the GEMM at 200x20."""
    data, children = _sibling_launch(n_jobs, 20)
    mask, release = children.scheduled_mask, children.release
    lower_bound_batch_v2(data, mask[:1], release[:1], strategy="gemm")  # build the tensors
    args = (data, mask, release)
    t_gemm, gemm = _timed(lower_bound_batch_v2, *args, strategy="gemm")
    t_inc, incremental = _timed(
        lower_bound_batch_v2, *args, strategy="incremental", jobs=children.jobs, reps=3
    )
    assert np.array_equal(incremental, gemm)
    head = slice(0, SCAN_CHECK_PARENTS * (n_jobs - 2))
    scan = lower_bound_batch_v2(data, mask[head], release[head], strategy="scan")
    assert np.array_equal(incremental[head], scan)
    if n_jobs == 200:
        speedup = t_gemm / t_inc
        assert speedup >= INCREMENTAL_FLOOR, (
            f"incremental {speedup:.1f}x over the GEMM, floor {INCREMENTAL_FLOOR:.0f}x"
        )


def test_sequential_engine_v2_end_to_end(benchmark):
    instance = random_instance(11, 10, seed=3)
    result = benchmark(lambda: SequentialBranchAndBound(instance, kernel="v2").solve())
    assert result.proved_optimal


def test_gpu_engine_v2_end_to_end(benchmark):
    instance = random_instance(10, 10, seed=5)
    config = GpuBBConfig(pool_size=256, kernel="v2")
    result = benchmark(lambda: GpuBranchAndBound(instance, config).solve())
    assert result.proved_optimal


# --------------------------------------------------------------------- #
# Script mode: self-checking speedup report
# --------------------------------------------------------------------- #
def crossover_table() -> None:
    """GEMM vs incremental per class: one 256-parent launch and one sibling set.

    The single sibling set is what the sequential engine bounds per step;
    below ``_V2_INCREMENTAL_MIN_JOBS`` it takes the frontier's fused GEMM.
    """
    print(
        f"incremental crossover (children of {SIBLING_PARENTS} depth-2 parents; "
        f"incremental from n = {_V2_INCREMENTAL_MIN_JOBS})"
    )
    print("  class      rows   gemm ms  incr ms  ratio | one parent: fused us  incr us  ratio")
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

        def fused():
            qm_b = _sibling_qm(sib.jobs, len(sib), _fused_data(data, np.float32))
            return _bound_block_fused(*sib_args, False, np.float32, qm_b=qm_b)

        t_fused, _ = _timed(fused, reps=21)
        t_sib, _ = _timed(
            lower_bound_batch_v2, *sib_args, strategy="incremental", jobs=sib.jobs, reps=21
        )
        print(
            f"  {n_jobs:>3}x{n_machines:<3} {len(children):>7} {t_gemm * 1e3:9.1f} "
            f"{t_inc * 1e3:8.1f} {t_gemm / t_inc:6.2f} | {t_fused * 1e6:19.0f} "
            f"{t_sib * 1e6:8.0f} {t_fused / t_sib:6.2f}"
        )


def grouped_sibling_table() -> None:
    """Several parents' complete sibling sets in one launch (a tie batch).

    The grouped (min, second-min) tails against the masked tail reduction
    of the same fused GEMM, and against the chunked kernel that blocks
    above ``_FUSED_MAX_BATCH`` rows take instead of the fused path.
    """
    print(
        f"multi-parent sibling launches (children of P depth-2 parents; "
        f"fused up to {_FUSED_MAX_BATCH} rows)"
    )
    print("  class      P  rows  grouped us  masked us  kernel us  masked/grouped  kernel/grouped")
    for n_jobs, n_machines in GROUPED_CLASSES:
        for n_parents in GROUPED_PARENTS:
            data, children = _sibling_launch(n_jobs, n_machines, n_parents)
            args = (data, children.scheduled_mask, children.release)
            fd = _fused_data(data, np.float32)

            def grouped():
                qm_b = _sibling_qm(children.jobs, n_jobs - 2, fd)
                return _bound_block_fused(*args, False, np.float32, qm_b=qm_b)

            t_grouped, out = _timed(grouped, reps=21)
            t_masked, masked = _timed(_bound_block_fused, *args, False, np.float32, reps=21)
            t_kernel, reference = _timed(lower_bound_batch_v2, *args, jobs=children.jobs, reps=21)
            assert np.array_equal(out, reference), f"{n_jobs}x{n_machines} grouped diverged"
            assert np.array_equal(masked, reference), f"{n_jobs}x{n_machines} masked diverged"
            print(
                f"  {n_jobs:>3}x{n_machines:<3} {n_parents:>3} {len(children):>5} "
                f"{t_grouped * 1e6:11.0f} {t_masked * 1e6:10.0f} {t_kernel * 1e6:10.0f} "
                f"{t_masked / t_grouped:15.2f} {t_kernel / t_grouped:15.2f}"
            )


def main() -> int:
    print(f"kernel v1 vs v2 launch throughput (pool = {POOL_SIZE}, ta 20x20)")
    data, mask, release = _launch_inputs()
    reference = lower_bound_batch(data, mask, release)
    for strategy in (None, "gemm", "scan"):
        out = lower_bound_batch_v2(data, mask, release, strategy=strategy)
        assert np.array_equal(out, reference), f"strategy {strategy} diverged"
    # best of 6: the first call also builds the cached tensors and workspaces
    t_v1, _ = _timed(lower_bound_batch, data, mask, release, reps=6)
    t_v2, _ = _timed(lower_bound_batch_v2, data, mask, release, reps=6)
    t_scan, _ = _timed(lower_bound_batch_v2, data, mask, release, strategy="scan", reps=6)
    speedup = t_v1 / t_v2
    throughput = POOL_SIZE / t_v2
    print(f"  v1        : {t_v1 * 1e3:8.1f} ms/launch  ({POOL_SIZE / t_v1:10.0f} bounds/s)")
    print(f"  v2 (auto) : {t_v2 * 1e3:8.1f} ms/launch  ({throughput:10.0f} bounds/s)")
    print(f"  v2 (scan) : {t_scan * 1e3:8.1f} ms/launch  ({POOL_SIZE / t_scan:10.0f} bounds/s)")
    print(f"  launch speedup v2/v1: {speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)")

    print("end-to-end engine wall-clock (same tree either kernel)")
    instance = random_instance(11, 10, seed=3)
    for kernel in ("v1", "v2"):
        start = time.perf_counter()
        seq = SequentialBranchAndBound(instance, kernel=kernel).solve()
        seq_s = time.perf_counter() - start
        start = time.perf_counter()
        gpu = GpuBranchAndBound(instance, GpuBBConfig(pool_size=256, kernel=kernel)).solve()
        gpu_s = time.perf_counter() - start
        assert seq.best_makespan == gpu.best_makespan
        print(f"  kernel {kernel}: sequential {seq_s * 1e3:.1f} ms, gpu-sim {gpu_s * 1e3:.1f} ms")

    crossover_table()
    grouped_sibling_table()

    if speedup < SPEEDUP_FLOOR:
        print(f"FAIL: v2 launch speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:.0f}x floor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
