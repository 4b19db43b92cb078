#!/usr/bin/env python3
"""Compare the three Branch-and-Bound engines on the same instance.

Solves one medium instance with

* the serial engine (the paper's ``T_cpu`` reference),
* the multi-core engine (Section V's baseline, process backend),
* the GPU-accelerated engine (the paper's contribution, simulated device),

and reports, for each: the optimal makespan (they must agree), the number of
nodes bounded, the wall-clock time on this host, and — for the GPU engine —
the simulated device time plus the measured throughput advantage of the
batched kernel over the scalar one.

Run with::

    python examples/compare_backends.py [n_jobs] [n_machines]
"""

from __future__ import annotations

import sys
import time

from repro import (
    GpuBBConfig,
    GpuBranchAndBound,
    MulticoreBranchAndBound,
    SequentialBranchAndBound,
    random_instance,
)
from repro.bb.frontier import bound_block
from repro.experiments.protocol import collect_pending_pool
from repro.flowshop.bounds import LowerBoundData


def main() -> None:
    n_jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    n_machines = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    instance = random_instance(n_jobs, n_machines, seed=11)
    print(f"Instance: {instance.name} ({n_jobs} jobs x {n_machines} machines)\n")

    # --- serial ----------------------------------------------------------
    start = time.perf_counter()
    serial = SequentialBranchAndBound(instance).solve()
    serial_s = time.perf_counter() - start
    print(
        f"serial    : C_max={serial.best_makespan}  nodes={serial.stats.nodes_bounded:>6}  "
        f"time={serial_s:.3f}s  bounding={serial.stats.bounding_fraction:.0%}"
    )

    # --- multi-core (work-stealing, shared incumbent) ---------------------
    start = time.perf_counter()
    multicore = MulticoreBranchAndBound(instance, n_workers=4, backend="process").solve()
    multicore_s = time.perf_counter() - start
    print(
        f"multicore : C_max={multicore.best_makespan}  nodes={multicore.stats.nodes_bounded:>6}  "
        f"time={multicore_s:.3f}s  (4 work-stealing worker processes)"
    )

    # --- GPU-accelerated --------------------------------------------------
    start = time.perf_counter()
    gpu = GpuBranchAndBound(instance, GpuBBConfig(pool_size=4096)).solve()
    gpu_s = time.perf_counter() - start
    print(
        f"gpu       : C_max={gpu.best_makespan}  nodes={gpu.stats.nodes_bounded:>6}  "
        f"time={gpu_s:.3f}s  pools={gpu.stats.pools_evaluated}  "
        f"simulated device={gpu.simulated_device_time_s * 1e3:.2f}ms"
    )

    assert serial.best_makespan == multicore.best_makespan == gpu.best_makespan
    print("\nAll engines agree on the optimal makespan.\n")

    # --- measured kernel throughput: scalar vs batched --------------------
    data = LowerBoundData(instance)
    pool = collect_pending_pool(instance, pool_size=512, data=data, upper_bound=float("inf"))
    if len(pool):
        start = time.perf_counter()
        bound_block(data, pool, kernel="scalar")  # one scalar call per node
        scalar_s = time.perf_counter() - start

        start = time.perf_counter()
        bound_block(data, pool)  # the whole pool in one batched launch
        batch_s = time.perf_counter() - start
        print(f"bounding a pool of {len(pool)} nodes on this host:")
        print(f"  scalar kernel : {scalar_s * 1e3:8.2f} ms")
        print(
            f"  batched kernel: {batch_s * 1e3:8.2f} ms  "
            f"(x{scalar_s / max(batch_s, 1e-12):.1f} faster)"
        )


if __name__ == "__main__":
    main()
