"""Concurrent kernel calls on one instance's bound data stay exact.

The solve service shares one :class:`~repro.flowshop.bounds.LowerBoundData`
per distinct instance, and bounds it from more than one thread at a time: a
degraded session bounds locally beside the dispatcher's fused launches, and
a launch watchdog's straggler keeps running while the launch is retried.
The kernels must therefore keep no shared mutable scratch state — every
bound computed beside another thread must equal the single-threaded one.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.flowshop import random_instance
from repro.flowshop.bounds import LowerBoundData, lower_bound_batch_v2

#: rows per launch: one full GEMM chunk, so both threads want scratch
#: buffers of the same width
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


def test_two_threads_bounding_one_instance_get_exact_bounds():
    instance = random_instance(13, 6, seed=11)
    data = LowerBoundData(instance)
    blocks = [_random_rows(data, ROWS, seed) for seed in (1, 2)]
    # references from a private copy of the data, one thread
    reference = LowerBoundData(instance)
    expected = [
        lower_bound_batch_v2(reference, mask, release, strategy="gemm")
        for mask, release in blocks
    ]

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
    assert wrong == [0, 0], f"bounds corrupted by a concurrent launch: {wrong}"
