"""Segmented min-key frontier index vs linear scans: selection throughput.

With bounding offloaded and amortized, frontier *selection* is the next
serial bottleneck of the block layout: every best-first pop is an
``np.argmin`` over the packed key column and every batch selection an
``argpartition`` over the whole store — O(pending) per operation, which
dominates the iteration at 10^5–10^6 pending nodes.  The segmented index
of :class:`~repro.bb.frontier.BlockFrontier` caches per-4096-row-segment
key minima and refreshes them lazily, so a steady-state pop touches a
couple of segments plus ~n/4096 cached minima instead of all n rows.  The
"linear" baseline is the same store built with ``segment_shift=24``: one
segment spans the whole store, so every query scans the key column
directly.

This module builds synthetic frontiers at 10^5–10^6 pending nodes, drives
the three selection workloads of the search loop —

* single-pop selection (``peek_best`` → ``discard``; the gated metric —
  pure selection ops, no harness dilution),
* the full single-step cycle (pop + push children; informational),
* batch selection (``pop_batch``, the ``_best_prefix`` path),
* tie-run extraction (``pop_min_tie_batch``),

— identically on the segmented store and its one-segment "linear" twin,
and asserts

* both index kinds pop the identical node sequence (selection is
  bit-identical; the packed key embeds the creation-index tie-break, so
  argmin is unambiguous) — asserted in every mode;
* a >= ``SPEEDUP_FLOOR`` (3x) single-pop selection-throughput floor for
  the segmented index at >= 2*10^5 pending nodes (the pop-drain metric) — asserted in every mode
  including ``--smoke``: both sides are in-process numpy micro-kernels,
  so the *ratio* is robust even on noisy shared runners.

Runnable two ways::

    PYTHONPATH=src python benchmarks/bench_frontier_index.py                 # full: 10^6 pending
    PYTHONPATH=src python benchmarks/bench_frontier_index.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.bb.frontier import _SEG_SHIFT, BlockFrontier, NodeBlock, Trail

#: Minimum segmented/linear single-pop selection-throughput ratio (CI gate).
SPEEDUP_FLOOR = 3.0

#: Pending-store sizes: the acceptance floor is gated at >= 2*10^5 pending.
FULL_PENDING = 1_000_000
SMOKE_PENDING = 200_000

N_JOBS = 20
N_MACHINES = 10

#: ``segment_shift`` of each side: the production 4096-row segments, and
#: one 2**24-row segment spanning the whole store (the linear scan).
SEGMENT_SHIFT = {"segmented": _SEG_SHIFT, "linear": 24}

#: Children pushed back per single-step pop (keeps the store near steady
#: state, like a real search whose eliminations roughly balance branching).
CHILDREN_PER_POP = 8


def _block(frontier: BlockFrontier, lb, depth, first_id: int) -> NodeBlock:
    """A synthetic bounded block with node ids from ``first_id`` (mask/release
    contents never drive selection)."""
    count = lb.shape[0]
    return NodeBlock(
        mask_bits=np.zeros((count, (N_JOBS + 7) // 8), dtype=np.uint8),
        release=np.zeros((count, N_MACHINES), dtype=np.int32),
        lower_bound=np.asarray(lb, dtype=np.int32),
        depth=np.asarray(depth, dtype=np.int32),
        trail_id=np.arange(first_id, first_id + count, dtype=np.int32),
        trail=frontier._trail,
        n_jobs=N_JOBS,
    )


def build_frontier(kind: str, pending: int, seed: int) -> tuple[BlockFrontier, int]:
    """A frontier holding ``pending`` synthetic nodes (identical per seed)."""
    rng = np.random.default_rng(seed)
    frontier = BlockFrontier(N_JOBS, N_MACHINES, Trail(), segment_shift=SEGMENT_SHIFT[kind])
    next_id = 0
    while len(frontier) < pending:
        count = min(8192, pending - len(frontier))
        lb = rng.integers(500, 4000, size=count)
        depth = rng.integers(1, N_JOBS, size=count)
        frontier.push_block(_block(frontier, lb, depth, next_id))
        next_id += count
    return frontier, next_id


def measure_pop_drain(
    frontier: BlockFrontier, drains: int
) -> tuple[float, int]:
    """The gated metric: consecutive best-first pops, nothing else timed.

    ``peek_best`` + ``discard`` is exactly the selection half of the
    single-step loop; pushes are excluded so the measured ratio is the
    selection data structure's, not the benchmark harness's.
    """
    id_column = frontier._tid
    checksum = 0
    t0 = time.perf_counter()
    for _ in range(drains):
        row = frontier.peek_best()
        checksum = (checksum * 1_000_003 + int(id_column[row])) % (1 << 61)
        frontier.discard(row)
    elapsed = time.perf_counter() - t0
    return elapsed, checksum


def measure_pop_cycle(
    frontier: BlockFrontier, first_id: int, cycles: int, seed: int
) -> tuple[float, int, int]:
    """Steady-state single-step loop: pop best, push children.

    Returns ``(elapsed_s, popped_checksum, next_id)``; the checksum is a
    deterministic digest of the popped node sequence, compared across index
    kinds to prove bit-identical selection.
    """
    rng = np.random.default_rng(seed)
    next_id = first_id
    checksum = 0
    t0 = time.perf_counter()
    for _ in range(cycles):
        row = frontier.peek_best()
        lb, depth, tid, _mask, _release = frontier.row_view(row)
        checksum = (checksum * 1_000_003 + tid) % (1 << 61)
        frontier.discard(row)
        child_lb = lb + rng.integers(0, 6, size=CHILDREN_PER_POP)
        child_depth = np.full(CHILDREN_PER_POP, min(depth + 1, N_JOBS - 1))
        frontier.push_block(_block(frontier, child_lb, child_depth, next_id))
        next_id += CHILDREN_PER_POP
    elapsed = time.perf_counter() - t0
    return elapsed, checksum, next_id


def measure_pop_batch(frontier: BlockFrontier, rounds: int, batch: int) -> tuple[float, int]:
    """Batch-shape selection: ``pop_batch`` + push the block back (steady state)."""
    checksum = 0
    t0 = time.perf_counter()
    for _ in range(rounds):
        block, _pruned = frontier.pop_batch(batch)
        checksum = (checksum * 1_000_003 + int(block.trail_id[0])) % (1 << 61)
        frontier.push_block(block)
    elapsed = time.perf_counter() - t0
    return elapsed, checksum


def measure_tie_batch(frontier: BlockFrontier, rounds: int) -> tuple[float, int]:
    """Tie-run extraction: ``pop_min_tie_batch`` + push the run back."""
    checksum = 0
    t0 = time.perf_counter()
    for _ in range(rounds):
        block = frontier.pop_min_tie_batch(1 << 30)
        assert block is not None
        checksum = (
            checksum * 1_000_003 + int(block.trail_id.sum()) + len(block)
        ) % (1 << 61)
        frontier.push_block(block)
    elapsed = time.perf_counter() - t0
    return elapsed, checksum


def measure(pending: int, cycles: int, batch_rounds: int, tie_rounds: int, seed: int) -> dict:
    """Drive the identical workload under both index kinds and compare."""
    results: dict[str, dict] = {}
    checks: dict[str, tuple] = {}
    for kind in ("linear", "segmented"):
        frontier, next_id = build_frontier(kind, pending, seed)
        # warm up (first refresh builds every segment cache)
        frontier.peek_best()
        drain_s, drain_sum = measure_pop_drain(frontier, cycles)
        # refill to steady state (untimed, identical nodes per seed)
        rng = np.random.default_rng(seed + 2)
        frontier.push_block(
            _block(
                frontier,
                rng.integers(500, 4000, size=cycles),
                rng.integers(1, N_JOBS, size=cycles),
                next_id,
            )
        )
        next_id += cycles
        cycle_s, cycle_sum, next_id = measure_pop_cycle(frontier, next_id, cycles, seed + 1)
        batch_s, batch_sum = measure_pop_batch(frontier, batch_rounds, 512)
        tie_s, tie_sum = measure_tie_batch(frontier, tie_rounds)
        results[kind] = {
            "pops_per_s": cycles / drain_s,
            "pop_cycles_per_s": cycles / cycle_s,
            "pop_batch_rounds_per_s": batch_rounds / batch_s,
            "tie_batch_rounds_per_s": tie_rounds / tie_s,
        }
        checks[kind] = (drain_sum, cycle_sum, batch_sum, tie_sum, len(frontier))
    assert checks["linear"] == checks["segmented"], (
        "segmented and linear indexes diverged: "
        f"linear={checks['linear']} segmented={checks['segmented']}"
    )
    return {
        "pending": pending,
        "cycles": cycles,
        "linear": results["linear"],
        "segmented": results["segmented"],
        "speedup_pop": results["segmented"]["pops_per_s"]
        / results["linear"]["pops_per_s"],
        "speedup_cycle": results["segmented"]["pop_cycles_per_s"]
        / results["linear"]["pop_cycles_per_s"],
        "speedup_batch": results["segmented"]["pop_batch_rounds_per_s"]
        / results["linear"]["pop_batch_rounds_per_s"],
        "speedup_tie": results["segmented"]["tie_batch_rounds_per_s"]
        / results["linear"]["tie_batch_rounds_per_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="2*10^5 pending and fewer repetitions (CI smoke mode); the "
        "speed-up floor and the bit-identity checksums are still asserted",
    )
    parser.add_argument("--json", help="write the results to this path as JSON")
    args = parser.parse_args(argv)

    pending = SMOKE_PENDING if args.smoke else FULL_PENDING
    cycles = 300 if args.smoke else 1000
    batch_rounds = 20 if args.smoke else 50
    tie_rounds = 30 if args.smoke else 80

    results = measure(pending, cycles, batch_rounds, tie_rounds, seed=7)
    results["bench"] = "frontier_index"
    results["smoke"] = args.smoke
    results["speedup_floor"] = SPEEDUP_FLOOR

    print(f"pending nodes        : {pending}")
    for kind in ("linear", "segmented"):
        r = results[kind]
        print(
            f"{kind:9s} pop={r['pops_per_s']:,.0f}/s "
            f"cycle={r['pop_cycles_per_s']:,.0f}/s "
            f"batch={r['pop_batch_rounds_per_s']:,.1f}/s "
            f"tie={r['tie_batch_rounds_per_s']:,.1f}/s"
        )
    print(
        f"speedup              : pop {results['speedup_pop']:.1f}x "
        f"(floor {SPEEDUP_FLOOR}x), cycle {results['speedup_cycle']:.1f}x, "
        f"batch {results['speedup_batch']:.1f}x, tie {results['speedup_tie']:.1f}x"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"results written to {args.json}")

    assert results["speedup_pop"] >= SPEEDUP_FLOOR, (
        f"segmented pop throughput {results['speedup_pop']:.2f}x linear "
        f"misses the {SPEEDUP_FLOOR}x floor at {pending} pending nodes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
