"""Checkpoint overhead: periodic frontier snapshots must stay under 5%.

Fault tolerance is only free if nobody pays for it while nothing crashes.
This module runs the identical node-budgeted sequential search over a
Taillard 20x10 instance twice — once bare, once writing a frontier
snapshot (:mod:`repro.bb.snapshot`) every ``CHECKPOINT_EVERY`` steps —
and asserts

* the two runs explore the **bit-identical** tree (every non-timing
  counter equal: checkpointing observes the search, it never steers it);
* the checkpointed run's node throughput is within
  ``OVERHEAD_CEILING`` (5%) of the bare run: the median overhead of
  paired rounds, each a bare and a checkpointed run back to back, the
  side that runs first alternating from round to round (each side's best
  wall failed the ceiling on noise: 2.43% / 3.13% / 13.53% in three runs
  of one tree);
* the final snapshot on disk round-trips through ``load_header`` (the
  artifact a crash would actually resume from is well-formed).

Next to the overhead it reports the wall the checkpointed run spent inside
``save_snapshot`` (write + fsync + rename) and the overhead left without
it, so a failed ceiling shows whether the disk or the checkpoint code paid.

Runable three ways::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py                 # full
    PYTHONPATH=src python benchmarks/bench_checkpoint.py --smoke --json out.json
    PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.bb import sequential
from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.snapshot import load_header, save_snapshot
from repro.flowshop.taillard import taillard_instance

OVERHEAD_CEILING = 0.05
#: snapshot cadence in driver steps — frequent enough that a smoke run
#: writes several checkpoints, sparse enough to model production cadence
CHECKPOINT_EVERY = 5_000
#: non-timing SearchStats fields that must match bit-for-bit
COUNTERS = (
    "nodes_bounded",
    "nodes_branched",
    "nodes_pruned",
    "leaves_evaluated",
    "incumbent_updates",
    "pools_evaluated",
    "max_pool_size",
)


def _run(instance, max_nodes: int, checkpoint_path=None):
    """One budgeted solve; returns (result, wall_seconds, save_walls).

    ``save_walls`` lists the seconds each ``save_snapshot`` call took.

    Depth-first on purpose: snapshot cost scales with the *live* frontier,
    and depth-first keeps it bounded (~n_jobs deep) — the configuration a
    long fault-tolerant run actually uses.  Best-first grows the frontier
    without bound, so its snapshots measure memory pressure, not the
    checkpoint machinery.
    """
    engine = SequentialBranchAndBound(
        instance,
        selection="depth-first",
        max_nodes=max_nodes,
        checkpoint_path=checkpoint_path,
        checkpoint_every=CHECKPOINT_EVERY if checkpoint_path is not None else None,
    )
    save_walls: list[float] = []

    def timed_save(path, blob):
        begin = time.perf_counter()
        try:
            return save_snapshot(path, blob)
        finally:
            save_walls.append(time.perf_counter() - begin)

    sequential.save_snapshot = timed_save
    try:
        start = time.perf_counter()
        result = engine.solve()
        wall = time.perf_counter() - start
    finally:
        sequential.save_snapshot = save_snapshot
    return result, wall, save_walls


def measure(max_nodes: int, repeats: int) -> dict:
    """Bare-vs-checkpointed throughput plus tree-identity checks.

    Each of the ``repeats`` rounds runs the bare and the checkpointed solve
    back to back, the bare one first in even rounds; the overhead is the
    median of the rounds' overheads, so a slow moment of the host weighs
    on one round, not on one side.
    """
    instance = taillard_instance(20, 10, index=1)

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "bench.ckpt"
        bare_walls, ckpt_walls, ckpt_saves = [], [], []
        bare_result = ckpt_result = None
        for round_ in range(repeats):
            for checkpointed in (False, True) if round_ % 2 == 0 else (True, False):
                if checkpointed:
                    ckpt_result, wall, saves = _run(
                        instance, max_nodes, checkpoint_path=snapshot_path
                    )
                    ckpt_walls.append(wall)
                    ckpt_saves.append(saves)
                else:
                    bare_result, wall, _ = _run(instance, max_nodes)
                    bare_walls.append(wall)

        for counter in COUNTERS:
            bare, ckpt = getattr(bare_result.stats, counter), getattr(ckpt_result.stats, counter)
            assert bare == ckpt, f"checkpointing changed the search: {counter} {bare} != {ckpt}"
        assert (bare_result.best_makespan, bare_result.best_order) == (
            ckpt_result.best_makespan,
            ckpt_result.best_order,
        ), "checkpointing changed the incumbent"

        header = load_header(snapshot_path)  # the crash artifact must be resumable

    # both runs of a round bound the same nodes, so a round's overhead in
    # throughput is 1 - bare wall / checkpointed wall
    overheads = [1.0 - bare / ckpt for bare, ckpt in zip(bare_walls, ckpt_walls)]
    median_round = overheads.index(statistics.median_low(overheads))
    bare_wall, ckpt_wall = bare_walls[median_round], ckpt_walls[median_round]
    bare_rate = bare_result.stats.nodes_bounded / bare_wall
    ckpt_rate = ckpt_result.stats.nodes_bounded / ckpt_wall
    overhead = max(0.0, statistics.median(overheads))
    # the saves of the median round's checkpointed run, and every save's range
    round_saves = ckpt_saves[median_round]
    save_s = sum(round_saves)
    every_save = [wall for saves in ckpt_saves for wall in saves]

    return {
        "instance": instance.name or "ta20x10",
        "max_nodes": max_nodes,
        "repeats": repeats,
        "checkpoint_every": CHECKPOINT_EVERY,
        "nodes_bounded": bare_result.stats.nodes_bounded,
        "bare_wall_s": bare_wall,
        "checkpointed_wall_s": ckpt_wall,
        "bare_nodes_per_s": bare_rate,
        "checkpointed_nodes_per_s": ckpt_rate,
        "overhead": overhead,
        "round_overheads": overheads,
        "overhead_ceiling": OVERHEAD_CEILING,
        "checkpointed_save_s": save_s,
        "saves_per_run": len(round_saves),
        "save_s_min": min(every_save, default=0.0),
        "save_s_max": max(every_save, default=0.0),
        "overhead_without_saves": max(0.0, 1.0 - bare_wall / (ckpt_wall - save_s)),
        "snapshot_format_version": header["format_version"],
        "proved_optimal": bool(bare_result.proved_optimal),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: smaller node budget, same assertions",
    )
    parser.add_argument("--json", help="write the results to this path as JSON")
    args = parser.parse_args(argv)

    results = measure(max_nodes=24_000 if args.smoke else 96_000, repeats=7)
    results["smoke"] = args.smoke

    print(f"instance             : {results['instance']} "
          f"({results['nodes_bounded']} nodes bounded, budget {results['max_nodes']})")
    print(f"checkpoint cadence   : every {results['checkpoint_every']} steps "
          f"(snapshot format v{results['snapshot_format_version']})")
    print(f"bare throughput      : {results['bare_nodes_per_s']:,.0f} nodes/s "
          f"(median round of {results['repeats']})")
    print(f"checkpointed         : {results['checkpointed_nodes_per_s']:,.0f} nodes/s")
    print(f"overhead             : {results['overhead'] * 100:.2f}% "
          f"(ceiling {OVERHEAD_CEILING * 100:.0f}%; median of the rounds' "
          + " / ".join(f"{o * 100:.1f}%" for o in results["round_overheads"])
          + ")")
    print(f"inside save_snapshot : {results['checkpointed_save_s'] * 1e3:.2f} ms in "
          f"{results['saves_per_run']} call(s) of the checkpointed run (write + fsync; "
          f"one call took {results['save_s_min'] * 1e3:.2f}-"
          f"{results['save_s_max'] * 1e3:.2f} ms over all runs)")
    print(f"overhead less saves  : {results['overhead_without_saves'] * 100:.2f}%")
    print("tree identity        : all non-timing counters bit-identical")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"results written to {args.json}")

    assert results["overhead"] <= OVERHEAD_CEILING, (
        f"checkpoint overhead {results['overhead'] * 100:.2f}% exceeds the "
        f"{OVERHEAD_CEILING * 100:.0f}% ceiling"
    )
    return 0


# --------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------- #
def test_bare_search_throughput(benchmark):
    instance = taillard_instance(20, 10, index=1)
    result, _, _ = benchmark(lambda: _run(instance, max_nodes=4_000))
    assert result.stats.nodes_bounded > 0


def test_checkpoint_overhead_ceiling(benchmark):
    results = benchmark(lambda: measure(max_nodes=4_000, repeats=1))
    assert results["overhead"] <= OVERHEAD_CEILING * 3  # looser under profiling


if __name__ == "__main__":
    sys.exit(main())
