"""SearchDriver overhead: block-layout sequential solve vs the pre-driver loop.

The driver refactor collapsed the eight per-engine solve loops into the one
canonical iteration of :class:`repro.bb.driver.SearchDriver`.  Its contract
is *zero semantic drift* (bit-identical trees, pinned by
``tests/test_driver.py``) and *near-zero mechanical overhead*: the hook
checks and the indirection through the offload backend must not slow the
hottest engine down.

This benchmark keeps a verbatim copy of the pre-refactor block-layout
sequential loop (``_solve_block`` as it existed before ``bb/driver.py``)
and measures end-to-end nodes/s of both implementations on a Taillard
20x10 instance.  It asserts

* identical ``best_makespan`` and identical ``nodes_bounded`` /
  ``nodes_branched`` / ``nodes_pruned`` counters (same tree, node for node);
* driver throughput within 5 % of the legacy loop
  (``DRIVER_FLOOR = 0.95``) in full mode; smoke mode (CI shared runners)
  relaxes the floor to 0.75 so only catastrophic regressions fail the job.

Runable three ways::

    PYTHONPATH=src python benchmarks/bench_driver.py                 # full, 5% floor
    PYTHONPATH=src python benchmarks/bench_driver.py --smoke --json out.json
    PYTHONPATH=src python -m pytest benchmarks/bench_driver.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.bb.frontier import (
    BlockFrontier,
    Trail,
    bound_block,
    branch_block,
    branch_row,
    leaf_improvements,
    root_block,
)
from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.stats import SearchStats
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.neh import neh_heuristic
from repro.flowshop.taillard import taillard_instance

#: driver nodes/s must stay within 5% of the pre-refactor loop
DRIVER_FLOOR = 0.95
SMOKE_FLOOR = 0.75
FULL_BUDGET = 3000
SMOKE_BUDGET = 600


def legacy_solve_block(instance, max_nodes):
    """The pre-driver ``SequentialBranchAndBound._solve_block``, verbatim.

    Frozen at the commit that introduced ``bb/driver.py`` so the driver's
    mechanical overhead stays measurable against the loop it replaced.
    Only the engine scaffolding (NEH seeding, result packaging) is inlined;
    the loop body is untouched.
    """
    data = LowerBoundData(instance)
    n_jobs = instance.n_jobs
    pt = instance.processing_times
    stats = SearchStats()

    heuristic = neh_heuristic(instance)
    upper_bound = float(heuristic.makespan)
    stats.incumbent_updates += 1
    best_trail = None

    trail = Trail()
    frontier = BlockFrontier(n_jobs, instance.n_machines, trail, strategy="best-first")
    root = root_block(instance, trail)
    next_order = 1
    perf_counter = time.perf_counter

    start = time.perf_counter()
    t0 = time.perf_counter()
    bound_block(data, root, kernel="v2")
    stats.time_bounding_s += time.perf_counter() - t0
    stats.nodes_bounded += 1
    frontier.push_block(root)

    use_batches = True
    completed = True
    while frontier:
        if max_nodes is not None and stats.nodes_explored >= max_nodes:
            completed = False
            break

        if use_batches:
            remaining = max_nodes - stats.nodes_explored if max_nodes is not None else None
            t0 = perf_counter()
            batch = frontier.pop_min_tie_batch(remaining)
            stats.time_pool_s += perf_counter() - t0
            if batch is None:
                use_batches = False
            else:
                k = len(batch)
                lb0 = int(batch.lower_bound[0])
                depth0 = int(batch.depth[0])
                if lb0 >= upper_bound:
                    stats.nodes_pruned += k
                    continue
                if depth0 == n_jobs:
                    stats.leaves_evaluated += 1
                    upper_bound = float(lb0)
                    best_trail = int(batch.trail_id[0])
                    stats.incumbent_updates += 1
                    stats.nodes_branched += 1
                    stats.nodes_pruned += k - 1
                    continue
                if depth0 + 1 == n_jobs:
                    for i in range(k):
                        if lb0 >= upper_bound:
                            stats.nodes_pruned += 1
                            continue
                        t0 = perf_counter()
                        children = branch_row(
                            batch.scheduled_mask[i],
                            batch.release[i],
                            depth0,
                            int(batch.trail_id[i]),
                            trail,
                            pt,
                            next_order,
                        )
                        stats.time_branching_s += perf_counter() - t0
                        next_order += len(children)
                        stats.nodes_branched += 1
                        t0 = perf_counter()
                        bound_block(data, children, kernel="v2", siblings=True)
                        stats.time_bounding_s += perf_counter() - t0
                        n_children = len(children)
                        stats.nodes_bounded += n_children
                        stats.leaves_evaluated += n_children
                        makespans = children.makespans
                        improving, _ = leaf_improvements(upper_bound, makespans)
                        for j in improving:
                            makespan = int(makespans[j])
                            upper_bound = float(makespan)
                            best_trail = int(children.trail_id[j])
                            stats.incumbent_updates += 1
                    continue

                t0 = perf_counter()
                if k == 1:
                    children = branch_row(
                        batch.scheduled_mask[0],
                        batch.release[0],
                        depth0,
                        int(batch.trail_id[0]),
                        trail,
                        pt,
                        next_order,
                    )
                else:
                    children = branch_block(batch, pt, next_order)
                stats.time_branching_s += perf_counter() - t0
                next_order += len(children)
                stats.nodes_branched += k
                t0 = perf_counter()
                bound_block(data, children, kernel="v2", siblings=k == 1)
                stats.time_bounding_s += perf_counter() - t0
                n_children = len(children)
                stats.nodes_bounded += n_children
                keep = children.lower_bound < upper_bound
                pruned = n_children - int(np.count_nonzero(keep))
                stats.nodes_pruned += pruned
                if pruned and k > 1:
                    per_member = n_jobs - depth0
                    kept_per = np.add.reduceat(keep, np.arange(0, k * per_member, per_member))
                    sizes = len(frontier) + (k - 1 - np.arange(k)) + np.cumsum(kept_per)
                    populated = kept_per > 0
                    if populated.any():
                        frontier.record_size_hint(int(sizes[populated].max()))
                t0 = perf_counter()
                frontier.push_block(children, keep if pruned else None)
                stats.time_pool_s += perf_counter() - t0
                continue

        t0 = perf_counter()
        row = frontier.peek_best()
        node_lb, node_depth, _, node_tid, mask_view, release_view = frontier.row_view(row)
        stats.time_pool_s += perf_counter() - t0

        if node_lb >= upper_bound:
            frontier.discard(row)
            stats.nodes_pruned += 1
            continue

        if node_depth == n_jobs:
            makespan = int(release_view[-1])
            frontier.discard(row)
            stats.leaves_evaluated += 1
            if makespan < upper_bound:
                upper_bound = float(makespan)
                best_trail = node_tid
                stats.incumbent_updates += 1
            stats.nodes_branched += 1
            continue

        t0 = perf_counter()
        children = branch_row(mask_view, release_view, node_depth, node_tid, trail, pt, next_order)
        frontier.discard(row)
        stats.time_branching_s += perf_counter() - t0
        next_order += len(children)
        stats.nodes_branched += 1

        t0 = perf_counter()
        bound_block(data, children, kernel="v2", siblings=True)
        stats.time_bounding_s += perf_counter() - t0
        n_children = len(children)
        stats.nodes_bounded += n_children

        if node_depth + 1 == n_jobs:
            stats.leaves_evaluated += n_children
            makespans = children.makespans
            improving, _ = leaf_improvements(upper_bound, makespans)
            for i in improving:
                makespan = int(makespans[i])
                upper_bound = float(makespan)
                best_trail = int(children.trail_id[i])
                stats.incumbent_updates += 1
            continue

        keep = children.lower_bound < upper_bound
        pruned = n_children - int(np.count_nonzero(keep))
        stats.nodes_pruned += pruned
        t0 = perf_counter()
        frontier.push_block(children, keep if pruned else None)
        stats.time_pool_s += perf_counter() - t0

    stats.time_total_s = time.perf_counter() - start
    stats.max_pool_size = frontier.max_size_seen
    del best_trail, completed
    return int(upper_bound), stats


def run_driver(instance, max_nodes):
    result = SequentialBranchAndBound(instance, max_nodes=max_nodes).solve()
    return result.best_makespan, result.stats


def measure(instance, max_nodes: int, repeats: int) -> dict:
    """Interleaved best-of-``repeats`` nodes/s of both implementations."""
    for runner in (legacy_solve_block, run_driver):  # warm the kernels / caches
        runner(instance, min(300, max_nodes))
    best: dict[str, tuple] = {}
    for _ in range(repeats):
        for name, runner in (("legacy", legacy_solve_block), ("driver", run_driver)):
            makespan, stats = runner(instance, max_nodes)
            record = best.get(name)
            if record is None or stats.time_total_s < record[1].time_total_s:
                best[name] = (makespan, stats)
    legacy_makespan, legacy_stats = best["legacy"]
    driver_makespan, driver_stats = best["driver"]

    assert driver_makespan == legacy_makespan, "driver diverged from the pre-refactor loop"
    for field in ("nodes_bounded", "nodes_branched", "nodes_pruned"):
        a, b = getattr(legacy_stats, field), getattr(driver_stats, field)
        assert a == b, f"{field} diverged: legacy={a} driver={b}"

    legacy_nps = legacy_stats.nodes_bounded / legacy_stats.time_total_s
    driver_nps = driver_stats.nodes_bounded / driver_stats.time_total_s
    return {
        "instance": instance.name or f"{instance.n_jobs}x{instance.n_machines}",
        "max_nodes": max_nodes,
        "best_makespan": legacy_makespan,
        "nodes_bounded": legacy_stats.nodes_bounded,
        "legacy_nodes_per_s": legacy_nps,
        "driver_nodes_per_s": driver_nps,
        "legacy_time_s": legacy_stats.time_total_s,
        "driver_time_s": driver_stats.time_total_s,
        "driver_over_legacy": driver_nps / legacy_nps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small budget and relaxed floor (CI smoke mode on noisy shared runners)",
    )
    parser.add_argument("--json", help="write the results to this path as JSON")
    args = parser.parse_args(argv)

    instance = taillard_instance(20, 10, index=1)
    budget = SMOKE_BUDGET if args.smoke else FULL_BUDGET
    repeats = 3 if args.smoke else 5

    results = measure(instance, budget, repeats)
    floor = SMOKE_FLOOR if args.smoke else DRIVER_FLOOR
    results["smoke"] = args.smoke
    results["floor"] = floor

    print(f"instance          : {results['instance']} (budget {budget} nodes)")
    print(f"best makespan     : {results['best_makespan']} (identical in both loops)")
    print(f"nodes bounded     : {results['nodes_bounded']} (identical in both loops)")
    print(f"legacy loop       : {results['legacy_nodes_per_s']:10.0f} nodes/s")
    print(f"driver            : {results['driver_nodes_per_s']:10.0f} nodes/s")
    print(f"driver/legacy     : {results['driver_over_legacy']:.3f}x (floor {floor:.2f}x)")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"results written to {args.json}")

    assert results["driver_over_legacy"] >= floor, (
        f"driver throughput {results['driver_over_legacy']:.3f}x of the pre-refactor "
        f"loop is below the {floor:.2f}x floor"
    )
    return 0


# --------------------------------------------------------------------- #
# pytest-benchmark entry points (same measurements, one loop per test)
# --------------------------------------------------------------------- #
def test_legacy_loop_throughput(benchmark):
    instance = taillard_instance(20, 10, index=1)
    makespan, stats = benchmark(lambda: legacy_solve_block(instance, SMOKE_BUDGET))
    assert stats.nodes_bounded > 0


def test_driver_throughput(benchmark):
    instance = taillard_instance(20, 10, index=1)
    makespan, stats = benchmark(lambda: run_driver(instance, SMOKE_BUDGET))
    assert stats.nodes_bounded > 0


def test_driver_explores_identical_tree(benchmark):
    instance = taillard_instance(20, 10, index=1)
    legacy_makespan, legacy_stats = legacy_solve_block(instance, SMOKE_BUDGET)
    makespan, stats = benchmark(lambda: run_driver(instance, SMOKE_BUDGET))
    assert makespan == legacy_makespan
    assert stats.nodes_bounded == legacy_stats.nodes_bounded
    assert stats.nodes_branched == legacy_stats.nodes_branched
    assert stats.nodes_pruned == legacy_stats.nodes_pruned


if __name__ == "__main__":
    sys.exit(main())
