"""Structure-of-arrays frontier vs object nodes: sequential solve throughput.

After the bounding kernel was vectorized, Amdahl's law moved the sequential
engine's bottleneck into a pure-Python per-node pipeline: one ``Node``
dataclass per child, one heap entry per push, and a row-by-row re-pack per
bounding launch.  The block frontier (:mod:`repro.bb.frontier`) stores the
pending pool as structure-of-arrays batches — branching, selection and
elimination are array programs, bounding reads the arrays with zero
re-packing, and best-first ties are branched and bounded in one launch —
while exploring bit-for-bit the same tree.

The engines run only the block frontier.  This module keeps a frozen,
self-contained copy of the object pipeline (``object_solve``: the ``Node``
dataclass, the best-first heap pool and the single-step loop as they were
when the object layout was removed) so the ablation stays measurable, the
way ``bench_driver.py`` freezes the pre-driver loop.  It measures
end-to-end sequential solve throughput (nodes bounded per second of search
time) of both on a Taillard 20x10 instance and asserts

* both report the identical ``best_makespan`` and identical
  ``nodes_bounded`` / ``nodes_branched`` / ``nodes_pruned`` counters;
* the stats-conservation identity ``bounded == branched + pruned + leaves``
  on a fully solved instance (both implementations);
* a >= 3x nodes/s floor for the block engine over the object loop
  (skipped in ``--smoke`` mode: shared CI runners are too noisy for a hard
  wall-clock assertion).

Runable three ways::

    PYTHONPATH=src python benchmarks/bench_frontier.py                # full, asserts the floor
    PYTHONPATH=src python benchmarks/bench_frontier.py --smoke --json out.json
    PYTHONPATH=src python -m pytest benchmarks/bench_frontier.py --benchmark-only
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import sys
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.stats import SearchStats
from repro.flowshop import random_instance
from repro.flowshop.bounds import LowerBoundData, get_batch_kernel, lower_bound
from repro.flowshop.neh import neh_heuristic
from repro.flowshop.taillard import taillard_instance

SPEEDUP_FLOOR = 3.0
#: exploration budget of the throughput measurement (identical trees in both
#: implementations under the same budget, so the counters must agree exactly)
FULL_BUDGET = 3000
SMOKE_BUDGET = 600


# --------------------------------------------------------------------- #
# The frozen object pipeline: one Node per sub-problem in a heap pool
# --------------------------------------------------------------------- #
def advance_release(release: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Release times after appending one job, frozen: ``cumsum`` + ``cummax``.

    ``F' = csum + cummax(F - (csum - t))`` with ``csum`` the job's inclusive
    cumulative times, as the object layout computed it; frozen here so
    that the baseline does not speed up with the library's machine scan.
    """
    csum = np.cumsum(times, axis=-1, dtype=release.dtype)
    front = np.subtract(release, csum)
    front += times
    np.maximum.accumulate(front, axis=-1, out=front)
    front += csum
    return front


@dataclass
class Node:
    """One sub-problem: scheduled prefix, release times, bound, creation index."""

    prefix: tuple[int, ...]
    release: np.ndarray
    n_jobs: int
    lower_bound: Optional[int] = None
    makespan: Optional[int] = None
    order_index: int = 0
    counter: Optional[Iterator[int]] = None

    def __post_init__(self) -> None:
        self.release = np.asarray(self.release, dtype=np.int64)
        if len(self.prefix) > self.n_jobs:
            raise ValueError("prefix longer than the number of jobs")

    @property
    def depth(self) -> int:
        return len(self.prefix)

    @property
    def is_leaf(self) -> bool:
        return self.depth == self.n_jobs

    def child(self, job: int, processing_times: np.ndarray) -> "Node":
        if job in self.prefix:
            raise ValueError(f"job {job} already scheduled in this node")
        release = advance_release(self.release, processing_times[job])
        child = Node(
            prefix=self.prefix + (int(job),),
            release=release,
            n_jobs=self.n_jobs,
            order_index=next(self.counter),
            counter=self.counter,
        )
        if child.is_leaf:
            child.makespan = int(release[-1])
            child.lower_bound = child.makespan
        return child

    def children(self, processing_times: np.ndarray) -> list["Node"]:
        fixed = set(self.prefix)
        unscheduled = [j for j in range(self.n_jobs) if j not in fixed]
        return [self.child(job, processing_times) for job in unscheduled]

    def sort_key(self) -> tuple[int, int, int]:
        lb = self.lower_bound if self.lower_bound is not None else 0
        return (int(lb), self.depth, self.order_index)


class BestFirstPool:
    """Binary heap keyed by ``(lower bound, depth, creation index)``."""

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[int, int, int], Node]] = []
        self.max_size_seen = 0

    def push(self, node: Node) -> None:
        heapq.heappush(self._heap, (node.sort_key(), node))
        if len(self._heap) > self.max_size_seen:
            self.max_size_seen = len(self._heap)

    def pop(self) -> Node:
        return heapq.heappop(self._heap)[1]

    def __len__(self) -> int:
        return len(self._heap)


def bound_children(children: list[Node], data: LowerBoundData) -> None:
    """Re-pack the unbounded siblings row by row and bound them in one launch."""
    pending = [child for child in children if child.lower_bound is None]
    if not pending:
        return
    mask = np.zeros((len(pending), data.n_jobs), dtype=bool)
    release = np.zeros((len(pending), data.n_machines), dtype=np.int64)
    for i, node in enumerate(pending):
        if node.prefix:
            mask[i, np.asarray(node.prefix, dtype=np.int64)] = True
        release[i] = node.release
    values = get_batch_kernel("v2")(data, mask, release)
    for node, value in zip(pending, values):
        node.lower_bound = int(value)


def object_solve(instance, max_nodes: Optional[int]):
    """The object-layout serial solve (NEH seed, best-first, single-step loop).

    Returns ``(best_makespan, proved_optimal, stats)`` with the same
    counters and ``time_total_s`` (search time, NEH excluded) as
    :class:`~repro.bb.sequential.SequentialBranchAndBound`.
    """
    data = LowerBoundData(instance)
    pt = instance.processing_times
    stats = SearchStats()
    upper_bound = float(neh_heuristic(instance).makespan)
    stats.incumbent_updates += 1

    perf_counter = time.perf_counter
    start = perf_counter()
    pool = BestFirstPool()
    root = Node(
        prefix=(),
        release=np.zeros(instance.n_machines, dtype=np.int64),
        n_jobs=instance.n_jobs,
        counter=itertools.count(1),
    )
    t0 = perf_counter()
    root.lower_bound = int(lower_bound(data, root.prefix, release=root.release))
    stats.time_bounding_s += perf_counter() - t0
    stats.nodes_bounded += 1
    pool.push(root)

    completed = True
    while pool:
        if max_nodes is not None and stats.nodes_explored >= max_nodes:
            completed = False
            break
        t0 = perf_counter()
        node = pool.pop()
        stats.time_pool_s += perf_counter() - t0

        if node.lower_bound >= upper_bound:
            stats.nodes_pruned += 1
            continue
        if node.is_leaf:
            stats.leaves_evaluated += 1
            if node.release[-1] < upper_bound:
                upper_bound = float(node.release[-1])
                stats.incumbent_updates += 1
            stats.nodes_branched += 1
            continue

        t0 = perf_counter()
        children = node.children(pt)
        stats.time_branching_s += perf_counter() - t0
        stats.nodes_branched += 1

        t0 = perf_counter()
        bound_children(children, data)
        stats.time_bounding_s += perf_counter() - t0
        stats.nodes_bounded += len(children)
        survivors = []
        for child in children:
            if child.is_leaf:
                stats.leaves_evaluated += 1
                makespan = int(child.release[-1])
                if makespan < upper_bound:
                    upper_bound = float(makespan)
                    stats.incumbent_updates += 1
                continue
            if child.lower_bound >= upper_bound:
                stats.nodes_pruned += 1
                continue
            survivors.append(child)

        t0 = perf_counter()
        for child in survivors:
            pool.push(child)
        stats.time_pool_s += perf_counter() - t0

    stats.time_total_s = perf_counter() - start
    stats.max_pool_size = pool.max_size_seen
    return int(upper_bound), completed, stats


# --------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------- #
def run_once(instance, layout: str, max_nodes: int | None):
    """One solve: ``(best_makespan, proved_optimal, stats)``."""
    if layout == "object":
        return object_solve(instance, max_nodes)
    result = SequentialBranchAndBound(instance, max_nodes=max_nodes).solve()
    return result.best_makespan, result.proved_optimal, result.stats


def measure(instance, max_nodes: int, repeats: int) -> dict:
    """Interleaved best-of-``repeats`` throughput of both implementations.

    The denominator is ``stats.time_total_s`` — the search loop proper —
    so the (identical, search-independent) NEH seeding cost does not dilute
    the layout comparison.
    """
    for layout in ("object", "block"):  # warm the kernels / caches
        run_once(instance, layout, min(300, max_nodes))
    best: dict[str, tuple] = {}
    for _ in range(repeats):
        for layout in ("object", "block"):
            run = run_once(instance, layout, max_nodes)
            record = best.get(layout)
            if record is None or run[2].time_total_s < record[2].time_total_s:
                best[layout] = run
    (obj_makespan, _, obj), (blk_makespan, _, blk) = best["object"], best["block"]

    for field in ("nodes_bounded", "nodes_branched", "nodes_pruned"):
        a, b = getattr(obj, field), getattr(blk, field)
        assert a == b, f"{field} diverged between layouts: object={a} block={b}"
    assert obj_makespan == blk_makespan, "best_makespan diverged between layouts"

    def throughput(stats):
        return stats.nodes_bounded / stats.time_total_s

    return {
        "instance": instance.name or f"{instance.n_jobs}x{instance.n_machines}",
        "max_nodes": max_nodes,
        "best_makespan": obj_makespan,
        "nodes_bounded": obj.nodes_bounded,
        "nodes_branched": obj.nodes_branched,
        "nodes_pruned": obj.nodes_pruned,
        "object_nodes_per_s": throughput(obj),
        "block_nodes_per_s": throughput(blk),
        "object_time_s": obj.time_total_s,
        "block_time_s": blk.time_total_s,
        "speedup": obj.time_total_s / blk.time_total_s,
    }


def check_conservation(seed: int = 3) -> dict:
    """Fully solve a small instance in both layouts; check the identity."""
    instance = random_instance(10, 8, seed=seed)
    payload: dict[str, object] = {"instance": f"10x8 seed={seed}"}
    makespans = set()
    for layout in ("object", "block"):
        makespan, proved, stats = run_once(instance, layout, None)
        assert proved
        assert stats.nodes_bounded == (
            stats.nodes_branched + stats.nodes_pruned + stats.leaves_evaluated
        ), f"conservation violated in layout={layout}"
        makespans.add(makespan)
        payload[f"{layout}_nodes_bounded"] = stats.nodes_bounded
    assert len(makespans) == 1, "layouts disagree on the optimum"
    payload["best_makespan"] = makespans.pop()
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small budget, no speed-up floor assertion (CI smoke mode)",
    )
    parser.add_argument("--json", help="write the results to this path as JSON")
    args = parser.parse_args(argv)

    instance = taillard_instance(20, 10, index=1)
    budget = SMOKE_BUDGET if args.smoke else FULL_BUDGET
    repeats = 2 if args.smoke else 5

    results = measure(instance, budget, repeats)
    results["conservation"] = check_conservation()
    results["smoke"] = args.smoke
    results["speedup_floor"] = SPEEDUP_FLOOR

    print(f"instance          : {results['instance']} (budget {budget} nodes)")
    print(f"best makespan     : {results['best_makespan']} (identical in both layouts)")
    print(
        f"nodes             : bounded={results['nodes_bounded']} "
        f"branched={results['nodes_branched']} pruned={results['nodes_pruned']} "
        "(identical in both layouts)"
    )
    print(f"object layout     : {results['object_nodes_per_s']:10.0f} nodes/s (frozen loop)")
    print(f"block layout      : {results['block_nodes_per_s']:10.0f} nodes/s")
    print(f"speedup           : {results['speedup']:.2f}x (floor {SPEEDUP_FLOOR}x)")
    print(f"conservation      : ok ({results['conservation']['instance']})")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"results written to {args.json}")

    if not args.smoke:
        assert results["speedup"] >= SPEEDUP_FLOOR, (
            f"block layout speedup {results['speedup']:.2f}x is below the "
            f"{SPEEDUP_FLOOR}x floor"
        )
    return 0


# --------------------------------------------------------------------- #
# pytest-benchmark entry points (same measurements, one layout per test)
# --------------------------------------------------------------------- #
def test_object_layout_throughput(benchmark):
    instance = taillard_instance(20, 10, index=1)
    _, _, stats = benchmark(lambda: run_once(instance, "object", SMOKE_BUDGET))
    assert stats.nodes_bounded > 0


def test_block_layout_throughput(benchmark):
    instance = taillard_instance(20, 10, index=1)
    _, _, stats = benchmark(lambda: run_once(instance, "block", SMOKE_BUDGET))
    assert stats.nodes_bounded > 0


def test_layouts_explore_identical_tree(benchmark):
    instance = taillard_instance(20, 10, index=1)
    obj_makespan, _, obj = run_once(instance, "object", SMOKE_BUDGET)
    blk_makespan, _, blk = benchmark(lambda: run_once(instance, "block", SMOKE_BUDGET))
    assert obj_makespan == blk_makespan
    assert obj.nodes_bounded == blk.nodes_bounded
    assert obj.nodes_branched == blk.nodes_branched
    assert obj.nodes_pruned == blk.nodes_pruned


if __name__ == "__main__":
    sys.exit(main())
