"""Static split vs work stealing: node counts and wall time.

The static split (``repro.testing.static_split``, the ablation) solves every
sub-tree of the decomposition frontier on its own and never exchanges the
incumbent, so each sub-tree prunes against the launch-time NEH bound for
its whole lifetime; it runs them one after another, which gives the same
tree as any static mapping onto workers.  The multicore engine shares the
incumbent (compare-and-swap updates + periodic polling) and lets idle
workers steal chunks from a common queue, so pruning information
propagates and the load balances dynamically.  Both are exact; the win is
the *work avoided*: fewer nodes bounded for the same proven optimum.

Runable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_worksteal.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_worksteal.py   # self-checking report
"""

from __future__ import annotations

import time

from repro.bb.multicore import MulticoreBranchAndBound
from repro.bb.sequential import SequentialBranchAndBound
from repro.flowshop import neh_heuristic, random_instance
from repro.testing import static_split

N_WORKERS = 4
DEPTH = 2
#: 10 jobs x 5 machines with a suboptimal NEH seed (734 vs the 707 optimum),
#: so incumbent improvements exist for the workers to share.
INSTANCE_ARGS = dict(n_jobs=10, n_machines=5, seed=1)


def _engines(instance):
    """``(static split, work stealing)`` as two zero-argument solves."""
    worksteal = MulticoreBranchAndBound(
        instance, n_workers=N_WORKERS, backend="thread", decomposition_depth=DEPTH
    )
    return (lambda: static_split(instance, decomposition_depth=DEPTH)), worksteal.solve


def test_worksteal_explores_fewer_nodes_than_static(benchmark):
    instance = random_instance(**INSTANCE_ARGS)
    optimum = SequentialBranchAndBound(instance).solve().best_makespan
    static, worksteal = _engines(instance)
    static_result = static()
    ws_result = benchmark(worksteal)
    assert static_result.best_makespan == optimum
    assert ws_result.best_makespan == optimum
    assert ws_result.proved_optimal
    assert ws_result.stats.nodes_bounded < static_result.stats.nodes_bounded


def test_static_split_baseline(benchmark):
    instance = random_instance(**INSTANCE_ARGS)
    static, _ = _engines(instance)
    result = benchmark(static)
    assert result.proved_optimal


# --------------------------------------------------------------------- #
# Script mode: self-checking report
# --------------------------------------------------------------------- #
def main() -> int:
    instance = random_instance(**INSTANCE_ARGS)
    neh = neh_heuristic(instance).makespan
    serial = SequentialBranchAndBound(instance).solve()
    print(
        f"instance {instance.name or '10x5'}: optimum {serial.best_makespan}, "
        f"NEH seed {neh}, serial nodes {serial.stats.nodes_bounded}"
    )
    print(
        f"depth-{DEPTH} frontier: static split in one thread, "
        f"work stealing on {N_WORKERS} worker threads"
    )

    static, worksteal = _engines(instance)
    rows = []
    for label, solve in (("static split", static), ("work stealing", worksteal)):
        start = time.perf_counter()
        result = solve()
        wall = time.perf_counter() - start
        assert result.best_makespan == serial.best_makespan, f"{label} diverged from serial"
        rows.append((label, result.stats.nodes_bounded, result.stats.nodes_pruned, wall))
        print(
            f"  {label:<14}: {result.stats.nodes_bounded:>7} nodes bounded, "
            f"{result.stats.nodes_pruned:>7} pruned, {wall * 1e3:8.1f} ms"
        )

    static_nodes, ws_nodes = rows[0][1], rows[1][1]
    ratio = static_nodes / ws_nodes if ws_nodes else float("inf")
    print(f"  node reduction: {ratio:.2f}x fewer nodes with the shared incumbent")
    if ws_nodes >= static_nodes:
        print("FAIL: work stealing did not explore fewer nodes than the static split")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
