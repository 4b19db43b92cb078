"""The experimental protocol shared by every engine comparison.

The paper (Section IV) cannot solve the large Taillard instances to
optimality, so it adopts the protocol of Mezmaz et al. [11]: build a list
``L`` of sub-problems whose sequential resolution lasts a known time, then
initialise both the serial and the parallel B&B with exactly the same list,
so the measured ratio is a pure throughput comparison over an identical node
set.

This module provides the same facility for the reproduction:

* :func:`collect_pending_pool` — run a (budgeted) best-first B&B and return
  the pending pool once it reaches the requested size: the faithful version
  of "a random list L of sub-problems", practical for small/medium pools.
* :func:`synthetic_pool` — deterministically generate a pool of random
  partial schedules at the depth a best-first frontier of that size would
  sit at; used for the very large pools of the tables, where actually
  expanding 262 144 pending nodes in pure Python would dominate the harness
  runtime without changing what is being measured (the kernel sees the same
  array shapes and the same amount of work either way).
* :func:`estimate_frontier_depth` / :func:`estimate_remaining_jobs` — the
  depth model used by both the synthetic pools and the analytical cost
  models (deeper frontiers mean fewer remaining jobs per node, which is what
  erodes the speed-up of the small instances at very large pool sizes).
* :class:`ExperimentProtocol` — bundles the above plus the CPU/GPU cost
  models so the table harnesses share one configuration object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.bb.frontier import BlockFrontier, NodeBlock, Trail, bound_block, branch_row, root_block
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.neh import neh_heuristic
from repro.gpu.device import DeviceSpec, TESLA_C2050
from repro.gpu.simulator import KernelCostModel
from repro.perf.model import CpuCostModel

__all__ = [
    "estimate_frontier_depth",
    "estimate_remaining_jobs",
    "synthetic_pool",
    "collect_pending_pool",
    "ExperimentProtocol",
]


def estimate_frontier_depth(n_jobs: int, pool_size: int) -> int:
    """Depth at which a best-first frontier holds ``pool_size`` pending nodes.

    The number of nodes at depth ``d`` of the permutation tree is
    ``n (n-1) ... (n-d+1)``; the frontier needs to sit at (roughly) the first
    depth whose width reaches the pool size.  The estimate is exact for a
    breadth-first frontier and a good proxy for the mixed-depth best-first
    frontier the protocol actually produces.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    width = 1
    depth = 0
    while width < pool_size and depth < n_jobs:
        width *= n_jobs - depth
        depth += 1
    return depth


def estimate_remaining_jobs(n_jobs: int, pool_size: int) -> int:
    """Average number of unscheduled jobs of the nodes of such a frontier."""
    return max(1, n_jobs - estimate_frontier_depth(n_jobs, pool_size))


def synthetic_pool(
    instance: FlowShopInstance,
    pool_size: int,
    depth: Optional[int] = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pool of random partial schedules at a given depth.

    Returns the ``(scheduled_mask, release)`` device buffers directly.  The
    release times are computed with the same recurrence the nodes use, so the
    pool is indistinguishable (to the kernel) from one produced by a real
    exploration at that depth.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    n, m = instance.n_jobs, instance.n_machines
    if depth is None:
        depth = estimate_frontier_depth(n, pool_size)
    depth = int(min(max(depth, 0), n))
    rng = np.random.default_rng(seed)
    pt = instance.processing_times

    mask = np.zeros((pool_size, n), dtype=bool)
    release = np.zeros((pool_size, m), dtype=np.int64)
    if depth == 0:
        return mask, release

    # draw prefixes as the first `depth` columns of random permutations
    prefixes = np.argsort(rng.random((pool_size, n)), axis=1)[:, :depth]
    rows = np.repeat(np.arange(pool_size), depth)
    mask[rows, prefixes.reshape(-1)] = True

    # release times: apply the flow-shop recurrence position by position,
    # vectorised over the pool dimension
    for position in range(depth):
        jobs = prefixes[:, position]
        times = pt[jobs]  # (pool, m)
        prev = np.zeros(pool_size, dtype=np.int64)
        for k in range(m):
            start = np.maximum(release[:, k], prev)
            prev = start + times[:, k]
            release[:, k] = prev
    return mask, release


def collect_pending_pool(
    instance: FlowShopInstance,
    pool_size: int,
    data: Optional[LowerBoundData] = None,
    max_expansions: Optional[int] = None,
    seed: int = 0,
    upper_bound: Optional[float] = None,
) -> NodeBlock:
    """Run a budgeted best-first expansion until ``pool_size`` nodes are pending.

    This is the faithful version of the paper's list ``L``: the returned
    block's rows are genuine pending sub-problems of a best-first
    exploration seeded with the NEH incumbent (or ``upper_bound`` when
    given — pass ``float("inf")`` to disable pruning and keep every
    generated node), drained in best-first order and then shuffled with
    ``seed``.  ``max_expansions`` bounds the work (default: ``4 *
    pool_size`` branchings); if the tree is exhausted first, the pool that
    remains (possibly smaller) is returned.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    data = data if data is not None else LowerBoundData(instance)
    rng = np.random.default_rng(seed)
    if upper_bound is None:
        incumbent = float(neh_heuristic(instance).makespan)
    else:
        incumbent = float(upper_bound)

    trail = Trail()
    pool = BlockFrontier(instance.n_jobs, instance.n_machines, trail)
    root = root_block(instance, trail)
    bound_block(data, root)
    pool.push_block(root)

    pt = instance.processing_times
    next_order = 1
    expansions = 0
    budget = max_expansions if max_expansions is not None else 4 * pool_size
    # Not a solve loop: this builds the paper's pending list L by growing a
    # pool to a target SIZE — a stopping predicate SearchDriver does not
    # expose — and returns it unsolved for the protocol's timed phase.
    while pool and len(pool) < pool_size and expansions < budget:  # repro-lint: ignore[single-loop] -- pool-construction helper, terminates at pool_size, never runs the search
        row = pool.peek_best()
        lb, depth, _, tid, mask, release = pool.row_view(row)
        if lb >= incumbent:
            pool.discard(row)
            continue
        children = branch_row(mask, release, depth, tid, trail, pt, next_order)
        pool.discard(row)
        next_order += len(children)
        expansions += 1
        if not len(children):
            continue
        bound_block(data, children, siblings=True)
        if depth + 1 == instance.n_jobs:
            # siblings share their depth: all complete schedules, none pushed
            incumbent = min(incumbent, float(children.makespans.min()))
            continue
        pool.push_block(children, children.lower_bound < incumbent)
    # drain in best-first key order, then shuffle: the paper's list L is "random"
    pending, _ = pool.pop_batch(max(len(pool), 1))
    order = np.arange(len(pending))
    rng.shuffle(order)
    return pending.take(order[:pool_size])


@dataclass(frozen=True)
class ExperimentProtocol:
    """Shared configuration of the table/figure harnesses."""

    device: DeviceSpec = TESLA_C2050
    cpu_model: CpuCostModel = field(default_factory=CpuCostModel)
    cost_model: KernelCostModel = field(default_factory=KernelCostModel)
    threads_per_block: int = 256
    #: use the frontier-depth model to derive the average remaining jobs per
    #: node for each (instance, pool size) pair
    apply_depth_model: bool = True

    def n_remaining(self, n_jobs: int, pool_size: int) -> Optional[int]:
        """Average remaining jobs per node, or ``None`` to assume root-like nodes."""
        if not self.apply_depth_model:
            return None
        return estimate_remaining_jobs(n_jobs, pool_size)
