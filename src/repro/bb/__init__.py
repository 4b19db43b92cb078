"""Branch-and-Bound engine substrate.

This package provides the CPU-side Branch-and-Bound machinery the paper
builds on:

* :mod:`~repro.bb.frontier` — the sub-problem representation: columnar
  :class:`~repro.bb.frontier.NodeBlock` batches (one row per sub-problem:
  scheduled-job mask, machine release times, lower bound), the vectorized
  branch/bound/eliminate operators and the array-backed
  :class:`~repro.bb.frontier.BlockFrontier` pool implementing the
  selection strategies (best-first, the paper's choice; depth-first;
  FIFO).
* :mod:`~repro.bb.driver` — the ONE select→branch→bound→eliminate
  iteration every engine runs: :class:`~repro.bb.driver.SearchDriver`,
  parameterized by an offload backend (where bounding runs and what
  simulated time it charges) and per-step hooks (incumbent publication,
  bound polling, launch accounting), and
  :func:`~repro.bb.driver.run_search`, the one assembly through which every
  engine seeds, runs and finishes its search.
* :mod:`~repro.bb.snapshot` — versioned, checksummed search-state
  snapshots for checkpoint/resume.
* :mod:`~repro.bb.sequential` — the serial B&B, the ``T_cpu`` reference of
  every speed-up in the paper, with per-operator timing instrumentation
  (used for the 98.5 % bounding-fraction measurement).
* :mod:`~repro.bb.multicore` — the multi-core B&B baseline of Section V:
  work stealing with a shared incumbent (oversubscribed decomposition,
  dynamic load balance, incumbent compare-and-swap + periodic polling).
* :mod:`~repro.bb.bruteforce` — exhaustive enumeration, used by the tests
  as ground truth on small instances.
* :mod:`~repro.bb.stats` — exploration statistics shared by all engines.
"""

from repro.bb.frontier import (
    BlockFrontier,
    NodeBlock,
    Trail,
    bound_block,
    branch_block,
    eliminate_block,
    root_block,
)
from repro.bb.driver import (
    DriverResult,
    LocalBounding,
    OffloadStep,
    SearchDriver,
    SearchHooks,
    SearchLimits,
    TraceEvent,
    run_search,
)
from repro.bb.stats import SearchStats
from repro.bb.sequential import SequentialBranchAndBound, BBResult
from repro.bb.multicore import MulticoreBranchAndBound, SharedIncumbent
from repro.bb.bruteforce import brute_force_optimum

__all__ = [
    "NodeBlock",
    "Trail",
    "BlockFrontier",
    "root_block",
    "branch_block",
    "bound_block",
    "eliminate_block",
    "SearchStats",
    "SearchDriver",
    "SearchHooks",
    "SearchLimits",
    "run_search",
    "LocalBounding",
    "OffloadStep",
    "DriverResult",
    "TraceEvent",
    "SequentialBranchAndBound",
    "BBResult",
    "MulticoreBranchAndBound",
    "SharedIncumbent",
    "brute_force_optimum",
]
