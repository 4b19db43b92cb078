"""The paper's primary contribution: GPU-accelerated Branch-and-Bound.

* :mod:`~repro.core.config` — execution configuration (pool size, block
  size, placement policy, budgets).
* :mod:`~repro.core.kernels` — the launch geometry of one batched bounding
  kernel invocation.
* :mod:`~repro.core.mapping` — the data-access-optimisation analysis: rank
  candidate placements for an instance size and device (Table I reasoning).
* :mod:`~repro.core.gpu_bb` — :class:`GpuBranchAndBound`, the CPU search
  loop with GPU-off-loaded bounding (Figure 3 of the paper).
* :mod:`~repro.core.autotune` — runtime pool-size tuning (the paper's
  stated follow-up: "this parameter has to be determined at runtime").
* :mod:`~repro.core.pipeline` — the hybrid multi-core + GPU variant the
  paper lists as work in progress.
"""

from repro.core.config import GpuBBConfig, PAPER_POOL_SIZES, PAPER_BLOCK_SIZE
from repro.core.kernels import KernelLaunch
from repro.core.mapping import PlacementAnalysis, analyze_placements, recommend_placement
from repro.core.gpu_bb import GpuBranchAndBound, GpuBBResult
from repro.core.autotune import PoolSizeAutotuner, AutotuneReport
from repro.core.pipeline import HybridBranchAndBound, HybridConfig
from repro.core.cluster import (
    ClusterSpec,
    ClusterSimulator,
    ClusterStepTiming,
    ClusterBranchAndBound,
)

__all__ = [
    "GpuBBConfig",
    "PAPER_POOL_SIZES",
    "PAPER_BLOCK_SIZE",
    "KernelLaunch",
    "PlacementAnalysis",
    "analyze_placements",
    "recommend_placement",
    "GpuBranchAndBound",
    "GpuBBResult",
    "PoolSizeAutotuner",
    "AutotuneReport",
    "HybridBranchAndBound",
    "HybridConfig",
    "ClusterSpec",
    "ClusterSimulator",
    "ClusterStepTiming",
    "ClusterBranchAndBound",
]
