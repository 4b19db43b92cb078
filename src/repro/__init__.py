"""repro — GPU-accelerated Branch-and-Bound for the Flow-Shop Scheduling Problem.

A production-quality Python reproduction of

    N. Melab, I. Chakroun, M. Mezmaz, D. Tuyttens,
    "A GPU-accelerated Branch-and-Bound Algorithm for the Flow-Shop
    Scheduling Problem", IEEE Cluster 2012.

The library is organised in five layers (see DESIGN.md):

* :mod:`repro.flowshop` — the permutation flow-shop problem: instances,
  Taillard's benchmark generator, schedules, Johnson's algorithm, and the
  Lenstra lower bound with its six data structures.
* :mod:`repro.bb` — the Branch-and-Bound machinery: the columnar node
  frontier, the one search driver, the serial engine and the multi-core
  baseline.
* :mod:`repro.gpu` — the simulated GPU: device specs, memory hierarchy,
  occupancy calculator, data placement, transfer and kernel timing models,
  and the functional executor.
* :mod:`repro.core` — the paper's contribution: the GPU-accelerated B&B
  with parallel bounding, data-access optimisation and pool-size
  auto-tuning.
* :mod:`repro.perf` / :mod:`repro.experiments` — cost models, speed-up
  accounting and the harness that regenerates every table and figure of the
  paper's evaluation.

Quickstart
----------
>>> from repro import taillard_instance, GpuBranchAndBound, GpuBBConfig
>>> instance = taillard_instance(8, 5, index=1)   # small synthetic instance
>>> result = GpuBranchAndBound(instance, GpuBBConfig(pool_size=256)).solve()
>>> result.proved_optimal
True
"""

from repro.flowshop import (
    FlowShopInstance,
    Schedule,
    PartialSchedule,
    makespan,
    taillard_instance,
    TaillardGenerator,
    random_instance,
    neh_heuristic,
    johnson_order,
    lower_bound,
    lower_bound_batch,
    LowerBoundData,
    DataStructureComplexity,
)
from repro.bb import (
    SequentialBranchAndBound,
    MulticoreBranchAndBound,
    BBResult,
    SearchStats,
    brute_force_optimum,
)
from repro.core import (
    GpuBranchAndBound,
    GpuBBResult,
    GpuBBConfig,
    PoolSizeAutotuner,
    HybridBranchAndBound,
    HybridConfig,
    ClusterBranchAndBound,
    ClusterSpec,
    PAPER_POOL_SIZES,
    PAPER_BLOCK_SIZE,
)
from repro.gpu import (
    DeviceSpec,
    TESLA_C2050,
    DataPlacement,
    GpuExecutor,
    GpuSimulator,
    KernelCostModel,
    OccupancyCalculator,
)
from repro.perf import CpuCostModel, MulticoreScalingModel

__version__ = "1.0.0"

__all__ = [
    # flowshop
    "FlowShopInstance",
    "Schedule",
    "PartialSchedule",
    "makespan",
    "taillard_instance",
    "TaillardGenerator",
    "random_instance",
    "neh_heuristic",
    "johnson_order",
    "lower_bound",
    "lower_bound_batch",
    "LowerBoundData",
    "DataStructureComplexity",
    # bb
    "SequentialBranchAndBound",
    "MulticoreBranchAndBound",
    "BBResult",
    "SearchStats",
    "brute_force_optimum",
    # core
    "GpuBranchAndBound",
    "GpuBBResult",
    "GpuBBConfig",
    "PoolSizeAutotuner",
    "HybridBranchAndBound",
    "HybridConfig",
    "ClusterBranchAndBound",
    "ClusterSpec",
    "PAPER_POOL_SIZES",
    "PAPER_BLOCK_SIZE",
    # gpu
    "DeviceSpec",
    "TESLA_C2050",
    "DataPlacement",
    "GpuExecutor",
    "GpuSimulator",
    "KernelCostModel",
    "OccupancyCalculator",
    # perf
    "CpuCostModel",
    "MulticoreScalingModel",
    "__version__",
]
