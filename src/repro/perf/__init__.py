"""Performance modelling helpers.

* :mod:`~repro.perf.model` — the CPU-side cost models (per-lower-bound cost
  of the serial B&B, contention model of the multi-threaded B&B) that pair
  with the GPU simulator to produce the paper's speed-up tables.
* :mod:`~repro.perf.flops` — theoretical GFLOPS peaks used by the
  "equal computational power" comparison of Section V.
* :mod:`~repro.perf.speedup` — speed-up / efficiency arithmetic.
"""

from repro.perf.model import CpuCostModel, MulticoreScalingModel
from repro.perf.flops import (
    theoretical_gflops,
    cores_for_equal_gflops,
    FlopsBudget,
)
from repro.perf.speedup import speedup, efficiency, SpeedupSeries

__all__ = [
    "CpuCostModel",
    "MulticoreScalingModel",
    "theoretical_gflops",
    "cores_for_equal_gflops",
    "FlopsBudget",
    "speedup",
    "efficiency",
    "SpeedupSeries",
]
