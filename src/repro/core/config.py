"""Execution configuration of the GPU-accelerated Branch-and-Bound."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.bb.driver import SearchLimits
from repro.bb.frontier import check_selection
from repro.gpu.device import DeviceSpec, TESLA_C2050
from repro.gpu.placement import DataPlacement
from repro.gpu.simulator import KernelCostModel

__all__ = ["GpuBBConfig", "PAPER_POOL_SIZES", "PAPER_BLOCK_SIZE"]

#: The pool sizes swept by the paper's Tables II and III.
PAPER_POOL_SIZES: tuple[int, ...] = (4096, 8192, 16384, 32768, 65536, 131072, 262144)

#: The thread-block size the paper fixes experimentally.
PAPER_BLOCK_SIZE: int = 256


@dataclass(frozen=True)
class GpuBBConfig:
    """Configuration of one :class:`~repro.core.gpu_bb.GpuBranchAndBound` run.

    Parameters
    ----------
    pool_size:
        Maximum number of sub-problems off-loaded to the device per
        iteration (the paper's key tuning knob).
    threads_per_block:
        CUDA block size (the paper fixes 256).
    placement:
        Data-structure placement; ``None`` selects the paper's
        recommendation for the instance size at solve time.
    device:
        Simulated device specification.
    cost_model:
        Calibration constants of the device timing model.
    selection:
        Host-side selection strategy for the pending pool.
    use_neh_upper_bound:
        Seed the incumbent with the NEH heuristic.
    max_nodes / max_time_s / max_iterations:
        Optional exploration budgets, positive when given.
    max_frontier_nodes:
        High-water memory cap of the pending frontier.
        Once that many nodes are pending, best-first selection runs in a
        depth-first-restricted regime and — hysteretically — stays there
        until the frontier drains below the 0.8×cap low-water mark (see
        :class:`~repro.bb.frontier.BlockFrontier`), so exhaustive runs
        cannot grow the pool without bound and selection does not flap at
        the cap boundary.  ``None`` disables the cap.
    """

    pool_size: int = 8192
    threads_per_block: int = PAPER_BLOCK_SIZE
    placement: Optional[DataPlacement] = None
    device: DeviceSpec = TESLA_C2050
    cost_model: KernelCostModel = field(default_factory=KernelCostModel)
    selection: str = "best-first"
    use_neh_upper_bound: bool = True
    max_nodes: Optional[int] = None
    max_time_s: Optional[float] = None
    max_iterations: Optional[int] = None
    max_frontier_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.threads_per_block < 1:
            raise ValueError("threads_per_block must be >= 1")
        if self.threads_per_block > self.device.max_threads_per_block:
            raise ValueError(
                f"threads_per_block ({self.threads_per_block}) exceeds the device "
                f"limit ({self.device.max_threads_per_block})"
            )
        check_selection(self.selection)
        SearchLimits(
            max_nodes=self.max_nodes,
            max_time_s=self.max_time_s,
            max_iterations=self.max_iterations,
        )  # refuses empty budgets
        if self.max_frontier_nodes is not None and self.max_frontier_nodes < 1:
            raise ValueError("max_frontier_nodes must be positive when given")

    @property
    def blocks_per_pool(self) -> int:
        """Number of thread blocks a full pool occupies."""
        return -(-self.pool_size // self.threads_per_block)

    def with_pool_size(self, pool_size: int) -> "GpuBBConfig":
        """Copy with a different pool size (used by the autotuner)."""
        return replace(self, pool_size=pool_size)

    def with_placement(self, placement: Optional[DataPlacement]) -> "GpuBBConfig":
        """Copy with a different data placement."""
        return replace(self, placement=placement)

    def describe(self) -> dict[str, object]:
        """Plain-dictionary summary (for logs and reports)."""
        return {
            "pool_size": self.pool_size,
            "threads_per_block": self.threads_per_block,
            "blocks_per_pool": self.blocks_per_pool,
            "placement": self.placement.name if self.placement else "auto",
            "device": self.device.name,
            "selection": self.selection,
            "use_neh_upper_bound": self.use_neh_upper_bound,
            "max_frontier_nodes": self.max_frontier_nodes,
        }
