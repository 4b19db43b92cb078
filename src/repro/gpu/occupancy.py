"""CUDA-style occupancy calculator.

The paper leans on the "CUDA GPU occupancy calculator" to explain why the
shared-memory placement behaves differently for small and large instances:
the number of *active warps* per multiprocessor is limited by

1. the maximum number of resident blocks per SM,
2. the maximum number of resident warps per SM,
3. the register file (registers/thread x threads/block x blocks),
4. the shared memory consumed by each block.

With 256-thread blocks and 26 registers per thread (the kernel's register
footprint reported in the paper), the register file limits Fermi to 32
active warps; once the shared-memory placement is enabled, the per-block
shared allocation becomes the binding constraint for the larger instances
and the active-warp count drops — which is exactly the knee the paper
observes in Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec

__all__ = ["OccupancyResult", "OccupancyCalculator"]


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of an occupancy computation for one kernel configuration."""

    threads_per_block: int
    registers_per_thread: int
    shared_memory_per_block: int
    #: resident blocks per multiprocessor
    active_blocks_per_sm: int
    #: resident warps per multiprocessor
    active_warps_per_sm: int
    #: which resource is binding: "blocks", "warps", "registers" or "shared_memory"
    limiting_factor: str
    #: active warps / maximum warps
    occupancy: float
    #: threads simultaneously resident on the whole device
    resident_threads: int

    @property
    def active_threads_per_sm(self) -> int:
        return self.active_warps_per_sm * 32

    def __bool__(self) -> bool:
        return self.active_blocks_per_sm > 0


class OccupancyCalculator:
    """Compute resident blocks / warps per SM for a kernel configuration."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    # ------------------------------------------------------------------ #
    def warps_per_block(self, threads_per_block: int) -> int:
        """Number of warps needed by one block (rounded up to whole warps)."""
        if threads_per_block < 1:
            raise ValueError("threads_per_block must be >= 1")
        if threads_per_block > self.device.max_threads_per_block:
            raise ValueError(
                f"threads_per_block ({threads_per_block}) exceeds the device limit "
                f"({self.device.max_threads_per_block})"
            )
        warp = self.device.warp_size
        return -(-threads_per_block // warp)

    def registers_per_block(self, threads_per_block: int, registers_per_thread: int) -> int:
        """Register-file allocation of one block.

        Fermi allocates registers with warp granularity; the allocation is
        rounded up to the hardware granularity (64 registers per warp on
        compute capability 2.x).
        """
        if registers_per_thread < 0:
            raise ValueError("registers_per_thread must be >= 0")
        if registers_per_thread > self.device.max_registers_per_thread:
            raise ValueError(
                f"registers_per_thread ({registers_per_thread}) exceeds the device "
                f"limit ({self.device.max_registers_per_thread})"
            )
        warps = self.warps_per_block(threads_per_block)
        per_warp = registers_per_thread * self.device.warp_size
        granularity = 64
        per_warp = -(-per_warp // granularity) * granularity
        return warps * per_warp

    def shared_memory_allocation(self, requested_bytes: int) -> int:
        """Shared-memory allocation granularity (128-byte banks on Fermi)."""
        if requested_bytes < 0:
            raise ValueError("shared memory request must be >= 0")
        granularity = 128
        return -(-requested_bytes // granularity) * granularity

    # ------------------------------------------------------------------ #
    def compute(
        self,
        threads_per_block: int,
        registers_per_thread: int = 26,
        shared_memory_per_block: int = 0,
        shared_memory_available: int | None = None,
    ) -> OccupancyResult:
        """Occupancy for a kernel launch configuration.

        Parameters
        ----------
        threads_per_block:
            Block size (the paper fixes it to 256).
        registers_per_thread:
            Register footprint of the kernel (26 in the paper).
        shared_memory_per_block:
            Static + dynamic shared memory required by each block, in bytes.
        shared_memory_available:
            Shared memory per SM under the selected Fermi cache
            configuration; defaults to the device's default split.
        """
        device = self.device
        if shared_memory_available is None:
            shared_memory_available = device.default_shared_memory_bytes

        warps_per_block = self.warps_per_block(threads_per_block)

        # Limit 1: resident blocks per SM.
        limit_blocks = device.max_blocks_per_multiprocessor

        # Limit 2: resident warps per SM.
        limit_warps = device.max_warps_per_multiprocessor // warps_per_block

        # Limit 3: register file.  A kernel using no registers is not limited
        # by them at all (use an effectively-infinite limit so the reported
        # limiting factor stays meaningful).
        unlimited = 10**9
        regs_per_block = self.registers_per_block(threads_per_block, registers_per_thread)
        if regs_per_block == 0:
            limit_registers = unlimited
        else:
            limit_registers = device.registers_per_multiprocessor // regs_per_block

        # Limit 4: shared memory.
        smem_per_block = self.shared_memory_allocation(shared_memory_per_block)
        if smem_per_block == 0:
            limit_shared = unlimited
        elif smem_per_block > shared_memory_available:
            limit_shared = 0
        else:
            limit_shared = shared_memory_available // smem_per_block

        limits = {
            "blocks": limit_blocks,
            "warps": limit_warps,
            "registers": limit_registers,
            "shared_memory": limit_shared,
        }
        active_blocks = min(limits.values())
        # deterministic tie-break: report the scarcest resource in a fixed order
        resource_order = ("shared_memory", "registers", "warps", "blocks")
        limiting = min(limits, key=lambda k: (limits[k], resource_order.index(k)))

        active_warps = active_blocks * warps_per_block
        max_warps = device.max_warps_per_multiprocessor
        occupancy = active_warps / max_warps if max_warps else 0.0
        resident_threads = active_blocks * threads_per_block * device.n_multiprocessors
        return OccupancyResult(
            threads_per_block=threads_per_block,
            registers_per_thread=registers_per_thread,
            shared_memory_per_block=smem_per_block,
            active_blocks_per_sm=active_blocks,
            active_warps_per_sm=active_warps,
            limiting_factor=limiting,
            occupancy=occupancy,
            resident_threads=resident_threads,
        )

    def best_block_size(
        self,
        registers_per_thread: int = 26,
        shared_memory_per_block: int = 0,
        candidates: tuple[int, ...] = (64, 128, 192, 256, 384, 512, 768, 1024),
        shared_memory_available: int | None = None,
    ) -> tuple[int, OccupancyResult]:
        """Block size (from ``candidates``) maximising occupancy.

        Ties are resolved in favour of the smaller block size, which gives
        the scheduler more freedom — the same heuristic the CUDA occupancy
        calculator spreadsheet applies.
        """
        best: tuple[int, OccupancyResult] | None = None
        for size in candidates:
            if size > self.device.max_threads_per_block:
                continue
            result = self.compute(
                size,
                registers_per_thread=registers_per_thread,
                shared_memory_per_block=shared_memory_per_block,
                shared_memory_available=shared_memory_available,
            )
            if best is None or result.occupancy > best[1].occupancy:
                best = (size, result)
        if best is None:
            raise ValueError("no candidate block size fits the device")
        return best
