"""Functional GPU executor.

:class:`GpuExecutor` plays the role of the CUDA runtime in this
reproduction:

* it "uploads" the instance-level data structures once
  (:class:`DeviceArrays`), checking that the chosen placement fits the
  simulated device;
* it evaluates pools of sub-problems with the vectorised kernel
  (:func:`repro.flowshop.bounds.lower_bound_batch`), so the *values* it
  returns are bit-identical to the scalar CPU bound — pruning decisions, and
  therefore the explored tree, cannot diverge between the CPU and "GPU"
  paths;
* it attaches both the *measured* host wall-clock time of the vectorised
  evaluation and the *simulated* device timing from
  :class:`~repro.gpu.simulator.GpuSimulator`, which is what the experiment
  harness uses to reproduce the paper's speed-up tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.flowshop.bounds import LowerBoundData, get_batch_kernel
from repro.gpu.device import DeviceSpec, TESLA_C2050
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.placement import DataPlacement
from repro.gpu.simulator import GpuSimulator, KernelCostModel, KernelTiming

__all__ = ["DeviceArrays", "ExecutionResult", "GpuExecutor"]


@dataclass(frozen=True)
class DeviceArrays:
    """The instance matrices as resident on the (simulated) device."""

    placement: DataPlacement
    bytes_by_structure: dict[str, int]
    total_bytes: int
    shared_bytes_per_block: int
    upload_time_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bytes_by_structure", dict(self.bytes_by_structure))


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of evaluating one pool on the executor."""

    #: lower bound of every sub-problem of the pool, in pool order
    bounds: np.ndarray
    #: simulated device-side timing (kernel + transfers + host overhead)
    simulated: KernelTiming
    #: measured wall-clock time of the vectorised host evaluation, seconds
    measured_wall_s: float

    @property
    def pool_size(self) -> int:
        return int(self.bounds.shape[0])


class GpuExecutor:
    """Evaluate pools of sub-problems on the simulated device.

    Parameters
    ----------
    data:
        Precomputed lower-bound structures of the instance being solved.
    device:
        Simulated device specification (default: Tesla C2050).
    placement:
        Data placement; defaults to the paper's recommendation for the
        instance size (``PTM`` + ``JM`` in shared memory when they fit).
    cost_model:
        Calibration constants of the timing model.
    threads_per_block:
        CUDA block size (the paper fixes 256).
    kernel:
        Batched kernel revision (``"v1"`` or ``"v2"``); see
        :func:`repro.flowshop.bounds.get_batch_kernel`.  The returned bounds
        are bit-identical either way.
    """

    def __init__(
        self,
        data: LowerBoundData,
        device: DeviceSpec = TESLA_C2050,
        placement: DataPlacement | None = None,
        cost_model: KernelCostModel | None = None,
        threads_per_block: int = 256,
        include_one_machine: bool = False,
        kernel: str = "v2",
    ):
        if threads_per_block < 1:
            raise ValueError("threads_per_block must be >= 1")
        self.data = data
        self.kernel = kernel
        self._batch_kernel = get_batch_kernel(kernel)
        self.device = device
        complexity = data.complexity
        if placement is None:
            placement = DataPlacement.recommended(complexity, device)
        self.placement = placement
        self.cost_model = cost_model if cost_model is not None else KernelCostModel()
        self.threads_per_block = int(threads_per_block)
        self.include_one_machine = bool(include_one_machine)
        self.simulator = GpuSimulator(
            device=device, placement=placement, cost_model=self.cost_model
        )
        self._device_arrays: DeviceArrays | None = None
        #: cumulative counters, handy for end-of-run statistics
        self.pools_evaluated = 0
        self.nodes_evaluated = 0
        self.simulated_time_s = 0.0
        self.measured_time_s = 0.0

    # ------------------------------------------------------------------ #
    def upload(self) -> DeviceArrays:
        """"Copy" the instance matrices to the device (idempotent)."""
        if self._device_arrays is not None:
            return self._device_arrays
        complexity = self.data.complexity
        hierarchy = MemoryHierarchy(self.device, self.placement.cache_config)
        self.placement.validate(complexity, hierarchy)
        footprints = self.placement.structure_bytes(complexity)
        total = int(sum(footprints.values()))
        transfer = self.simulator._transfer_model()
        upload_s = transfer.instance_upload(total)
        self._device_arrays = DeviceArrays(
            placement=self.placement,
            bytes_by_structure=footprints,
            total_bytes=total,
            shared_bytes_per_block=self.placement.shared_bytes_per_block(complexity),
            upload_time_s=upload_s,
        )
        return self._device_arrays

    @property
    def device_arrays(self) -> DeviceArrays:
        """The uploaded matrices (uploading lazily on first use)."""
        return self.upload()

    # ------------------------------------------------------------------ #
    def occupancy(self):
        """Occupancy of the bounding kernel for this instance/placement."""
        return self.simulator.occupancy(self.data.complexity, self.threads_per_block)

    def evaluate(
        self,
        scheduled_mask: np.ndarray,
        release: np.ndarray,
        n_remaining: int | None = None,
        jobs: np.ndarray | None = None,
    ) -> ExecutionResult:
        """Evaluate one pool of sub-problems.

        Parameters
        ----------
        scheduled_mask:
            ``(B, n_jobs)`` boolean matrix of already-scheduled jobs.
        release:
            ``(B, n_machines)`` matrix of per-machine release times.
        n_remaining:
            Average number of unscheduled jobs of the pool; used only by the
            timing model (defaults to the actual pool average).
        jobs:
            Optional ``(B,)`` job each sub-problem scheduled last (the
            ``jobs`` column of a branch-built block); lets kernel v2 bound
            sibling rows incrementally.  Values and simulated time are the
            same either way.

        Returns
        -------
        ExecutionResult
            Lower bounds (exact, bit-identical to the scalar kernel) plus
            simulated and measured timings.
        """
        self.upload()
        scheduled_mask = np.asarray(scheduled_mask, dtype=bool)
        release = np.asarray(release, dtype=np.int64)
        pool_size = int(scheduled_mask.shape[0])
        if n_remaining is None and pool_size:
            n_remaining = int(round(self.data.n_jobs - scheduled_mask.sum(axis=1).mean()))

        start = time.perf_counter()
        bounds = self._batch_kernel(
            self.data,
            scheduled_mask,
            release,
            include_one_machine=self.include_one_machine,
            jobs=jobs,
        )
        wall = time.perf_counter() - start

        timing = self.simulator.evaluate_pool(
            self.data.complexity,
            pool_size,
            threads_per_block=self.threads_per_block,
            n_remaining=n_remaining,
        )
        self.pools_evaluated += 1
        self.nodes_evaluated += pool_size
        self.simulated_time_s += timing.total_s
        self.measured_time_s += wall
        return ExecutionResult(bounds=bounds, simulated=timing, measured_wall_s=wall)

    def evaluate_block(self, block) -> ExecutionResult:
        """Evaluate a :class:`~repro.bb.frontier.NodeBlock` pool.

        The block's ``(scheduled_mask, release)`` columns are exactly the
        device buffers :meth:`evaluate` consumes, so this is a zero-copy
        hand-off — the host-side "pack the pool" step of the paper's
        Figure 3 disappears.  This is also the block layout's explicit
        int32↔int64 boundary: :meth:`evaluate` widens the int32 ``release``
        column to the kernels' internal int64, and the int64 bounds are
        cast back through the in-place write into the block's int32
        ``lower_bound`` column.
        """
        result = self.evaluate(block.scheduled_mask, block.release, jobs=block.jobs)
        block.lower_bound[:] = result.bounds
        return result

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float | int]:
        """Cumulative executor statistics."""
        return {
            "pools_evaluated": self.pools_evaluated,
            "nodes_evaluated": self.nodes_evaluated,
            "simulated_time_s": self.simulated_time_s,
            "measured_time_s": self.measured_time_s,
            "placement": self.placement.name or "custom",
            "threads_per_block": self.threads_per_block,
            "kernel": self.kernel,
        }
