"""The bounding kernel.

On the real system this is the CUDA ``__global__`` function every thread of
the off-loaded pool executes (Figure 2 of the paper).  In the reproduction
the same computation exists in two forms:

* :func:`bounding_kernel` — the scalar, per-sub-problem form; a direct
  transcription of the paper's pseudo-code, used by the CPU engines and by
  the tests as the reference semantics.
* :func:`bounding_kernel_batch` — the batched form evaluating a whole pool
  with NumPy vectorisation; this is what the
  :class:`~repro.gpu.executor.GpuExecutor` runs and it returns values
  bit-identical to the scalar form.  Two revisions exist — ``"v1"``
  vectorises the pool axis only, ``"v2"`` additionally vectorises the
  machine-couple axis — selected by the ``kernel`` argument (and, one level
  up, by :attr:`~repro.core.config.GpuBBConfig.kernel`).

:class:`KernelLaunch` describes one launch (grid geometry + pool) the way
a CUDA launch configuration would.  The pool itself travels as the
``(scheduled_mask, release)`` arrays of a
:class:`~repro.bb.frontier.NodeBlock`, which need no packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.flowshop.bounds import LowerBoundData, get_batch_kernel, lower_bound

__all__ = ["bounding_kernel", "bounding_kernel_batch", "KernelLaunch"]


def bounding_kernel(
    data: LowerBoundData,
    prefix: Sequence[int],
    release: np.ndarray | None = None,
    include_one_machine: bool = False,
) -> int:
    """Scalar bounding kernel: the lower bound of one sub-problem."""
    return lower_bound(data, prefix, release=release, include_one_machine=include_one_machine)


def bounding_kernel_batch(
    data: LowerBoundData,
    scheduled_mask: np.ndarray,
    release: np.ndarray,
    include_one_machine: bool = False,
    kernel: str = "v2",
) -> np.ndarray:
    """Batched bounding kernel: lower bounds of a whole pool at once.

    ``kernel`` selects the revision (``"v1"`` or ``"v2"``); both return
    bit-identical values, v2 with far fewer interpreter round-trips.
    """
    return get_batch_kernel(kernel)(
        data, scheduled_mask, release, include_one_machine=include_one_machine
    )


@dataclass(frozen=True)
class KernelLaunch:
    """Launch geometry of one batched kernel invocation.

    Mirrors a CUDA ``<<<grid, block>>>`` configuration: ``n_blocks`` blocks
    of ``threads_per_block`` threads, the last block possibly partially
    filled.  The paper expresses pool sizes as ``blocks x threads/block``
    (e.g. ``1024 x 256 = 262144``).
    """

    pool_size: int
    threads_per_block: int

    def __post_init__(self) -> None:
        if self.pool_size < 0:
            raise ValueError("pool_size must be non-negative")
        if self.threads_per_block < 1:
            raise ValueError("threads_per_block must be >= 1")

    @property
    def n_blocks(self) -> int:
        return -(-self.pool_size // self.threads_per_block) if self.pool_size else 0

    @property
    def n_threads(self) -> int:
        """Total threads launched (idle threads of the last block included)."""
        return self.n_blocks * self.threads_per_block

    @property
    def idle_threads(self) -> int:
        """Threads of the last block with no sub-problem to evaluate."""
        return self.n_threads - self.pool_size

    def label(self) -> str:
        """The paper's ``blocks x threads`` notation, e.g. ``"1024x256"``."""
        return f"{self.n_blocks}x{self.threads_per_block}"
