"""Launch geometry of the bounding kernel.

On the real system the bounding kernel is the CUDA ``__global__`` function
every thread of the off-loaded pool executes (Figure 2 of the paper).  In
the reproduction it lives in :mod:`repro.flowshop.bounds`: the scalar
:func:`~repro.flowshop.bounds.lower_bound` is the reference semantics, and
the batched kernel v2 (``get_batch_kernel("v2")``) is what every engine and
the :class:`~repro.gpu.executor.GpuExecutor` run, bit-identical to it.

:class:`KernelLaunch` describes one launch (grid geometry + pool) the way
a CUDA launch configuration would.  The pool itself travels as the
``(scheduled_mask, release)`` arrays of a
:class:`~repro.bb.frontier.NodeBlock`, which need no packing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelLaunch"]


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
