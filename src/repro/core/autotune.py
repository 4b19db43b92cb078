"""Runtime pool-size auto-tuning.

The paper's conclusion notes that "the pool size that enables to achieve the
best acceleration ... depends strongly on the size of the problem instance
being solved.  Therefore, this parameter has to be determined at runtime by
testing different pool sizes."  This module implements that follow-up: the
:class:`PoolSizeAutotuner` evaluates a few candidate pool sizes — either
analytically through the simulator + CPU cost model, or empirically by
timing real off-loads — and selects the one with the best predicted
speed-up (equivalently, the smallest time per bounded node).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.bb.frontier import NodeBlock, Trail, advance_release, branch_block
from repro.core.config import GpuBBConfig, PAPER_POOL_SIZES
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance
from repro.gpu.executor import GpuExecutor
from repro.gpu.simulator import GpuSimulator
from repro.perf.model import CpuCostModel

__all__ = ["AutotuneReport", "PoolSizeAutotuner"]


@dataclass(frozen=True)
class AutotuneSample:
    """Evaluation of one candidate pool size."""

    pool_size: int
    per_node_s: float
    predicted_speedup: float


@dataclass(frozen=True)
class AutotuneReport:
    """Outcome of an auto-tuning session."""

    best_pool_size: int
    samples: tuple[AutotuneSample, ...]
    mode: str

    def as_rows(self) -> list[dict[str, float | int]]:
        return [
            {
                "pool_size": s.pool_size,
                "per_node_us": s.per_node_s * 1e6,
                "predicted_speedup": s.predicted_speedup,
            }
            for s in self.samples
        ]


class PoolSizeAutotuner:
    """Choose the off-load pool size for an instance at runtime.

    Parameters
    ----------
    instance:
        The instance about to be solved.
    config:
        Base configuration; its pool size is the fallback when no candidate
        wins, and its placement/device/cost-model are reused for the trials.
    candidates:
        Pool sizes to evaluate (default: the paper's sweep).
    mode:
        ``"model"`` ranks candidates with the analytical simulator + CPU
        cost model (fast, deterministic); ``"measure"`` times real batched
        evaluations of branch-built pools on this host.
    """

    def __init__(
        self,
        instance: FlowShopInstance,
        config: GpuBBConfig | None = None,
        candidates: Sequence[int] = PAPER_POOL_SIZES,
        mode: Literal["model", "measure"] = "model",
        cpu_model: CpuCostModel | None = None,
    ):
        if not candidates:
            raise ValueError("at least one candidate pool size is required")
        if mode not in ("model", "measure"):
            raise ValueError("mode must be 'model' or 'measure'")
        self.instance = instance
        self.config = config if config is not None else GpuBBConfig()
        self.candidates = tuple(int(c) for c in candidates)
        if any(c < 1 for c in self.candidates):
            raise ValueError("pool sizes must be positive")
        self.mode = mode
        self.cpu_model = cpu_model if cpu_model is not None else CpuCostModel()
        self.data = LowerBoundData(instance)

    # ------------------------------------------------------------------ #
    def _model_samples(self) -> list[AutotuneSample]:
        from repro.core.mapping import recommend_placement

        placement = self.config.placement or recommend_placement(
            self.data.complexity, self.config.device, cost_model=self.config.cost_model
        )
        simulator = GpuSimulator(
            device=self.config.device, placement=placement, cost_model=self.config.cost_model
        )
        complexity = self.data.complexity
        samples = []
        for pool_size in self.candidates:
            timing = simulator.evaluate_pool(
                complexity, pool_size, threads_per_block=self.config.threads_per_block
            )
            cpu_s = self.cpu_model.pool_seconds(complexity, pool_size)
            samples.append(
                AutotuneSample(
                    pool_size=pool_size,
                    per_node_s=timing.per_node_s,
                    predicted_speedup=cpu_s / timing.total_s,
                )
            )
        return samples

    def _synthetic_pool(self, pool_size: int) -> NodeBlock:
        """The first ``pool_size`` children of random parents of depth <= 2.

        Built by :func:`~repro.bb.frontier.branch_block`, as the GPU engine
        builds its launches, so the pool carries the ``jobs`` column and
        the measured launch takes the kernel path the engine takes.
        """
        rng = np.random.default_rng(pool_size)
        n, m = self.instance.n_jobs, self.instance.n_machines
        pt = self.instance.processing_times
        depth = max(0, min(n - 2, 2))
        count = -(-pool_size // (n - depth))  # parents with enough children
        trail = Trail()
        parents = NodeBlock.empty(n, m, trail, count)
        parents.scheduled_mask[:] = False
        parents.release[:] = 0
        prefixes = np.argsort(rng.random((count, n)), axis=1)[:, :depth]
        for jobs in prefixes.T:  # one scheduled position at a time
            parents.scheduled_mask[np.arange(count), jobs] = True
            advance_release(parents.release, pt[jobs], out=parents.release)
        parents.depth[:] = depth
        parents.trail_id[:] = trail.append_root()
        children = branch_block(parents, pt, 0)
        return children.take(np.arange(pool_size))

    def _measured_samples(self) -> list[AutotuneSample]:
        samples = []
        executor = GpuExecutor(
            self.data,
            device=self.config.device,
            placement=self.config.placement,
            cost_model=self.config.cost_model,
            threads_per_block=self.config.threads_per_block,
        )
        complexity = self.data.complexity
        for pool_size in self.candidates:
            pool = self._synthetic_pool(pool_size)
            start = time.perf_counter()
            executor.evaluate_block(pool)
            elapsed = time.perf_counter() - start
            cpu_s = self.cpu_model.pool_seconds(complexity, pool_size)
            per_node = elapsed / pool_size
            samples.append(
                AutotuneSample(
                    pool_size=pool_size,
                    per_node_s=per_node,
                    predicted_speedup=cpu_s / max(elapsed, 1e-12),
                )
            )
        return samples

    # ------------------------------------------------------------------ #
    def run(self) -> AutotuneReport:
        """Evaluate the candidates and return the report."""
        samples = self._model_samples() if self.mode == "model" else self._measured_samples()
        best = max(samples, key=lambda s: s.predicted_speedup)
        return AutotuneReport(best_pool_size=best.pool_size, samples=tuple(samples), mode=self.mode)

    def tuned_config(self) -> GpuBBConfig:
        """The base configuration with the winning pool size applied."""
        report = self.run()
        return self.config.with_pool_size(report.best_pool_size)
