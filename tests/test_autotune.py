"""Tests for the pool-size auto-tuner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GpuBBConfig, PoolSizeAutotuner
from repro.core.autotune import AutotuneReport
from repro.flowshop import taillard_instance


class TestModelMode:
    def test_report_structure(self, paper_instance):
        report = PoolSizeAutotuner(
            paper_instance, candidates=(4096, 8192, 65536), mode="model"
        ).run()
        assert isinstance(report, AutotuneReport)
        assert report.best_pool_size in (4096, 8192, 65536)
        assert len(report.samples) == 3
        assert report.mode == "model"
        rows = report.as_rows()
        assert all({"pool_size", "per_node_us", "predicted_speedup"} <= set(r) for r in rows)

    def test_large_instances_prefer_large_pools(self):
        """The paper: 200x20 peaks at 262144 while 20x20 peaks at ~8192."""
        small = PoolSizeAutotuner(taillard_instance(20, 20), mode="model").run()
        large = PoolSizeAutotuner(taillard_instance(200, 20), mode="model").run()
        assert large.best_pool_size >= small.best_pool_size
        assert large.best_pool_size >= 65536
        assert small.best_pool_size <= 32768

    def test_tuned_config(self, paper_instance):
        tuner = PoolSizeAutotuner(paper_instance, GpuBBConfig(pool_size=4096), mode="model")
        config = tuner.tuned_config()
        assert config.pool_size == tuner.run().best_pool_size

    def test_validation(self, paper_instance):
        with pytest.raises(ValueError):
            PoolSizeAutotuner(paper_instance, candidates=())
        with pytest.raises(ValueError):
            PoolSizeAutotuner(paper_instance, candidates=(0,))
        with pytest.raises(ValueError):
            PoolSizeAutotuner(paper_instance, mode="guess")


class TestMeasureMode:
    def test_measured_samples(self, small_instance):
        report = PoolSizeAutotuner(small_instance, candidates=(32, 64), mode="measure").run()
        assert report.mode == "measure"
        assert report.best_pool_size in (32, 64)
        assert all(sample.per_node_s > 0 for sample in report.samples)

    def test_measured_launch_carries_a_jobs_column(self, monkeypatch, small_instance):
        """The timed pool is branch-built: the children of random parents, with ``jobs``."""
        import repro.flowshop.bounds as bounds

        launches = []
        real = bounds.BATCH_KERNELS["v2"]

        def spy(data, mask, release, jobs=None, **kwargs):
            launches.append((mask.copy(), jobs))
            return real(data, mask, release, jobs=jobs, **kwargs)

        monkeypatch.setitem(bounds.BATCH_KERNELS, "v2", spy)
        PoolSizeAutotuner(small_instance, candidates=(5, 12), mode="measure").run()
        assert [len(mask) for mask, _ in launches] == [5, 12]
        for mask, jobs in launches:
            assert jobs is not None and jobs.shape == (len(mask),)
            assert mask[np.arange(len(mask)), jobs].all()
            depth = mask.sum(axis=1)
            assert (depth == depth[0]).all() and 1 <= depth[0] < small_instance.n_jobs
