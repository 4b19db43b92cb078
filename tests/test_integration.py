"""End-to-end integration tests across the whole stack."""

from __future__ import annotations


from repro import (
    CpuCostModel,
    GpuBBConfig,
    GpuBranchAndBound,
    MulticoreBranchAndBound,
    PoolSizeAutotuner,
    SequentialBranchAndBound,
    lower_bound_batch,
    random_instance,
    taillard_instance,
)
from repro.bb import brute_force_optimum
from repro.experiments import ExperimentTable, table2
from repro.experiments.protocol import collect_pending_pool
from repro.flowshop.bounds import LowerBoundData
from repro.gpu.executor import GpuExecutor


class TestEndToEndSolve:
    def test_all_engines_agree_on_one_instance(self):
        instance = random_instance(8, 5, seed=23)
        _, optimum = brute_force_optimum(instance)
        serial = SequentialBranchAndBound(instance).solve()
        multicore = MulticoreBranchAndBound(
            instance, n_workers=2, backend="thread", decomposition_depth=1
        ).solve()
        gpu = GpuBranchAndBound(instance, GpuBBConfig(pool_size=128)).solve()
        assert serial.best_makespan == multicore.best_makespan == gpu.best_makespan == optimum

    def test_autotuned_config_still_exact(self):
        instance = random_instance(7, 4, seed=5)
        _, optimum = brute_force_optimum(instance)
        config = PoolSizeAutotuner(
            instance, GpuBBConfig(), candidates=(64, 256), mode="model"
        ).tuned_config()
        result = GpuBranchAndBound(instance, config).solve()
        assert result.best_makespan == optimum


class TestSharedPoolProtocol:
    """The paper's protocol: the same list L is evaluated by CPU and GPU."""

    def test_same_pool_same_bounds(self):
        instance = taillard_instance(20, 10, index=2)
        data = LowerBoundData(instance)
        pool = collect_pending_pool(instance, 128, data=data, upper_bound=float("inf"))
        assert len(pool)

        # CPU path: scalar bounds.
        from repro.flowshop.bounds import lower_bound

        cpu_bounds = [
            lower_bound(data, pool.prefix(i), release=pool.release[i]) for i in range(len(pool))
        ]

        # GPU path: executor (batched kernel + simulated timing); the
        # block's arrays are the device buffers.
        executor = GpuExecutor(data)
        result = executor.evaluate(pool.scheduled_mask, pool.release)
        assert result.bounds.tolist() == cpu_bounds
        assert result.simulated.total_s > 0

    def test_modelled_speedup_is_large_for_paper_scale_pools(self):
        """Tying the pieces together: CPU cost model vs simulated GPU time
        for a 200x20 pool predicts a double-digit speed-up."""
        instance = taillard_instance(200, 20, index=1)
        data = LowerBoundData(instance)
        executor = GpuExecutor(data)
        timing = executor.simulator.evaluate_pool(data.complexity, 262144)
        cpu_seconds = CpuCostModel().pool_seconds(data.complexity, 262144)
        assert cpu_seconds / timing.total_s > 40


class TestExperimentsOutput:
    def test_table2_is_a_well_formed_table(self):
        table = table2(pool_sizes=(4096, 262144))
        assert isinstance(table, ExperimentTable)
        text = table.to_text()
        assert "200x20" in text and "4096" in text

    def test_batched_kernel_scales_to_large_pools(self):
        instance = taillard_instance(20, 20, index=1)
        data = LowerBoundData(instance)
        from repro.experiments.protocol import synthetic_pool

        mask, release = synthetic_pool(instance, 2048, seed=0)
        bounds = lower_bound_batch(data, mask, release)
        assert bounds.shape == (2048,)
        assert int(bounds.min()) > 0
