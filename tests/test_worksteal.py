"""Tests for the work-stealing, shared-incumbent parallel engine."""

from __future__ import annotations

import importlib
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bb.driver as driver_module
import repro.bb.multicore as multicore_module
from repro.bb import (
    MulticoreBranchAndBound,
    SequentialBranchAndBound,
    SharedIncumbent,
    brute_force_optimum,
)
from repro.bb.multicore import _SubtreeSolver, frontier_prefixes
from repro.flowshop import FlowShopInstance, random_instance
from repro.flowshop.bounds import LowerBoundData
from repro.testing import static_split


def _tighten(incumbent: SharedIncumbent, value: float) -> None:
    incumbent.try_update(value)


class TestSharedIncumbent:
    def test_initial_value(self):
        incumbent = SharedIncumbent(100.0)
        assert incumbent.get() == 100.0

    def test_update_only_tightens(self):
        incumbent = SharedIncumbent(100.0)
        assert incumbent.try_update(90)
        assert incumbent.get() == 90.0
        assert not incumbent.try_update(90)  # ties lose the CAS
        assert not incumbent.try_update(95)
        assert incumbent.get() == 90.0

    def test_concurrent_updates_keep_minimum(self):
        incumbent = SharedIncumbent(1000.0)
        values = list(range(100, 200))

        def hammer(chunk):
            for value in chunk:
                incumbent.try_update(value)

        threads = [
            threading.Thread(target=hammer, args=(values[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert incumbent.get() == 100.0

    def test_bound_crosses_a_process_boundary(self):
        # one object serves every backend: a worker process's CAS is seen here
        incumbent = SharedIncumbent(100.0)
        worker = multiprocessing.Process(target=_tighten, args=(incumbent, 90.0))
        worker.start()
        worker.join(timeout=60)
        assert worker.exitcode == 0
        assert incumbent.get() == 90.0


class TestFrontier:
    def test_depth_two_is_oversubscribed(self):
        prefixes = frontier_prefixes(6, 2)
        assert len(prefixes) == 6 * 5
        assert all(len(p) == 2 and p[0] != p[1] for p in prefixes)

    def test_depth_zero_is_root(self):
        assert frontier_prefixes(4, 0) == [()]


class TestValidation:
    def test_rejects_unknown_backend(self, small_instance):
        with pytest.raises(ValueError):
            MulticoreBranchAndBound(small_instance, backend="gpu")

    def test_rejects_bad_depth(self, small_instance):
        with pytest.raises(ValueError):
            MulticoreBranchAndBound(small_instance, decomposition_depth=0)

    @pytest.mark.parametrize("backend", ["process", "thread", "serial"])
    def test_rejects_frontier_cap_below_one(self, small_instance, backend):
        # the constructor refuses it, so no worker ever starts on it
        with pytest.raises(ValueError, match="max_frontier_nodes"):
            MulticoreBranchAndBound(
                small_instance, n_workers=2, backend=backend, max_frontier_nodes=0
            )

    @pytest.mark.parametrize(
        "argument",
        [{"n_workers": 0}, {"max_nodes_per_task": 0}, {"max_time_s": -1.0}],
        ids=["n_workers", "max_nodes_per_task", "max_time_s"],
    )
    def test_rejects_arguments_that_admit_no_work(self, small_instance, argument):
        # refused at construction, not turned into the CPU count or an
        # unproved NEH result after zero nodes
        with pytest.raises(ValueError, match="must be"):
            MulticoreBranchAndBound(small_instance, backend="serial", **argument)

    def test_depth_clamped_to_jobs(self, tiny_instance):
        solver = MulticoreBranchAndBound(tiny_instance, backend="serial", decomposition_depth=10)
        assert solver.decomposition_depth == tiny_instance.n_jobs
        assert solver.solve().proved_optimal


class TestExactness:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_bruteforce(self, small_instance, backend, depth):
        _, optimum = brute_force_optimum(small_instance)
        result = MulticoreBranchAndBound(
            small_instance, n_workers=2, backend=backend, decomposition_depth=depth
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_process_backend(self, small_instance):
        _, optimum = brute_force_optimum(small_instance)
        result = MulticoreBranchAndBound(
            small_instance, n_workers=2, backend="process", decomposition_depth=2
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_aggressive_polling(self, medium_instance, monkeypatch):
        # POLL_INTERVAL=1 exercises BlockFrontier.prune_to on every pop
        polls = []
        get = SharedIncumbent.get
        monkeypatch.setattr(driver_module, "POLL_INTERVAL", 1)
        monkeypatch.setattr(SharedIncumbent, "get", lambda self: polls.append(1) or get(self))
        serial = SequentialBranchAndBound(medium_instance).solve()
        result = MulticoreBranchAndBound(medium_instance, n_workers=4, backend="thread").solve()
        assert result.best_makespan == serial.best_makespan
        assert result.proved_optimal
        # one read per chunk start, plus the driver's polls inside chunks
        # (none of this instance's chunks pops 64 nodes)
        assert len(polls) > len(frontier_prefixes(medium_instance.n_jobs, 2))

    def test_full_depth_decomposition(self, tiny_instance):
        # every chunk root is a complete schedule (leaf)
        _, optimum = brute_force_optimum(tiny_instance)
        result = MulticoreBranchAndBound(
            tiny_instance, n_workers=2, backend="thread", decomposition_depth=3
        ).solve()
        assert result.best_makespan == optimum

    def test_optimal_initial_upper_bound_returns_bound(self, small_instance):
        _, optimum = brute_force_optimum(small_instance)
        result = MulticoreBranchAndBound(
            small_instance, n_workers=2, backend="thread", initial_upper_bound=optimum
        ).solve()
        assert result.best_makespan == optimum
        assert result.proved_optimal

    def test_more_threads_than_cores_bound_what_one_worker_bounds(self):
        # Started at the optimum, no worker can tighten the bound, so every
        # chunk's tree is the same however the chunks interleave: 8 workers
        # under a short switch interval must bound exactly what one serial
        # worker bounds.  A chunk taken twice or lost changes the count; a
        # worker that misses its sentinel hangs the run.
        instance = random_instance(10, 6, seed=5)
        optimum = SequentialBranchAndBound(instance).solve().best_makespan

        def engine(backend, n_workers):
            return MulticoreBranchAndBound(
                instance, n_workers=n_workers, backend=backend, initial_upper_bound=optimum
            )

        expected = engine("serial", 1).solve().stats.nodes_bounded
        threaded = engine("thread", 8)
        solved = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=lambda: solved.append(threaded.solve()), daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "the workers never stopped"
        (result,) = solved
        assert result.proved_optimal and result.best_makespan == optimum
        assert result.stats.nodes_bounded == expected

    @given(
        st.integers(2, 6),
        st.integers(2, 4),
        st.integers(0, 10_000),
        st.sampled_from(["serial", "thread"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_sequential_on_random_instances(self, n, m, seed, backend):
        instance = FlowShopInstance(
            np.random.default_rng(seed).integers(1, 99, size=(n, m)),
            name=f"hyp_ws_{n}x{m}_{seed}",
        )
        serial = SequentialBranchAndBound(instance).solve()
        result = MulticoreBranchAndBound(
            instance, n_workers=2, backend=backend, decomposition_depth=2
        ).solve()
        assert result.best_makespan == serial.best_makespan
        assert result.proved_optimal


class TestBoundData:
    """``LowerBoundData`` depends on the instance only: one build per worker."""

    @staticmethod
    def _spy(monkeypatch, module) -> list:
        builds = []

        def spy(instance):
            builds.append(instance)
            return LowerBoundData(instance)

        monkeypatch.setattr(module, "LowerBoundData", spy)
        return builds

    @pytest.mark.parametrize(("backend", "n_workers"), [("serial", 1), ("thread", 2)])
    def test_built_once_per_worker(self, monkeypatch, backend, n_workers):
        # 90 depth-2 chunks share their worker's LowerBoundData
        builds = self._spy(monkeypatch, multicore_module)
        instance = random_instance(10, 5, seed=1)
        result = MulticoreBranchAndBound(
            instance, n_workers=n_workers, backend=backend, decomposition_depth=2
        ).solve()
        assert result.proved_optimal
        assert len(builds) == n_workers
        assert all(built is instance for built in builds)

    def test_static_split_builds_once(self, monkeypatch, small_instance):
        module = importlib.import_module("repro.testing.static_split")
        builds = self._spy(monkeypatch, module)
        static_split(small_instance, decomposition_depth=2)
        assert builds == [small_instance]


class TestBudgetsAndFailures:
    def test_time_budget_is_global_not_per_chunk(self):
        # 132 depth-2 chunks share ONE deadline; a per-chunk budget would
        # let the run take ~132x longer than requested
        instance = random_instance(12, 8, seed=5)
        start = time.perf_counter()
        result = MulticoreBranchAndBound(
            instance, n_workers=2, backend="thread", max_time_s=0.05
        ).solve()
        wall = time.perf_counter() - start
        assert not result.proved_optimal
        assert result.best_makespan > 0  # the NEH incumbent is still reported
        assert wall < 5.0

    def test_truncated_run_with_infinite_bound_raises(self, medium_instance):
        # an infinite bound plus a budget that cuts every chunk before the
        # first leaf leaves nothing to report
        engine = MulticoreBranchAndBound(
            medium_instance,
            n_workers=1,
            backend="serial",
            decomposition_depth=1,
            initial_upper_bound=float("inf"),
            max_nodes_per_task=1,
        )
        with pytest.raises(RuntimeError, match="without an incumbent"):
            engine.solve()

    def test_worker_thread_failure_propagates(self, small_instance, monkeypatch):
        class Boom:
            def __init__(self, *args, **kwargs):
                raise OSError("worker resources exhausted")

        monkeypatch.setattr(multicore_module, "_SubtreeSolver", Boom)
        engine = MulticoreBranchAndBound(small_instance, n_workers=2, backend="thread")
        with pytest.raises(RuntimeError, match="worker thread"):
            engine.solve()

    @pytest.mark.parametrize(
        ("backend", "worker"), [("process", "process"), ("thread", "thread"), ("serial", "thread")]
    )
    def test_worker_failure_is_the_cause(self, small_instance, backend, worker):
        # set after construction, the cap reaches every worker with the
        # solve's options (a child process under any start method) and
        # fails its first chunk
        engine = MulticoreBranchAndBound(small_instance, n_workers=2, backend=backend)
        engine.max_frontier_nodes = 0
        with pytest.raises(RuntimeError, match=f"worker {worker}") as raised:
            engine.solve()
        assert isinstance(raised.value.__cause__, ValueError)
        assert "max_pending" in str(raised.value.__cause__)

    def test_one_failing_chunk_stops_every_worker(self, small_instance, monkeypatch):
        # the peers of a failed worker must not wait for its task forever
        run = _SubtreeSolver.run

        def failing_run(self):
            if self.prefix == (0, 1):
                raise OSError("chunk (0, 1) failed")
            return run(self)

        monkeypatch.setattr(_SubtreeSolver, "run", failing_run)
        engine = MulticoreBranchAndBound(small_instance, n_workers=2, backend="thread")
        with pytest.raises(RuntimeError, match="1 work-stealing worker thread") as raised:
            engine.solve()
        assert isinstance(raised.value.__cause__, OSError)


class TestWorkAvoidance:
    def test_fewer_nodes_than_static_split(self):
        """Acceptance: shared incumbent beats the static split at 4 workers."""
        instance = random_instance(10, 5, seed=1)  # NEH 734 vs optimum 707
        serial = SequentialBranchAndBound(instance).solve()
        static = static_split(instance, decomposition_depth=2)
        worksteal = MulticoreBranchAndBound(
            instance, n_workers=4, backend="thread", decomposition_depth=2
        ).solve()
        assert static.best_makespan == serial.best_makespan
        assert worksteal.best_makespan == serial.best_makespan
        assert worksteal.proved_optimal
        assert worksteal.stats.nodes_bounded < static.stats.nodes_bounded

    def test_serial_backend_chains_the_incumbent(self, medium_instance):
        """Even one worker benefits: the bound flows between stolen chunks."""
        static = static_split(medium_instance, decomposition_depth=2)
        worksteal = MulticoreBranchAndBound(
            medium_instance, n_workers=1, backend="serial", decomposition_depth=2
        ).solve()
        assert worksteal.best_makespan == static.best_makespan
        assert worksteal.stats.nodes_bounded <= static.stats.nodes_bounded

    def test_worksteal_block_aggressive_polling(self, medium_instance, monkeypatch):
        # POLL_INTERVAL=1 exercises BlockFrontier.prune_to on every pop
        monkeypatch.setattr(driver_module, "POLL_INTERVAL", 1)
        result = MulticoreBranchAndBound(medium_instance, n_workers=4, backend="thread").solve()
        assert result.proved_optimal
        stats = result.stats
        assert stats.nodes_bounded == (
            stats.nodes_branched + stats.nodes_pruned + stats.leaves_evaluated
        )


class TestFacade:
    """The engine's surface: no mode to select, depth 2 by default."""

    def test_default_mode_is_worksteal(self, small_instance):
        solver = MulticoreBranchAndBound(small_instance)
        assert not hasattr(solver, "mode")
        assert solver.decomposition_depth == 2

    def test_rejects_unknown_mode(self, small_instance):
        # no mode parameter: the static split is repro.testing.static_split
        for mode in ("worksteal", "static"):
            with pytest.raises(TypeError):
                MulticoreBranchAndBound(small_instance, mode=mode)

    def test_worker_stats_are_merged(self, small_instance):
        result = MulticoreBranchAndBound(small_instance, n_workers=2, backend="thread").solve()
        assert result.stats.nodes_bounded > 0
        assert result.stats.time_total_s > 0
