"""Sync == async: the two-slot offload pipeline changes wall clock, not the tree.

The asynchronous driver overlaps host selection/branching with backend
bounding on a dedicated worker thread.  Its acceptance bar is absolute:
every figure a solve reports — makespan, permutation, every
``SearchStats`` counter, iteration count, simulated device time — must be
bit-identical to the synchronous path, across all budget shapes,
checkpoint/resume round-trips and the batch engines of the driver golden
grid.
Only the wall-clock metrics (``measured_s``, ``overlap_saved_wall_s``)
may differ.
"""

from __future__ import annotations

import asyncio
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb.driver import LocalBounding, SearchDriver, SearchHooks, SearchLimits
from repro.bb.frontier import BlockFrontier, Trail, bound_block, root_block
from repro.bb.offload import AsyncOffload, SlotWorker
from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.snapshot import CheckpointPolicy, dumps_snapshot, load_header, loads_snapshot
from repro.bb.stats import SearchStats
from repro.core.cluster import ClusterBranchAndBound, ClusterSpec
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import GpuBranchAndBound
from repro.core.pipeline import HybridBranchAndBound, HybridConfig
from repro.flowshop import random_instance
from repro.flowshop.bounds import LowerBoundData
from repro.service import BatchDispatcher, SolveService, SolveSession
from repro.service.session import SessionConfig

from test_driver import COUNTERS, GOLDENS, MEDIUM, SMALL
from test_snapshot import _rebuild_with_header

# ------------------------------------------------------------------ #
#  direct-driver harness (LocalBounding supports micro-chunk launches,
#  so these runs exercise the chunked pipeline, not just the wrapper)
# ------------------------------------------------------------------ #


def _drive_block(
    instance,
    *,
    overlap,
    batch_size=6,
    limits=None,
    max_pending=None,
    checkpoint=None,
    on_checkpoint=None,
    double_buffer=False,
    seed_state=None,
):
    data = LowerBoundData(instance)
    hooks = SearchHooks(on_checkpoint=on_checkpoint)
    driver = SearchDriver(
        instance,
        offload=LocalBounding(data),
        batch_size=batch_size,
        overlap=overlap,
        limits=limits,
        hooks=hooks,
        checkpoint=checkpoint,
        double_buffer=double_buffer,
    )
    if seed_state is None:
        trail = Trail()
        frontier = BlockFrontier(
            instance.n_jobs, instance.n_machines, trail, max_pending=max_pending
        )
        root = root_block(instance, trail)
        bound_block(data, root)
        stats = SearchStats(nodes_bounded=1)
        frontier.push_block(root)
        upper_bound, best_order, next_order = float("inf"), (), 1
    else:
        frontier, trail, upper_bound, best_order, stats, next_order = seed_state
    outcome = driver.run(
        frontier,
        upper_bound=upper_bound,
        best_order=best_order,
        stats=stats,
        trail=trail,
        next_order=next_order,
    )
    return outcome, stats


def _assert_outcomes_identical(sync, async_, sync_stats, async_stats):
    assert async_.upper_bound == sync.upper_bound
    assert async_.best_order == sync.best_order
    assert async_.best_value == sync.best_value
    assert async_.completed == sync.completed
    assert async_.iterations == sync.iterations
    assert async_.simulated_s == pytest.approx(sync.simulated_s, abs=1e-12)
    assert async_.next_order == sync.next_order
    for counter in COUNTERS:
        assert getattr(async_stats, counter) == getattr(sync_stats, counter), counter


# ------------------------------------------------------------------ #
#  the driver golden grid, solved asynchronously
# ------------------------------------------------------------------ #

#: the serial engine and the multicore workers run the single-step shape
#: and do not take the overlap knob (the CLI rejects it explicitly)
ASYNC_KEYS = sorted(
    k for k in GOLDENS if not k.startswith(("sequential", "multicore"))
)


def _run_async(key: str):
    """The async twin of ``test_driver._run``: same engines, overlap='async'."""
    if key.startswith("gpu"):
        if key.endswith("_pool4_iter7"):
            config = GpuBBConfig(pool_size=4, max_iterations=7, overlap="async")
        else:
            config = GpuBBConfig(pool_size=16, overlap="async")
        return GpuBranchAndBound(MEDIUM, config).solve()
    if key.startswith("cluster"):
        return ClusterBranchAndBound(
            MEDIUM,
            ClusterSpec(n_nodes=3),
            GpuBBConfig(pool_size=16, overlap="async"),
        ).solve()
    assert key.startswith("hybrid")
    return HybridBranchAndBound(
        SMALL,
        HybridConfig(n_explorers=2, gpu=GpuBBConfig(pool_size=16, overlap="async")),
    ).solve()


class TestAsyncGoldenEquivalence:
    """Async engines reproduce the pre-driver goldens bit for bit."""

    @pytest.mark.parametrize("key", ASYNC_KEYS)
    def test_matches_golden(self, key):
        golden = GOLDENS[key]
        result = _run_async(key)
        assert result.best_makespan == golden["best_makespan"]
        assert list(result.best_order) == golden["best_order"]
        assert result.proved_optimal == golden["proved_optimal"]
        for counter in COUNTERS:
            assert getattr(result.stats, counter) == golden["stats"][counter], counter
        if "trace" in golden:
            got = [
                [list(e.prefix), int(e.lower_bound), float(e.upper_bound_at_visit), e.action]
                for e in result.trace
            ]
            assert got == golden["trace"]
        if "simulated_device_time_s" in golden:
            assert result.simulated_device_time_s == pytest.approx(
                golden["simulated_device_time_s"], abs=1e-12
            )
            assert len(result.iterations) == golden["n_iterations"]


# ------------------------------------------------------------------ #
#  property: random instances x budgets
# ------------------------------------------------------------------ #

_BUDGETS = {
    "none": None,
    "nodes": SearchLimits(max_nodes=25),
    "iterations": SearchLimits(max_iterations=4),
}


class TestSyncAsyncProperty:
    @given(
        seed=st.integers(0, 500),
        n=st.integers(4, 7),
        m=st.integers(2, 4),
        batch=st.integers(2, 9),
        budget=st.sampled_from(sorted(_BUDGETS)),
    )
    @settings(max_examples=15, deadline=None)
    def test_block_layout_agrees(self, seed, n, m, batch, budget):
        instance = random_instance(n, m, seed=seed)
        limits = _BUDGETS[budget]
        sync, sync_stats = _drive_block(
            instance, overlap="sync", batch_size=batch, limits=limits
        )
        async_, async_stats = _drive_block(
            instance, overlap="async", batch_size=batch, limits=limits
        )
        _assert_outcomes_identical(sync, async_, sync_stats, async_stats)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_capped_frontier_agrees(self, seed):
        # a memory cap puts selection in its hysteretic restricted regime;
        # the async path must fall back to single full-batch launches and
        # still match the sync pop sequence exactly
        instance = random_instance(7, 4, seed=seed)
        sync, sync_stats = _drive_block(
            instance, overlap="sync", batch_size=6, max_pending=5
        )
        async_, async_stats = _drive_block(
            instance, overlap="async", batch_size=6, max_pending=5
        )
        _assert_outcomes_identical(sync, async_, sync_stats, async_stats)

    def test_double_buffer_credit_still_accrues_async(self, medium_instance):
        async_, async_stats = _drive_block(
            medium_instance, overlap="async", double_buffer=True
        )
        sync, sync_stats = _drive_block(
            medium_instance, overlap="sync", double_buffer=True
        )
        _assert_outcomes_identical(sync, async_, sync_stats, async_stats)
        # the simulated credit remains and the measured metric is additive
        assert async_.overlap_saved_sim_s >= 0.0
        assert async_.overlap_saved_wall_s >= 0.0

    def test_sync_path_reports_zero_wall_overlap(self, medium_instance):
        sync, _ = _drive_block(medium_instance, overlap="sync")
        assert sync.overlap_saved_wall_s == 0.0


# ------------------------------------------------------------------ #
#  checkpoint/resume round-trips under the async pipeline
# ------------------------------------------------------------------ #


class TestAsyncCheckpointResume:
    def test_periodic_checkpoint_resumes_bit_identical(self, medium_instance):
        """A mid-run async snapshot, resumed sync OR async, replays the tail."""
        golden, golden_stats = _drive_block(medium_instance, overlap="sync")
        data = LowerBoundData(medium_instance)

        blobs = []

        def capture(state):
            blobs.append(
                dumps_snapshot(
                    medium_instance,
                    frontier=state.frontier,
                    trail=state.trail,
                    upper_bound=state.upper_bound,
                    best_order=state.best_order_supplier(),
                    next_order=state.next_order,
                    stats=state.stats,
                    engine={"engine": "test"},
                )
            )

        full, full_stats = _drive_block(
            medium_instance,
            overlap="async",
            checkpoint=CheckpointPolicy(every_steps=2),
            on_checkpoint=capture,
        )
        _assert_outcomes_identical(golden, full, golden_stats, full_stats)
        assert blobs, "the async run must reach at least one batch boundary"

        for resume_overlap in ("sync", "async"):
            snap = loads_snapshot(blobs[-1])
            outcome, stats = _drive_block(
                medium_instance,
                overlap=resume_overlap,
                seed_state=(
                    snap.frontier,
                    snap.trail,
                    snap.upper_bound,
                    snap.best_order,
                    snap.stats,
                    snap.next_order,
                ),
            )
            assert outcome.upper_bound == golden.upper_bound
            assert outcome.best_order == golden.best_order
            assert outcome.completed
            for counter in COUNTERS:
                assert getattr(stats, counter) == getattr(golden_stats, counter), counter

    def test_sequential_async_resume_ladder(self, small_instance, tmp_path):
        """Kill-and-resume from a legacy header that records overlap='async'."""
        golden = SequentialBranchAndBound(small_instance).solve()
        path = tmp_path / "snap.rpbb"
        result = SequentialBranchAndBound(
            small_instance, max_nodes=15, checkpoint_path=path
        ).solve()
        assert not result.proved_optimal
        assert "overlap" not in load_header(path)["engine"]

        def legacy(header):
            header["engine"].update(layout="block", overlap="async")

        path.write_bytes(_rebuild_with_header(path.read_bytes(), legacy))
        assert load_header(path)["engine"]["overlap"] == "async"
        budgets = [40, 90, 180]  # cumulative: nodes_explored carries across segments
        segments = 1
        while not result.proved_optimal:
            budget = budgets[segments - 1] if segments <= len(budgets) else None
            result = SequentialBranchAndBound.resume(path, max_nodes=budget)
            segments += 1
            assert segments < 100, "resume ladder failed to make progress"
        assert result.best_makespan == golden.best_makespan
        assert result.best_order == golden.best_order
        for counter in COUNTERS:
            assert getattr(result.stats, counter) == getattr(golden.stats, counter), counter


# ------------------------------------------------------------------ #
#  the pipeline primitives
# ------------------------------------------------------------------ #


class TestSlotWorker:
    def test_result_round_trip_and_idle(self):
        with SlotWorker() as worker:
            ticket = worker.submit(lambda: 6 * 7)
            assert ticket.result() == 42
            assert ticket.done
            assert ticket.worker_wall_s >= 0.0
            assert worker.idle

    def test_exception_propagates_and_worker_survives(self):
        with SlotWorker() as worker:
            ticket = worker.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                ticket.result()
            assert worker.submit(lambda: "still alive").result() == "still alive"
            assert worker.idle

    def test_two_slots_then_backpressure(self):
        gate = threading.Event()
        first_running = threading.Event()
        third_submitted = threading.Event()

        def blocked():
            first_running.set()
            gate.wait()
            return "first"

        with SlotWorker() as worker:
            t1 = worker.submit(blocked)
            assert first_running.wait(5.0)
            # slot two: parked in the depth-1 queue, submit returns at once
            t2 = worker.submit(lambda: "second")
            assert not worker.idle

            tickets = {}

            def third():
                tickets["t3"] = worker.submit(lambda: "third")
                third_submitted.set()

            submitter = threading.Thread(target=third)
            submitter.start()
            # both slots busy: the third submit must block the caller
            assert not third_submitted.wait(0.1)
            gate.set()
            assert third_submitted.wait(5.0)
            submitter.join(5.0)
            assert [t1.result(), t2.result(), tickets["t3"].result()] == [
                "first",
                "second",
                "third",
            ]
            assert worker.idle

    def test_submit_after_close_raises(self):
        worker = SlotWorker()
        worker.close()
        worker.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            worker.submit(lambda: None)


class TestAsyncOffloadWrapper:
    def test_block_launch_matches_sync_backend(self, small_instance):
        data = LowerBoundData(small_instance)
        backend = LocalBounding(data)

        sync_root = root_block(small_instance, Trail())
        sync_bounds = backend.bound_block(sync_root)[0]

        async_root = root_block(small_instance, Trail())
        with AsyncOffload(backend) as aoff:
            bounds, sim_s, wall_s = aoff.submit_block(async_root).result()
            assert aoff.idle
        assert (bounds == sync_bounds).all()
        assert (async_root.lower_bound == sync_root.lower_bound).all()
        assert sim_s == 0.0 and wall_s == 0.0


# ------------------------------------------------------------------ #
#  service layer: the dispatcher's off-pump-thread launches
# ------------------------------------------------------------------ #


class TestServiceAsync:
    @pytest.mark.parametrize("instance", [MEDIUM, SMALL], ids=["medium", "small"])
    def test_lone_async_session_matches_sequential(self, instance):
        reference = SequentialBranchAndBound(instance).solve()
        with BatchDispatcher(overlap="async") as dispatcher:
            session = SolveSession(
                1,
                instance,
                LowerBoundData(instance),
                dispatcher,
                SessionConfig(overlap="async"),
            )
            result = session.run()
        assert result.makespan == reference.best_makespan
        assert result.order == reference.best_order
        assert result.proved_optimal == reference.proved_optimal
        for counter in COUNTERS:
            assert getattr(result.stats, counter) == getattr(reference.stats, counter), (
                counter
            )

    def test_async_service_multiplexes_bit_identically(self):
        instances = [MEDIUM, SMALL]

        async def run():
            async with SolveService(max_active_sessions=2, overlap="async") as service:
                for i, instance in enumerate(instances):
                    await service.submit(f"r{i}", instance)
                return [await service.result(f"r{i}") for i in range(len(instances))]

        results = asyncio.run(run())
        for instance, result in zip(instances, results):
            reference = SequentialBranchAndBound(instance).solve()
            assert result.makespan == reference.best_makespan
            assert result.order == reference.best_order
            for counter in COUNTERS:
                assert getattr(result.stats, counter) == getattr(
                    reference.stats, counter
                ), counter
