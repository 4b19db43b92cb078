"""Chaos suite: deterministic fault injection against the fault-tolerant stack.

Every test drives real faults through the seams exposed for the purpose
(:mod:`repro.testing.faults`) and asserts the headline guarantee of the
robustness work: **an injected crash, timeout, or lost launch never
changes the answer** — the service still returns the exact optimum, and
the retry/degrade/restart accounting records what it survived.

The injector is seeded; a failure here reproduces with the same seed
(`CHAOS_SEED`, also pinned by the CI chaos step).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotCorrupt,
    SnapshotError,
    load_snapshot,
)
from repro.flowshop import random_instance
from repro.service import SolveParams, SolveService
from repro.service.client import ServiceClient
from repro.service.server import SolveServer
from repro.testing import FaultInjector, SimulatedFault

CHAOS_SEED = 1307

MEDIUM = random_instance(8, 5, seed=17)

COUNTERS = (
    "nodes_bounded",
    "nodes_branched",
    "nodes_pruned",
    "leaves_evaluated",
    "incumbent_updates",
    "pools_evaluated",
    "max_pool_size",
)


@pytest.fixture(scope="module")
def golden():
    """The uninterrupted reference solve every chaos run must match."""
    return SequentialBranchAndBound(MEDIUM).solve()


def assert_exact(result, golden):
    assert result.makespan == golden.best_makespan
    assert result.order == golden.best_order
    assert result.proved_optimal
    for counter in COUNTERS:
        assert getattr(result.stats, counter) == getattr(golden.stats, counter), counter


def run_service(coro):
    return asyncio.run(coro)


class TestOffloadFaults:
    def test_failed_launches_are_retried_to_the_exact_optimum(self, golden):
        """Every 2nd bounding launch raises; the retry budget absorbs all."""
        injector = FaultInjector(seed=CHAOS_SEED)

        async def run():
            async with SolveService(
                launch_hook=injector.launch_failure(every_n=2),
                max_launch_retries=1,
            ) as service:
                await service.submit("r1", MEDIUM)
                return await service.result("r1"), service.dispatch_stats

        result, stats = run_service(run())
        assert_exact(result, golden)
        assert injector.count("launch-failure") >= 1
        assert stats.n_retries == injector.count("launch-failure")
        assert stats.n_degraded == 0

    def test_exhausted_retries_degrade_to_local_bounding(self, golden):
        """No retry budget: the session falls back to session-local bounds."""
        injector = FaultInjector(seed=CHAOS_SEED)
        events = []

        async def run():
            async with SolveService(
                launch_hook=injector.launch_failure(every_n=1),
                max_launch_retries=0,
                on_event=lambda rid, kind, payload: events.append((rid, kind, payload)),
            ) as service:
                await service.submit("r1", MEDIUM)
                return await service.result("r1"), service.dispatch_stats

        result, stats = run_service(run())
        assert_exact(result, golden)
        assert stats.n_degraded == 1
        assert stats.n_retries == 0
        degraded = [e for e in events if e[1] == "degraded"]
        assert degraded and degraded[0][0] == "r1"
        assert "injected" in degraded[0][2]["reason"]

    def test_launch_timeout_degrades_and_still_solves(self, golden):
        """A wedged launch trips the watchdog; the session degrades and wins."""
        injector = FaultInjector(seed=CHAOS_SEED)

        async def run():
            async with SolveService(
                launch_hook=injector.slow_launch(sleep_s=0.5, times=1),
                launch_timeout_s=0.05,
                max_launch_retries=0,
            ) as service:
                await service.submit("r1", MEDIUM)
                return await service.result("r1"), service.dispatch_stats

        result, stats = run_service(run())
        assert_exact(result, golden)
        assert stats.n_degraded == 1
        assert injector.count("slow-launch") == 1

    def test_degraded_session_beside_live_fused_launches(self):
        """A session bounding locally shares its instance's bound data with
        the fused launches of two live peers; all three stay exact."""
        instance = random_instance(13, 6, seed=11)
        reference = SequentialBranchAndBound(instance).solve()
        injector = FaultInjector(seed=CHAOS_SEED)

        async def run():
            async with SolveService(
                launch_hook=injector.launch_failure(every_n=1, times=1),
                max_launch_retries=0,
            ) as service:
                # r1 is alone at the first launch, so only r1 degrades
                await service.submit("r1", instance)
                while service.dispatch_stats.n_degraded == 0:
                    await asyncio.sleep(0.001)
                assert service.stats()["active_sessions"] == 1, "r1 finished too early"
                await service.submit("r2", instance)
                await service.submit("r3", instance)
                results = [await service.result(f"r{i}") for i in (1, 2, 3)]
                return results, service.dispatch_stats

        results, stats = run_service(run())
        for result in results:
            assert result.makespan == reference.best_makespan
            assert result.order == reference.best_order
            assert result.proved_optimal
            for counter in COUNTERS:
                assert getattr(result.stats, counter) == getattr(reference.stats, counter)
        assert injector.count("launch-failure") == 1
        assert stats.n_degraded == 1
        assert stats.max_requests_coalesced >= 2  # r2 and r3 really fused

    def test_random_fault_schedule_is_reproducible(self):
        hooks = [FaultInjector(seed=7).random_launch_failure(0.5) for _ in range(2)]
        schedules = []
        for hook in hooks:
            fired = []
            for launch in range(1, 21):
                try:
                    hook(launch)
                except SimulatedFault:
                    fired.append(launch)
            schedules.append(fired)
        assert schedules[0] == schedules[1]
        assert schedules[0]  # p=0.5 over 20 launches: the seed does fire


class TestSessionCrashes:
    def test_killed_session_restarts_from_checkpoint(self, golden, tmp_path):
        """Crash mid-search with checkpoints on disk: resume, finish, exact."""
        injector = FaultInjector(seed=CHAOS_SEED)
        events = []
        # one hook for all incarnations: its fire-once budget must survive
        # the restart (the factory is re-invoked per incarnation)
        kill = injector.session_kill(at_step=5)

        async def run():
            async with SolveService(
                checkpoint_dir=tmp_path,
                checkpoint_every=2,
                session_fault_hook=lambda sid: kill,
                restart_backoff_s=0.01,
                on_event=lambda rid, kind, payload: events.append((rid, kind, payload)),
            ) as service:
                await service.submit("r1", MEDIUM)
                result = await service.result("r1")
                return result, service.stats()

        result, stats = run_service(run())
        assert_exact(result, golden)
        assert injector.count("session-kill") == 1
        assert stats["session_restarts"] == 1
        restarts = [e for e in events if e[1] == "restart"]
        assert len(restarts) == 1
        # the restart resumed from a real snapshot, not from scratch
        assert restarts[0][2]["resume_from"] is not None
        checkpoints = [e for e in events if e[1] == "checkpoint"]
        assert checkpoints, "periodic checkpoints should have fired before the kill"

    def test_killed_session_without_checkpoints_restarts_from_scratch(self, golden):
        injector = FaultInjector(seed=CHAOS_SEED)
        events = []
        kill = injector.session_kill(at_step=3)

        async def run():
            async with SolveService(
                session_fault_hook=lambda sid: kill,
                restart_backoff_s=0.01,
                on_event=lambda rid, kind, payload: events.append((rid, kind, payload)),
            ) as service:
                await service.submit("r1", MEDIUM)
                result = await service.result("r1")
                return result, service.stats()

        result, stats = run_service(run())
        assert_exact(result, golden)
        assert stats["session_restarts"] == 1
        restarts = [e for e in events if e[1] == "restart"]
        assert restarts and restarts[0][2]["resume_from"] is None

    def test_restart_budget_exhaustion_surfaces_the_fault(self):
        """A session that dies on every incarnation fails the request."""
        injector = FaultInjector(seed=CHAOS_SEED)
        kill = injector.session_kill(at_step=0, times=100)

        async def run():
            async with SolveService(
                session_fault_hook=lambda sid: kill,
                max_session_restarts=1,
                restart_backoff_s=0.01,
            ) as service:
                await service.submit("r1", MEDIUM)
                with pytest.raises(SimulatedFault):
                    await service.result("r1")
                return service.stats()

        stats = run_service(run())
        assert stats["session_restarts"] == 1
        assert injector.count("session-kill") == 2  # initial run + one restart


class TestResumeThroughService:
    def test_submit_resume_finishes_an_interrupted_request(self, golden, tmp_path):
        """Checkpoint under budget, then resume the snapshot to optimality."""
        events = []

        async def run():
            async with SolveService(
                checkpoint_dir=tmp_path,
                checkpoint_every=2,
                on_event=lambda rid, kind, payload: events.append((rid, kind, payload)),
            ) as service:
                await service.submit("r1", MEDIUM, SolveParams(max_nodes=40))
                first = await service.result("r1")
                assert not first.proved_optimal  # the budget really cut it short
                checkpoints = [e for e in events if e[1] == "checkpoint"]
                assert checkpoints
                path = checkpoints[-1][2]["path"]
                await service.submit_resume("r2", path)
                return await service.result("r2")

        result = run_service(run())
        assert_exact(result, golden)

    def test_budget_cut_session_writes_its_final_snapshot(self, tmp_path):
        """A per-request path without ``checkpoint_every`` still gets the cut state."""
        instance = random_instance(11, 6, seed=3)  # proved after 948 nodes explored
        golden = SequentialBranchAndBound(instance).solve()
        path = tmp_path / "cut.rpbb"
        params = SolveParams(checkpoint_path=str(path), max_nodes=200)

        async def run():
            async with SolveService() as service:
                await service.submit("r1", instance, params)
                first = await service.result("r1")
                assert not first.proved_optimal
                assert path.exists()
                await service.submit_resume("r2", path)
                return await service.result("r2")

        assert_exact(run_service(run()), golden)

    def test_submit_resume_rejects_truncated_snapshot(self, tmp_path):
        events = []

        async def run_and_checkpoint():
            async with SolveService(
                checkpoint_dir=tmp_path,
                checkpoint_every=2,
                on_event=lambda rid, kind, payload: events.append((rid, kind, payload)),
            ) as service:
                await service.submit("r1", MEDIUM, SolveParams(max_nodes=40))
                await service.result("r1")
                return [e[2]["path"] for e in events if e[1] == "checkpoint"][-1]

        path = run_service(run_and_checkpoint())
        FaultInjector.truncate_file(path, at_byte=100)

        async def resume():
            async with SolveService() as service:
                with pytest.raises(SnapshotError):
                    await service.submit_resume("r2", path)

        run_service(resume())

    def test_submit_resume_rejects_corrupted_snapshot(self, tmp_path):
        events = []

        async def run_and_checkpoint():
            async with SolveService(
                checkpoint_dir=tmp_path,
                checkpoint_every=2,
                on_event=lambda rid, kind, payload: events.append((rid, kind, payload)),
            ) as service:
                await service.submit("r1", MEDIUM, SolveParams(max_nodes=40))
                await service.result("r1")
                return [e[2]["path"] for e in events if e[1] == "checkpoint"][-1]

        path = run_service(run_and_checkpoint())
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.corrupt_file(path)

        async def resume():
            async with SolveService() as service:
                with pytest.raises((SnapshotError, SnapshotCorrupt)):
                    await service.submit_resume("r2", path)
                    # a corrupt payload may only surface at session start
                    await service.result("r2")

        run_service(resume())


class TestWireLevelFaultTolerance:
    def test_checkpoint_frames_and_resume_over_tcp(self, golden, tmp_path):
        """End to end: checkpoint replies stream to the client; a resume
        request continues the snapshot to the exact optimum."""

        async def run():
            async with SolveService(
                checkpoint_dir=tmp_path, checkpoint_every=2
            ) as service:
                async with SolveServer(service) as server:
                    client = await ServiceClient.connect("127.0.0.1", server.port)
                    try:
                        request_id = await client.submit(
                            _spec_for(MEDIUM), SolveParams(max_nodes=40)
                        )
                        checkpoint_frames = []
                        while True:
                            reply = await client.next_reply(request_id, timeout=30.0)
                            if reply.type == "checkpoint":
                                checkpoint_frames.append(reply)
                            elif reply.type == "result":
                                break
                            else:
                                assert reply.type == "accepted"
                        assert checkpoint_frames, "no checkpoint frames reached the client"
                        assert checkpoint_frames[-1].sequence >= 1
                        resumed = await client.resume(checkpoint_frames[-1].path)
                        return resumed
                    finally:
                        await client.close()

        resumed = run_service(run())
        assert resumed.type == "result"
        assert resumed.makespan == golden.best_makespan
        assert list(resumed.order) == list(golden.best_order)
        assert resumed.proved_optimal

    def test_resume_of_missing_snapshot_is_an_error_reply(self, tmp_path):
        async def run():
            async with SolveService() as service:
                async with SolveServer(service) as server:
                    async with await ServiceClient.connect(
                        "127.0.0.1", server.port
                    ) as client:
                        return await client.resume(str(tmp_path / "missing.rpbb"))

        reply = run_service(run())
        assert reply.type == "error"

    def test_snapshot_survives_resume_roundtrip_header(self, golden, tmp_path):
        """The snapshot a chaos run leaves behind is loadable and honest."""
        path = tmp_path / "ck.rpbb"
        engine = SequentialBranchAndBound(
            MEDIUM, max_nodes=40, checkpoint_path=path, checkpoint_every=2
        )
        outcome = engine.solve()
        assert not outcome.proved_optimal
        snapshot = load_snapshot(path)
        assert snapshot.header["format_version"] == SNAPSHOT_FORMAT_VERSION
        resumed = SequentialBranchAndBound.resume(path)
        assert resumed.best_makespan == golden.best_makespan
        assert resumed.proved_optimal


def _spec_for(instance):
    from repro.service.protocol import InstanceSpec

    return InstanceSpec.explicit(
        instance.processing_times.tolist(), name=instance.name
    )
