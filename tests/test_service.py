"""The solve service: bit-exactness, coalescing, scheduling, wire round-trips.

The headline guarantee: a session solved THROUGH the service (its bounding
batches fused with other sessions' by the dispatcher) reports bit-identical
makespan, permutation, optimality flag and node counters to a stand-alone
:class:`~repro.bb.sequential.SequentialBranchAndBound` solve — across the
same configuration grid the driver goldens pin.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.bb.sequential import SequentialBranchAndBound
from repro.flowshop import random_instance
from repro.service import (
    BatchDispatcher,
    FlushPolicy,
    InstanceSpec,
    ServiceClient,
    ServiceOverloaded,
    SolveParams,
    SolveServer,
    SolveService,
    SolveSession,
)
from repro.service.scheduler import FairShareScheduler, SchedulerFull
from repro.service.session import SessionConfig

COUNTERS = (
    "nodes_bounded",
    "nodes_branched",
    "nodes_pruned",
    "leaves_evaluated",
    "incumbent_updates",
    "pools_evaluated",
    "max_pool_size",
)

MEDIUM = random_instance(8, 5, seed=17)
SMALL = random_instance(6, 4, seed=3)

#: the golden fixture grid of tests/test_driver.py, as service parameters
CONFIGS = {
    "default": {},
    "noneh": {"initial_upper_bound": float("inf")},
    "budget40": {"max_nodes": 40},
    "depth-first": {"selection": "depth-first"},
    "fifo": {"selection": "fifo"},
}


def run_lone_session(instance, **config):
    """One session on its own dispatcher (the minimal service-side solve)."""
    from repro.flowshop.bounds import LowerBoundData

    with BatchDispatcher() as dispatcher:
        session = SolveSession(
            1, instance, LowerBoundData(instance), dispatcher, SessionConfig(**config)
        )
        return session.run()


def assert_matches_sequential(result, instance, **config):
    reference = SequentialBranchAndBound(instance, **config).solve()
    assert result.makespan == reference.best_makespan
    assert result.order == reference.best_order
    assert result.proved_optimal == reference.proved_optimal
    for counter in COUNTERS:
        assert getattr(result.stats, counter) == getattr(reference.stats, counter), counter


class TestSessionBitExactness:
    """Service sessions == sequential engine, over the golden config grid."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("instance", [MEDIUM, SMALL], ids=["medium", "small"])
    def test_lone_session_matches_sequential(self, instance, name):
        config = CONFIGS[name]
        result = run_lone_session(instance, **config)
        assert_matches_sequential(result, instance, **config)

    def test_medium_default_matches_golden(self):
        """Pin the absolute values (the driver goldens' sequential_block)."""
        result = run_lone_session(MEDIUM)
        assert result.makespan == 539
        assert result.order == (6, 5, 0, 2, 1, 7, 4, 3)
        assert result.proved_optimal


class TestConcurrentService:
    def test_concurrent_sessions_bit_identical_and_coalesced(self):
        """8 concurrent sessions: same answers, >=2x fewer launches."""
        instances = [MEDIUM, SMALL] * 4

        async def run(max_active):
            async with SolveService(
                max_active_sessions=max_active,
                flush_policy=FlushPolicy(max_wait_s=0.05),
            ) as service:
                for i, instance in enumerate(instances):
                    await service.submit(f"r{i}", instance)
                results = [await service.result(f"r{i}") for i in range(len(instances))]
                return results, service.dispatch_stats.as_dict()

        serial_results, serial_stats = asyncio.run(run(1))
        results, stats = asyncio.run(run(8))
        for instance, result, serial in zip(instances, results, serial_results):
            assert (result.makespan, result.order) == (serial.makespan, serial.order)
            assert_matches_sequential(result, instance)
        # serial degraded service: one launch per request (nothing to fuse)
        assert serial_stats["n_launches"] == serial_stats["n_requests"]
        assert stats["n_requests"] == serial_stats["n_requests"]
        assert serial_stats["n_launches"] >= 2 * stats["n_launches"]

    def test_duplicate_request_id_rejected(self):
        async def run():
            async with SolveService(max_active_sessions=1) as service:
                await service.submit("r1", SMALL)
                with pytest.raises(KeyError, match="duplicate"):
                    await service.submit("r1", SMALL)
                await service.result("r1")

        asyncio.run(run())

    def test_unknown_request_id(self):
        async def run():
            async with SolveService(max_active_sessions=1) as service:
                with pytest.raises(KeyError):
                    await service.result("ghost")
                with pytest.raises(KeyError):
                    await service.cancel("ghost")

        asyncio.run(run())

    def test_backpressure_overloaded(self):
        async def run():
            async with SolveService(max_active_sessions=1, max_queued=1) as service:
                await service.submit("r0", SMALL)  # takes the active slot
                await service.submit("r1", SMALL)  # fills the queue
                with pytest.raises(ServiceOverloaded) as excinfo:
                    await service.submit("r2", SMALL)
                assert (excinfo.value.queued, excinfo.value.limit) == (1, 1)
                await service.result("r0")
                await service.result("r1")

        asyncio.run(run())

    def test_cancel_queued_session(self):
        """A cancelled queued session still resolves, flagged cancelled."""

        async def run():
            async with SolveService(max_active_sessions=1) as service:
                await service.submit("running", MEDIUM)
                await service.submit("waiting", MEDIUM)
                was_running = await service.cancel("waiting")
                assert was_running is False
                result = await service.result("waiting")
                assert result.cancelled
                assert not result.proved_optimal
                assert result.makespan >= 539  # the NEH incumbent it died with
                running = await service.result("running")
                assert not running.cancelled and running.makespan == 539

        asyncio.run(run())

    def test_status_snapshot(self):
        async def run():
            async with SolveService(max_active_sessions=2) as service:
                await service.submit("r0", SMALL)
                await service.result("r0")
                snapshot = service.stats()
                assert snapshot["completed_sessions"] == 1
                assert snapshot["active_sessions"] == 0
                assert snapshot["dispatcher"]["n_launches"] >= 1

        asyncio.run(run())


class TestPerRequestCheckpoint:
    def test_params_checkpoint_writes_snapshot(self, tmp_path):
        """The wire-level params carry the per-request checkpoint knobs."""
        from repro.bb.snapshot import SNAPSHOT_FORMAT_VERSION, load_header

        path = tmp_path / "r1.rpbb"

        async def run():
            async with SolveService() as service:
                params = SolveParams(checkpoint_path=str(path), checkpoint_every=2)
                return await service.solve("r1", MEDIUM, params=params)

        result = asyncio.run(run())
        assert_matches_sequential(result, MEDIUM)
        header = load_header(path)
        assert header["format_version"] == SNAPSHOT_FORMAT_VERSION
        for removed in ("overlap", "kernel", "frontier_index"):
            assert removed not in header["engine"]


class TestServiceWideCheckpoint:
    @pytest.mark.parametrize(
        "knob", [{"checkpoint_dir": "checkpoints"}, {"checkpoint_every": 2}], ids=["dir", "every"]
    )
    def test_one_knob_alone_is_refused(self, knob):
        # either alone wrote no checkpoint, so a crashed session restarted
        # from scratch although its caller configured snapshots
        with pytest.raises(ValueError, match="checkpoint_dir and checkpoint_every"):
            SolveService(**knob)

    @pytest.mark.parametrize("every", [0, -1])
    def test_interval_below_one_is_refused_at_construction(self, tmp_path, every):
        # unchecked, the service started and then failed every submit at admission
        with pytest.raises(ValueError, match="checkpoint_every must be >= 1"):
            SolveService(checkpoint_dir=tmp_path, checkpoint_every=every)


class TestSessionCancellation:
    def test_cancel_before_first_selection(self):
        """A pre-cancelled session dies at its first pop, NEH incumbent intact."""
        from repro.flowshop.bounds import LowerBoundData

        with BatchDispatcher() as dispatcher:
            session = SolveSession(1, MEDIUM, LowerBoundData(MEDIUM), dispatcher)
            session.cancel()
            result = session.run()
        assert result.cancelled
        assert not result.proved_optimal
        neh_reference = SequentialBranchAndBound(MEDIUM, max_nodes=1).solve()
        assert result.makespan == neh_reference.best_makespan

    def test_cancel_without_incumbent_raises(self):
        from repro.flowshop.bounds import LowerBoundData

        with BatchDispatcher() as dispatcher:
            session = SolveSession(
                1,
                MEDIUM,
                LowerBoundData(MEDIUM),
                dispatcher,
                SessionConfig(initial_upper_bound=float("inf")),
            )
            session.cancel()
            with pytest.raises(RuntimeError, match="without|before"):
                session.run()


class TestFairShareScheduler:
    def test_round_robin_across_clients_fifo_within(self):
        scheduler = FairShareScheduler(max_queued=16)
        for item in ("a1", "a2", "a3"):
            scheduler.push("alice", item)
        scheduler.push("bob", "b1")
        scheduler.push("carol", "c1")
        drained = [scheduler.pop() for _ in range(len(scheduler))]
        assert drained == ["a1", "b1", "c1", "a2", "a3"]
        assert scheduler.pop() is None

    def test_flooding_client_cannot_starve_late_arrival(self):
        scheduler = FairShareScheduler(max_queued=16)
        for i in range(5):
            scheduler.push("flood", f"f{i}")
        assert scheduler.pop() == "f0"
        scheduler.push("late", "l0")  # arrives mid-drain
        assert scheduler.pop() == "f1"
        assert scheduler.pop() == "l0"  # served after ONE flood item, not five

    def test_bounded(self):
        scheduler = FairShareScheduler(max_queued=2)
        scheduler.push("a", 1)
        scheduler.push("a", 2)
        with pytest.raises(SchedulerFull) as excinfo:
            scheduler.push("b", 3)
        assert (excinfo.value.queued, excinfo.value.limit) == (2, 2)

    def test_iter_is_non_destructive(self):
        scheduler = FairShareScheduler()
        scheduler.push("a", 1)
        scheduler.push("b", 2)
        assert sorted(scheduler) == [1, 2]
        assert len(scheduler) == 2


class TestWireService:
    """End-to-end over a real TCP socket."""

    def test_solve_round_trip(self):
        async def run():
            async with SolveService(max_active_sessions=2) as service:
                async with SolveServer(service) as server:
                    client = await ServiceClient.connect("127.0.0.1", server.port)
                    async with client:
                        reply = await client.solve(
                            InstanceSpec.explicit(SMALL.processing_times.tolist())
                        )
                        assert reply.type == "result"
                        assert reply.makespan == 373
                        assert reply.proved_optimal and not reply.cancelled
                        assert reply.stats["nodes_bounded"] >= 1
                        status = await client.status()
                        assert status.completed_sessions == 1

        asyncio.run(run())

    def test_concurrent_clients_multiplex(self):
        async def run():
            async with SolveService(max_active_sessions=4) as service:
                async with SolveServer(service) as server:
                    client = await ServiceClient.connect("127.0.0.1", server.port)
                    async with client:
                        spec_m = InstanceSpec.explicit(MEDIUM.processing_times.tolist())
                        spec_s = InstanceSpec.explicit(SMALL.processing_times.tolist())
                        replies = await asyncio.gather(
                            client.solve(spec_m),
                            client.solve(spec_s),
                            client.solve(spec_m),
                        )
                        assert [r.makespan for r in replies] == [539, 373, 539]

        asyncio.run(run())

    def test_malformed_line_answers_error_and_survives(self):
        async def run():
            async with SolveService(max_active_sessions=1) as service:
                async with SolveServer(service) as server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                    writer.write(b"this is not json\n")
                    await writer.drain()
                    from repro.service import protocol

                    reply = protocol.decode((await reader.readline()).decode())
                    assert reply.type == "error"
                    # the connection is still usable afterwards
                    writer.write(protocol.encode(protocol.StatusRequest()).encode() + b"\n")
                    await writer.drain()
                    status = protocol.decode((await reader.readline()).decode())
                    assert status.type == "status_reply"
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(run())

    @pytest.mark.parametrize("bad_line", ["over-limit", "not-utf8"])
    def test_unreadable_line_answers_error_and_survives(self, bad_line):
        from repro.service import protocol
        from repro.service.server import LINE_LIMIT

        if bad_line == "over-limit":
            # an explicit 4000x20 instance: ~248 KB, over the line limit
            spec = InstanceSpec.explicit([[50] * 20] * 4000)
            request = protocol.SolveRequest(request_id="big", instance=spec)
            bad_line = protocol.encode(request).encode() + b"\n"
        else:
            bad_line = b"\xff\xfe not utf-8 \x80\n"

        async def run():
            async with SolveService(max_active_sessions=1) as service:
                async with SolveServer(service) as server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                    writer.write(bad_line)
                    writer.write(protocol.encode(protocol.StatusRequest()).encode() + b"\n")
                    await writer.drain()
                    reply = protocol.decode((await reader.readline()).decode())
                    assert reply.type == "error"
                    if len(bad_line) > LINE_LIMIT:
                        assert str(LINE_LIMIT) in reply.message
                    # exactly one error, then the following request is served
                    status = protocol.decode((await reader.readline()).decode())
                    assert status.type == "status_reply"
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(run())

    def test_object_layout_resume_answers_error_and_survives(self, tmp_path):
        from test_snapshot import _as_object_layout, _rebuild_with_header

        from repro.service import protocol

        path = tmp_path / "object.rpbb"
        SequentialBranchAndBound(SMALL, max_nodes=5, checkpoint_path=path).solve()
        path.write_bytes(_rebuild_with_header(path.read_bytes(), _as_object_layout))
        request = protocol.ResumeRequest(request_id="old", snapshot_path=str(path))

        async def run():
            async with SolveService(max_active_sessions=1) as service:
                async with SolveServer(service) as server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                    writer.write(protocol.encode(request).encode() + b"\n")
                    writer.write(protocol.encode(protocol.StatusRequest()).encode() + b"\n")
                    await writer.drain()
                    reply = protocol.decode((await reader.readline()).decode())
                    assert reply.type == "error"
                    assert "'object' node layout" in reply.message
                    # exactly one error, then the following request is served
                    status = protocol.decode((await reader.readline()).decode())
                    assert status.type == "status_reply"
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(run())

    @pytest.mark.parametrize(
        "field, value",
        [("overlap", "async"), ("kernel", "v1"), ("frontier_index", "linear")],
        ids=["overlap", "kernel", "frontier_index"],
    )
    def test_removed_overlap_param_answers_error_and_survives(self, field, value):
        """Removed solve parameters (``overlap``, ``kernel``,
        ``frontier_index``) get one error reply; the connection survives."""
        import json

        from repro.service import protocol

        request = protocol.SolveRequest(
            request_id="old", instance=InstanceSpec.explicit(SMALL.processing_times.tolist())
        )
        payload = json.loads(protocol.encode(request))
        payload["params"][field] = value

        async def run():
            async with SolveService(max_active_sessions=1) as service:
                async with SolveServer(service) as server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                    writer.write(json.dumps(payload).encode() + b"\n")
                    writer.write(protocol.encode(protocol.StatusRequest()).encode() + b"\n")
                    await writer.drain()
                    reply = protocol.decode((await reader.readline()).decode())
                    assert reply.type == "error"
                    assert "bad solve payload" in reply.message
                    assert field in reply.message
                    # exactly one error, then the following request is served
                    status = protocol.decode((await reader.readline()).decode())
                    assert status.type == "status_reply"
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(run())

    def test_bad_instance_answers_error(self):
        async def run():
            async with SolveService(max_active_sessions=1) as service:
                async with SolveServer(service) as server:
                    client = await ServiceClient.connect("127.0.0.1", server.port)
                    async with client:
                        reply = await client.solve(InstanceSpec(kind="taillard"))
                        assert reply.type == "error"
                        assert "jobs" in reply.message

        asyncio.run(run())

    def test_oversized_instances_answer_error_and_survive(self):
        """Specs past the wire's dimension limits get an error reply before
        anything is built, and the connection then serves a solve."""

        async def run():
            async with SolveService(max_active_sessions=1) as service:
                async with SolveServer(service) as server:
                    client = await ServiceClient.connect("127.0.0.1", server.port)
                    async with client:
                        reply = await client.solve(InstanceSpec.taillard(10**7, 20), timeout=5)
                        assert reply.type == "error"
                        assert "MAX_JOBS=500" in reply.message
                        reply = await client.solve(
                            InstanceSpec.explicit([[1] * 8000] * 2), timeout=5
                        )
                        assert reply.type == "error"
                        assert "MAX_MACHINES=50" in reply.message
                        reply = await client.solve(
                            InstanceSpec.taillard(20, 5), SolveParams(max_nodes=200)
                        )
                        assert reply.type == "result"
                        assert reply.stats["nodes_explored"] >= 200

        asyncio.run(run())

    def test_cancel_unknown_id_answers_error(self):
        async def run():
            async with SolveService(max_active_sessions=1) as service:
                async with SolveServer(service) as server:
                    client = await ServiceClient.connect("127.0.0.1", server.port)
                    async with client:
                        client._inbox("ghost")
                        reply = await client.cancel("ghost")
                        assert reply.type == "error"

        asyncio.run(run())

    def test_next_reply_timeout_discards_the_inbox(self):
        """An abandoned request must not keep queueing late replies."""

        async def run():
            async with SolveService(max_active_sessions=1) as service:
                async with SolveServer(service) as server:
                    client = await ServiceClient.connect("127.0.0.1", server.port)
                    async with client:
                        client._inbox("nobody-answers")
                        with pytest.raises(asyncio.TimeoutError):
                            await client.next_reply("nobody-answers", timeout=0.05)
                        assert "nobody-answers" not in client._inboxes
                        # a live request is unaffected by the cleanup
                        reply = await client.solve(
                            InstanceSpec.explicit(SMALL.processing_times.tolist())
                        )
                        assert reply.type == "result"

        asyncio.run(run())
