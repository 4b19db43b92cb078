"""Dispatcher flush-policy edge cases and the parking offload's contract.

The deterministic tests drive a non-started dispatcher by hand
(``autostart=False`` + ``flush_now`` / ``_flush_reason``); the timing
tests run the real background thread with generous margins.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bb.frontier import Trail, bound_block, root_block
from repro.flowshop import random_instance
from repro.flowshop.bounds import LowerBoundData
from repro.service.dispatch import (
    BatchDispatcher,
    BatchingOffload,
    FlushPolicy,
    SessionCancelled,
)


@pytest.fixture(scope="module")
def instance():
    return random_instance(6, 4, seed=3)


@pytest.fixture(scope="module")
def data(instance):
    return LowerBoundData(instance)


def fresh_root(instance):
    """A one-row unbounded root block (a realistic submittable batch)."""
    return root_block(instance, Trail())


class TestFlushPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FlushPolicy(max_wait_s=0.0)
        with pytest.raises(ValueError):
            FlushPolicy(max_batch_nodes=0)

    def test_lone_session_flushes_immediately(self, instance, data):
        """pending(1) >= active(1): a single session never waits."""
        dispatcher = BatchDispatcher(autostart=False)
        dispatcher.session_started()
        dispatcher.submit("s1", data, fresh_root(instance))
        assert dispatcher._flush_reason(time.monotonic()) == "all-parked"

    def test_waits_while_a_peer_is_unparked(self, instance, data):
        """pending(1) < active(2) and young: no trigger yet."""
        dispatcher = BatchDispatcher(policy=FlushPolicy(max_wait_s=60.0), autostart=False)
        dispatcher.session_started()
        dispatcher.session_started()
        dispatcher.submit("s1", data, fresh_root(instance))
        assert dispatcher._flush_reason(time.monotonic()) is None

    def test_all_parked_when_every_session_parks(self, instance, data):
        dispatcher = BatchDispatcher(policy=FlushPolicy(max_wait_s=60.0), autostart=False)
        dispatcher.session_started()
        dispatcher.session_started()
        dispatcher.submit("s1", data, fresh_root(instance))
        dispatcher.submit("s2", data, fresh_root(instance))
        assert dispatcher._flush_reason(time.monotonic()) == "all-parked"

    def test_session_exit_reactivates_all_parked(self, instance, data):
        """A peer finishing its solve must unblock the waiters."""
        dispatcher = BatchDispatcher(policy=FlushPolicy(max_wait_s=60.0), autostart=False)
        dispatcher.session_started()
        dispatcher.session_started()
        dispatcher.submit("s1", data, fresh_root(instance))
        assert dispatcher._flush_reason(time.monotonic()) is None
        dispatcher.session_finished()
        assert dispatcher._flush_reason(time.monotonic()) == "all-parked"

    def test_timeout_fires_for_a_straggler(self, instance, data):
        dispatcher = BatchDispatcher(policy=FlushPolicy(max_wait_s=0.001), autostart=False)
        dispatcher.session_started()
        dispatcher.session_started()
        dispatcher.submit("s1", data, fresh_root(instance))
        time.sleep(0.005)
        assert dispatcher._flush_reason(time.monotonic()) == "timeout"

    def test_max_batch_fires_on_rows(self, instance, data):
        dispatcher = BatchDispatcher(
            policy=FlushPolicy(max_wait_s=60.0, max_batch_nodes=2), autostart=False
        )
        for _ in range(4):  # rows >= 2 while active stays 0-registered
            dispatcher.session_started()
        dispatcher.submit("s1", data, fresh_root(instance))
        dispatcher.submit("s2", data, fresh_root(instance))
        assert dispatcher._flush_reason(time.monotonic()) == "max-batch"


class TestFlushExecution:
    def test_fused_launch_is_bit_identical(self, instance, data):
        """One fused launch == per-block frontier bounding, bit for bit."""
        dispatcher = BatchDispatcher(autostart=False)
        blocks = [fresh_root(instance) for _ in range(3)]
        futures = [dispatcher.submit(f"s{i}", data, b) for i, b in enumerate(blocks)]
        flushed = dispatcher.flush_now()
        assert flushed == 3
        reference = fresh_root(instance)
        bound_block(data, reference)
        for block, future in zip(blocks, futures):
            bounds, simulated_s, measured_s = future.result(timeout=1)
            assert np.array_equal(block.lower_bound, reference.lower_bound)
            assert bounds is block.lower_bound
            assert simulated_s == 0.0 and measured_s >= 0.0
        stats = dispatcher.stats
        assert stats.n_launches == 1  # one instance group -> ONE launch
        assert stats.n_requests == 3
        assert stats.max_requests_coalesced == 3

    def test_distinct_instances_group_separately(self, instance, data):
        other = random_instance(5, 3, seed=9)
        other_data = LowerBoundData(other)
        dispatcher = BatchDispatcher(autostart=False)
        f1 = dispatcher.submit("s1", data, fresh_root(instance))
        f2 = dispatcher.submit("s2", other_data, fresh_root(other))
        dispatcher.flush_now()
        f1.result(timeout=1)
        f2.result(timeout=1)
        assert dispatcher.stats.n_flushes == 1
        assert dispatcher.stats.n_launches == 2  # one per instance

    def test_cancellation_mid_batch(self, instance, data):
        """A cancelled request unparks with SessionCancelled; peers flush on."""
        dispatcher = BatchDispatcher(autostart=False)
        block_keep = fresh_root(instance)
        future_gone = dispatcher.submit("victim", data, fresh_root(instance))
        future_keep = dispatcher.submit("survivor", data, block_keep)
        assert dispatcher.cancel_pending("victim") == 1
        with pytest.raises(SessionCancelled):
            future_gone.result(timeout=1)
        assert dispatcher.flush_now() == 1  # only the survivor remains
        bounds, _, _ = future_keep.result(timeout=1)
        reference = fresh_root(instance)
        bound_block(data, reference)
        assert np.array_equal(bounds, reference.lower_bound)
        assert dispatcher.stats.n_cancelled == 1

    def test_cancel_pending_unknown_token_is_noop(self, data):
        dispatcher = BatchDispatcher(autostart=False)
        assert dispatcher.cancel_pending("nobody") == 0

    def test_close_fails_leftover_futures(self, instance, data):
        dispatcher = BatchDispatcher(autostart=False)
        future = dispatcher.submit("s1", data, fresh_root(instance))
        other = dispatcher.submit("s2", data, fresh_root(instance))
        dispatcher.close()
        # parked futures are cancelled (not left pending) before the join
        with pytest.raises(SessionCancelled):
            future.result(timeout=1)
        with pytest.raises(SessionCancelled):
            other.result(timeout=1)
        assert dispatcher.stats.n_cancelled == 2
        assert dispatcher.close_join_timed_out is False
        with pytest.raises(RuntimeError, match="closed"):
            dispatcher.submit("s1", data, fresh_root(instance))


class TestBackgroundThread:
    def test_lone_parker_is_released_promptly(self, instance, data):
        with BatchDispatcher(policy=FlushPolicy(max_wait_s=30.0)) as dispatcher:
            dispatcher.session_started()
            offload = BatchingOffload(dispatcher, data, token="s1")
            block = fresh_root(instance)
            # all-parked (1 >= 1) must release us long before max_wait_s
            bounds, _, _ = offload.bound_block(block)
            reference = fresh_root(instance)
            bound_block(data, reference)
            assert np.array_equal(bounds, reference.lower_bound)

    def test_timeout_releases_a_straggler_pair(self, instance, data):
        with BatchDispatcher(policy=FlushPolicy(max_wait_s=0.01)) as dispatcher:
            dispatcher.session_started()
            dispatcher.session_started()  # a phantom peer that never parks
            offload = BatchingOffload(dispatcher, data, token="s1")
            started = time.perf_counter()
            offload.bound_block(fresh_root(instance))
            assert time.perf_counter() - started < 5.0
            assert dispatcher.stats.flush_reasons.get("timeout", 0) >= 1

    def test_two_threads_coalesce_into_one_launch(self, instance, data):
        with BatchDispatcher(policy=FlushPolicy(max_wait_s=30.0)) as dispatcher:
            dispatcher.session_started()
            dispatcher.session_started()
            results = {}

            def park(token):
                offload = BatchingOffload(dispatcher, data, token=token)
                bounds, _, _ = offload.bound_block(fresh_root(instance))
                results[token] = np.array(bounds)

            threads = [threading.Thread(target=park, args=(t,)) for t in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            dispatcher.session_finished()
            dispatcher.session_finished()
            assert set(results) == {"a", "b"}
            assert dispatcher.stats.n_launches == 1
            assert dispatcher.stats.max_requests_coalesced == 2


class TestBatchingOffload:
    def test_leaf_siblings_short_circuit(self, instance, data):
        """Complete-schedule siblings never reach the dispatcher."""
        dispatcher = BatchDispatcher(autostart=False)  # would park forever
        offload = BatchingOffload(dispatcher, data, token="s1")
        block = fresh_root(instance)
        block.depth[:] = instance.n_jobs  # pretend: complete schedules
        block.lower_bound[:] = 123
        bounds, simulated_s, measured_s = offload.bound_block(block, siblings=True)
        assert bounds is block.lower_bound
        assert (simulated_s, measured_s) == (0.0, 0.0)
        assert dispatcher.pending_requests == 0

    def test_empty_block_short_circuits(self, instance, data):
        from repro.bb.frontier import NodeBlock

        dispatcher = BatchDispatcher(autostart=False)
        offload = BatchingOffload(dispatcher, data, token="s1")
        empty = NodeBlock.empty(instance.n_jobs, instance.n_machines, Trail())
        bounds, _, _ = offload.bound_block(empty)
        assert len(bounds) == 0
        assert dispatcher.pending_requests == 0
