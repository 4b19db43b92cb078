"""The :class:`~repro.bb.driver.SearchDriver` contract.

Three layers of guarantees:

1. **Golden equivalence** — every engine routed through the driver
   reproduces, bit for bit, the results captured from the pre-driver
   per-engine loops (commit ``5c32ae4``, "main"): makespan, permutation,
   ``proved_optimal``, every node counter, the trace, and the simulated
   device time.  The goldens below are the verbatim output of those
   historical loops.
2. **Hypothesis equivalence** — on random instances, every engine agrees
   with the serial reference.
3. **Unit behaviour** — hook call order, the stop/budget predicates, the
   int32 frontier narrowing, the ``max_frontier_nodes`` cap and the batch
   shape's checkpoints.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bb.driver as driver_module
from repro.bb.driver import (
    LocalBounding,
    SearchDriver,
    SearchHooks,
    SearchLimits,
    run_search,
)
from repro.bb.frontier import BlockFrontier, Trail, bound_block, root_block
from repro.bb.multicore import MulticoreBranchAndBound
from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.snapshot import CheckpointPolicy, dumps_snapshot, loads_snapshot
from repro.bb.stats import SearchStats
from repro.core.cluster import ClusterBranchAndBound, ClusterSpec
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import GpuBranchAndBound
from repro.core.pipeline import HybridBranchAndBound, HybridConfig
from repro.flowshop import FlowShopInstance, random_instance
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.neh import neh_heuristic
from repro.testing import static_split

#: Results of the pre-driver per-engine solve loops, captured verbatim at
#: the commit that still carried them.  The driver must reproduce these
#: exactly — this is the "bit-identical to main" acceptance criterion.
GOLDENS = json.loads(
    r"""
{
 "cluster_block_pool16": {
  "best_makespan": 539,
  "best_order": [
   6,
   5,
   0,
   2,
   1,
   7,
   4,
   3
  ],
  "n_iterations": 8,
  "proved_optimal": true,
  "simulated_device_time_s": 0.0023469747525560664,
  "stats": {
   "incumbent_updates": 2,
   "leaves_evaluated": 15,
   "max_pool_size": 15,
   "nodes_bounded": 163,
   "nodes_branched": 59,
   "nodes_pruned": 89,
   "pools_evaluated": 9
  }
 },
 "gpu_block_pool16": {
  "best_makespan": 539,
  "best_order": [
   6,
   5,
   0,
   2,
   1,
   7,
   4,
   3
  ],
  "n_iterations": 8,
  "proved_optimal": true,
  "simulated_device_time_s": 0.0004237540577743296,
  "stats": {
   "incumbent_updates": 2,
   "leaves_evaluated": 15,
   "max_pool_size": 15,
   "nodes_bounded": 163,
   "nodes_branched": 59,
   "nodes_pruned": 89,
   "pools_evaluated": 9
  }
 },
 "gpu_block_pool4_iter7": {
  "best_makespan": 542,
  "best_order": [
   6,
   5,
   0,
   7,
   2,
   4,
   1,
   3
  ],
  "n_iterations": 7,
  "proved_optimal": false,
  "simulated_device_time_s": 0.00037882489606784475,
  "stats": {
   "incumbent_updates": 1,
   "leaves_evaluated": 0,
   "max_pool_size": 13,
   "nodes_bounded": 88,
   "nodes_branched": 19,
   "nodes_pruned": 56,
   "pools_evaluated": 8
  }
 },
 "hybrid_block": {
  "best_makespan": 373,
  "best_order": [
   2,
   5,
   1,
   0,
   3,
   4
  ],
  "n_iterations": 3,
  "proved_optimal": true,
  "simulated_device_time_s": 0.0003795230334144718,
  "stats": {
   "incumbent_updates": 0,
   "leaves_evaluated": 0,
   "max_pool_size": 2,
   "nodes_bounded": 22,
   "nodes_branched": 4,
   "nodes_pruned": 18,
   "pools_evaluated": 3
  }
 },
 "multicore_static_block": {
  "best_makespan": 539,
  "best_order": [
   6,
   5,
   2,
   7,
   1,
   0,
   4,
   3
  ],
  "proved_optimal": true,
  "stats": {
   "incumbent_updates": 1,
   "leaves_evaluated": 1,
   "max_pool_size": 7,
   "nodes_bounded": 87,
   "nodes_branched": 8,
   "nodes_pruned": 78,
   "pools_evaluated": 0
  }
 },
 "multicore_worksteal_block": {
  "best_makespan": 539,
  "best_order": [
   6,
   5,
   2,
   7,
   1,
   0,
   4,
   3
  ],
  "proved_optimal": true,
  "stats": {
   "incumbent_updates": 1,
   "leaves_evaluated": 1,
   "max_pool_size": 7,
   "nodes_bounded": 87,
   "nodes_branched": 8,
   "nodes_pruned": 78,
   "pools_evaluated": 0
  }
 },
 "sequential_block": {
  "best_makespan": 539,
  "best_order": [
   6,
   5,
   0,
   2,
   1,
   7,
   4,
   3
  ],
  "proved_optimal": true,
  "stats": {
   "incumbent_updates": 2,
   "leaves_evaluated": 1,
   "max_pool_size": 15,
   "nodes_bounded": 145,
   "nodes_branched": 43,
   "nodes_pruned": 101,
   "pools_evaluated": 0
  }
 },
 "sequential_block_budget40": {
  "best_makespan": 542,
  "best_order": [
   6,
   5,
   0,
   7,
   2,
   4,
   1,
   3
  ],
  "proved_optimal": false,
  "stats": {
   "incumbent_updates": 1,
   "leaves_evaluated": 0,
   "max_pool_size": 10,
   "nodes_bounded": 51,
   "nodes_branched": 9,
   "nodes_pruned": 32,
   "pools_evaluated": 0
  }
 },
 "sequential_block_depth-first": {
  "best_makespan": 539,
  "best_order": [
   6,
   5,
   2,
   7,
   1,
   0,
   4,
   3
  ],
  "proved_optimal": true,
  "stats": {
   "incumbent_updates": 2,
   "leaves_evaluated": 1,
   "max_pool_size": 7,
   "nodes_bounded": 47,
   "nodes_branched": 10,
   "nodes_pruned": 36,
   "pools_evaluated": 0
  }
 },
 "sequential_block_fifo": {
  "best_makespan": 539,
  "best_order": [
   6,
   5,
   0,
   2,
   1,
   7,
   4,
   3
  ],
  "proved_optimal": true,
  "stats": {
   "incumbent_updates": 2,
   "leaves_evaluated": 1,
   "max_pool_size": 15,
   "nodes_bounded": 149,
   "nodes_branched": 45,
   "nodes_pruned": 103,
   "pools_evaluated": 0
  }
 },
 "sequential_block_noneh": {
  "best_makespan": 539,
  "best_order": [
   6,
   5,
   0,
   2,
   1,
   7,
   4,
   3
  ],
  "proved_optimal": true,
  "stats": {
   "incumbent_updates": 1,
   "leaves_evaluated": 1,
   "max_pool_size": 102,
   "nodes_bounded": 145,
   "nodes_branched": 43,
   "nodes_pruned": 101,
   "pools_evaluated": 0
  }
 },
 "sequential_block_trace": {
  "best_makespan": 373,
  "best_order": [
   2,
   5,
   1,
   0,
   3,
   4
  ],
  "proved_optimal": true,
  "stats": {
   "incumbent_updates": 1,
   "leaves_evaluated": 0,
   "max_pool_size": 2,
   "nodes_bounded": 23,
   "nodes_branched": 5,
   "nodes_pruned": 18,
   "pools_evaluated": 0
  },
  "trace": [
   [
    [],
    344,
    373.0,
    "branched"
   ],
   [
    [
     0
    ],
    401,
    373.0,
    "pruned"
   ],
   [
    [
     1
    ],
    396,
    373.0,
    "pruned"
   ],
   [
    [
     3
    ],
    419,
    373.0,
    "pruned"
   ],
   [
    [
     4
    ],
    441,
    373.0,
    "pruned"
   ],
   [
    [
     5
    ],
    388,
    373.0,
    "pruned"
   ],
   [
    [
     2
    ],
    344,
    373.0,
    "branched"
   ],
   [
    [
     2,
     0
    ],
    401,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     3
    ],
    399,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     4
    ],
    435,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     5
    ],
    359,
    373.0,
    "branched"
   ],
   [
    [
     2,
     5,
     0
    ],
    401,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     5,
     1
    ],
    373,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     5,
     3
    ],
    405,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     5,
     4
    ],
    441,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     1
    ],
    367,
    373.0,
    "branched"
   ],
   [
    [
     2,
     1,
     3
    ],
    378,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     1,
     4
    ],
    379,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     1,
     5
    ],
    381,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     1,
     0
    ],
    368,
    373.0,
    "branched"
   ],
   [
    [
     2,
     1,
     0,
     3
    ],
    404,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     1,
     0,
     4
    ],
    440,
    373.0,
    "pruned"
   ],
   [
    [
     2,
     1,
     0,
     5
    ],
    375,
    373.0,
    "pruned"
   ]
  ]
 }
}
"""
)

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


def _run(key: str):
    if key.startswith("sequential"):
        kwargs: dict = {}
        if key.endswith("_noneh"):
            kwargs["initial_upper_bound"] = float("inf")
        if key.endswith("_budget40"):
            kwargs["max_nodes"] = 40
        if key.endswith("_trace"):
            kwargs["trace"] = True
            return SequentialBranchAndBound(SMALL, **kwargs).solve()
        if key.endswith("_depth-first"):
            kwargs["selection"] = "depth-first"
        if key.endswith("_fifo"):
            kwargs["selection"] = "fifo"
        return SequentialBranchAndBound(MEDIUM, **kwargs).solve()
    if key.startswith("gpu"):
        if key.endswith("_pool4_iter7"):
            config = GpuBBConfig(pool_size=4, max_iterations=7)
        else:
            config = GpuBBConfig(pool_size=16)
        return GpuBranchAndBound(MEDIUM, config).solve()
    if key.startswith("cluster"):
        return ClusterBranchAndBound(
            MEDIUM, ClusterSpec(n_nodes=3), GpuBBConfig(pool_size=16)
        ).solve()
    if key.startswith("hybrid"):
        return HybridBranchAndBound(
            SMALL, HybridConfig(n_explorers=2, gpu=GpuBBConfig(pool_size=16))
        ).solve()
    if "_worksteal_" in key:
        return MulticoreBranchAndBound(
            MEDIUM, n_workers=1, backend="serial", decomposition_depth=2
        ).solve()
    return static_split(MEDIUM, decomposition_depth=2)


class TestGoldenEquivalence:
    """Driver-routed engines reproduce the historical loops bit for bit."""

    @pytest.mark.parametrize("key", sorted(GOLDENS))
    def test_matches_main(self, key):
        golden = GOLDENS[key]
        result = _run(key)
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


class TestHypothesisEquivalence:
    """Every engine explores to the serial reference's optimum."""

    @given(st.integers(0, 2000), st.integers(3, 7), st.integers(1, 4))
    @settings(max_examples=12, deadline=None)
    def test_all_engines_agree(self, seed, n, m):
        rng = np.random.default_rng(seed)
        instance = FlowShopInstance(rng.integers(1, 30, size=(n, m)))
        reference = SequentialBranchAndBound(instance).solve()
        runs = {
            "gpu": GpuBranchAndBound(instance, GpuBBConfig(pool_size=8)).solve(),
            "cluster": ClusterBranchAndBound(
                instance, ClusterSpec(n_nodes=2), GpuBBConfig(pool_size=8)
            ).solve(),
            "worksteal": MulticoreBranchAndBound(
                instance, n_workers=1, backend="serial"
            ).solve(),
        }
        assert reference.proved_optimal
        for name, result in runs.items():
            assert result.proved_optimal, name
            assert result.best_makespan == reference.best_makespan, name


class _RecordingOffload:
    """LocalBounding wrapper that logs calls and charges fake device time."""

    def __init__(self, data, charge=0.0):
        self.inner = LocalBounding(data)
        self.calls: list[tuple[str, int]] = []
        self.charge = charge

    def bound_block(self, block):
        bounds, _, _ = self.inner.bound_block(block)
        self.calls.append(("block", len(block)))
        return bounds, self.charge * len(block), 0.0


def _seeded_block_state(instance, driver, upper_bound, best_order, max_pending=None):
    """Run ``driver`` from the bounded root; ``(outcome, stats, frontier)``."""
    data = LowerBoundData(instance)
    trail = Trail()
    frontier = BlockFrontier(
        instance.n_jobs, instance.n_machines, trail, max_pending=max_pending
    )
    root = root_block(instance, trail)
    bound_block(data, root)
    stats = SearchStats(nodes_bounded=1)
    frontier.push_block(root)
    outcome = driver.run(
        frontier,
        upper_bound=upper_bound,
        best_order=best_order,
        stats=stats,
        trail=trail,
    )
    return outcome, stats, frontier


def _seeded_block_run(instance, driver, upper_bound, best_order):
    outcome, stats, _ = _seeded_block_state(instance, driver, upper_bound, best_order)
    return outcome, stats


class TestHookOrder:
    """select -> improve* -> iteration, per driver step."""

    def _hooked_driver(self, instance, events, batch_size=None, offload=None, limits=None):
        hooks = SearchHooks(
            on_select=lambda k: events.append(("select", k)),
            on_improve_incumbent=lambda mk, order: events.append(("improve", mk, order())),
            on_iteration=lambda step: events.append(("iteration", step.iteration)),
        )
        return SearchDriver(
            instance,
            LowerBoundData(instance),
            offload=offload,
            batch_size=batch_size,
            hooks=hooks,
            limits=limits,
        )

    def test_batch_mode_order(self, small_instance):
        events: list = []
        driver = self._hooked_driver(small_instance, events, batch_size=8)
        outcome, _ = _seeded_block_run(small_instance, driver, float("inf"), ())
        assert outcome.completed and outcome.improved
        kinds = [e[0] for e in events]
        assert set(kinds) == {"select", "improve", "iteration"}
        # each iteration is one select ... iteration block, with
        # improvements (if any) strictly between its select and its iteration
        in_iteration = False
        for kind in kinds:
            if kind == "select":
                assert not in_iteration, "select must start a fresh iteration"
                in_iteration = True
            else:
                assert in_iteration, f"{kind} outside an iteration"
                if kind == "iteration":
                    in_iteration = False
        assert kinds[-1] == "iteration"

    def test_improvement_orders_materialize_lazily(self, small_instance):
        events: list = []
        driver = self._hooked_driver(small_instance, events, batch_size=8)
        outcome, _ = _seeded_block_run(small_instance, driver, float("inf"), ())
        improvements = [e for e in events if e[0] == "improve"]
        assert improvements, "search from +inf must improve at least once"
        assert improvements[-1][1] == int(outcome.upper_bound)
        assert improvements[-1][2] == outcome.best_order
        makespans = [e[1] for e in improvements]
        assert makespans == sorted(makespans, reverse=True)

    def test_single_mode_hooks_and_counts(self, small_instance):
        events: list = []
        driver = self._hooked_driver(small_instance, events)
        outcome, stats = _seeded_block_run(small_instance, driver, float("inf"), ())
        assert outcome.completed
        selected = sum(e[1] for e in events if e[0] == "select")
        assert selected == stats.nodes_explored
        assert not any(e[0] == "iteration" for e in events), "single mode has no pools"

    def test_offload_charge_accumulates(self, small_instance):
        data = LowerBoundData(small_instance)
        offload = _RecordingOffload(data, charge=0.5)
        driver = SearchDriver(small_instance, offload=offload, batch_size=8)
        outcome, stats = _seeded_block_run(small_instance, driver, float("inf"), ())
        assert outcome.simulated_s == pytest.approx(0.5 * (stats.nodes_bounded - 1))
        assert offload.calls and all(kind == "block" for kind, _ in offload.calls)


class TestStopPredicates:
    def test_max_nodes(self, medium_instance):
        result = SequentialBranchAndBound(medium_instance, max_nodes=5).solve()
        assert not result.proved_optimal
        assert result.stats.nodes_explored >= 5

    def test_max_time(self, medium_instance):
        result = SequentialBranchAndBound(medium_instance, max_time_s=1e-9).solve()
        assert not result.proved_optimal

    def test_max_iterations(self, medium_instance):
        result = GpuBranchAndBound(
            medium_instance, GpuBBConfig(pool_size=4, max_iterations=3)
        ).solve()
        assert not result.proved_optimal
        assert len(result.iterations) == 3

    def test_deadline_already_passed(self, small_instance):
        driver = SearchDriver(
            small_instance,
            LowerBoundData(small_instance),
            limits=SearchLimits(deadline=0.0),  # epoch 0: long gone
        )
        outcome, stats = _seeded_block_run(small_instance, driver, float("inf"), ())
        assert not outcome.completed
        assert stats.nodes_explored == 0

    def test_validation(self, small_instance):
        with pytest.raises(ValueError):
            SearchDriver(small_instance, LowerBoundData(small_instance), batch_size=0)
        with pytest.raises(ValueError):
            SearchDriver(small_instance)  # no offload and no data
        with pytest.raises(ValueError):
            driver = SearchDriver(small_instance, LowerBoundData(small_instance))
            driver.run(None, upper_bound=1.0, stats=SearchStats())  # needs a trail


def _budget_instance(n, m, seed):
    return FlowShopInstance(np.random.default_rng(seed).integers(1, 100, size=(n, m)))


class TestStaleDrain:
    """A stale best-first frontier is dropped in one step, budgets included.

    Once the best pending bound meets the incumbent every pending node is
    stale.  The tie-batch loop drops them all in one step (under a node
    budget, only the smallest keys the budget still reaches); single pops
    drain them one node at a time.  Both must stop in the same state.
    """

    @staticmethod
    def _state(instance, budget, tie_batching, upper_bound):
        driver = SearchDriver(
            instance,
            LowerBoundData(instance),
            limits=SearchLimits(max_nodes=budget),
            tie_batching=tie_batching,
        )
        outcome, stats, frontier = _seeded_block_state(instance, driver, upper_bound, ())
        stale = bool(frontier) and frontier.best_lower_bound() >= outcome.upper_bound
        pending = frontier.pop_batch(len(frontier))[0] if frontier else None
        keys = (
            []
            if pending is None
            else list(zip(pending.lower_bound, pending.depth, pending.trail_id))
        )
        counters = {name: getattr(stats, name) for name in COUNTERS if name != "max_pool_size"}
        state = (
            outcome.completed,
            outcome.upper_bound,
            outcome.best_order,
            len(frontier._trail),
            frontier.max_size_seen,
            counters,
            [tuple(int(v) for v in key) for key in keys],
        )
        return state, stale

    @pytest.mark.parametrize(
        "n, m, seed", [(7, 5, 1), (8, 5, 1), (8, 5, 4), (8, 5, 10), (9, 4, 6), (9, 4, 9)]
    )
    def test_budgets_stop_in_the_single_pop_state(self, n, m, seed, tmp_path):
        instance = _budget_instance(n, m, seed)
        upper_bound = float(neh_heuristic(instance).makespan)
        full, _ = self._state(instance, None, True, upper_bound)
        total = full[5]["nodes_branched"] + full[5]["nodes_pruned"]
        budgets = sorted(set(range(1, total + 3, max(1, total // 40))) | {total, total + 1})
        stale_stops = []
        for budget in budgets:
            batched, stale = self._state(instance, budget, True, upper_bound)
            single, _ = self._state(instance, budget, False, upper_bound)
            assert batched == single, budget
            if stale:
                stale_stops.append(budget)
        # the sweep reaches the stale phase: some budgets stop with a
        # non-empty frontier whose best bound already meets the incumbent
        assert stale_stops

        # a serial-engine snapshot written there resumes to the full result
        path = tmp_path / "stale.rpbb"
        cut = SequentialBranchAndBound(
            instance, max_nodes=stale_stops[0], checkpoint_path=path
        ).solve()
        assert not cut.proved_optimal
        resumed = SequentialBranchAndBound.resume(path)
        reference = SequentialBranchAndBound(instance).solve()
        assert resumed.proved_optimal
        assert resumed.best_makespan == reference.best_makespan
        assert resumed.best_order == reference.best_order
        for counter in COUNTERS:
            assert getattr(resumed.stats, counter) == getattr(reference.stats, counter), counter

    def test_unbudgeted_drain_is_one_step(self, monkeypatch):
        instance = _budget_instance(9, 4, 9)
        upper_bound = float(neh_heuristic(instance).makespan)
        sweeps: list[tuple[int, int]] = []
        prune_to = BlockFrontier.prune_to

        def recording_prune_to(frontier, bound):
            pending = len(frontier)
            removed = prune_to(frontier, bound)
            sweeps.append((pending, removed))
            return removed

        monkeypatch.setattr(BlockFrontier, "prune_to", recording_prune_to)
        runs = {}
        for tie_batching in (True, False):
            selections: list[int] = []
            driver = SearchDriver(
                instance,
                LowerBoundData(instance),
                hooks=SearchHooks(on_select=selections.append),
                tie_batching=tie_batching,
            )
            outcome, stats, frontier = _seeded_block_state(instance, driver, upper_bound, ())
            assert outcome.completed and not frontier
            runs[tie_batching] = (selections, stats.nodes_explored)
        (batched, explored), (single, single_explored) = runs[True], runs[False]
        assert explored == single_explored and sum(batched) == sum(single)
        # one sweep drops the whole stale remainder, and the step that
        # popped the stale batch reports it as one selection
        assert len(sweeps) == 1
        pending, removed = sweeps[0]
        assert pending == removed > 0
        assert batched[-1] > removed


class TestBoundPolling:
    """``poll_bound`` fires at the first step after every ``POLL_INTERVAL``
    selected nodes, however many nodes each step selects."""

    @pytest.mark.parametrize("interval", [1, 8, 64])
    def test_polls_track_selected_nodes(self, interval, monkeypatch):
        monkeypatch.setattr(driver_module, "POLL_INTERVAL", interval)
        instance = _budget_instance(12, 6, 2012)
        events: list = []
        hooks = SearchHooks(
            on_select=events.append,
            poll_bound=lambda: events.append(None) or float("inf"),
        )
        driver = SearchDriver(instance, LowerBoundData(instance), hooks=hooks)
        upper_bound = float(neh_heuristic(instance).makespan)
        outcome, _, _ = _seeded_block_state(instance, driver, upper_bound, ())
        assert outcome.completed
        assert max(e for e in events if e is not None) > 1, "no tie batch to skip over"
        since = 0  # nodes selected since the last poll (or the start)
        for event in events:
            if event is None:
                assert since >= interval, "polled early"
                since = 0
            else:
                assert since < interval, "a poll was due before this selection"
                since += event
        selected = sum(e for e in events if e is not None)
        assert interval * events.count(None) <= selected


class TestInt32Frontier:
    def test_block_columns_are_int32(self, medium_instance):
        trail = Trail()
        root = root_block(medium_instance, trail)
        for column in ("release", "lower_bound", "depth", "trail_id"):
            assert getattr(root, column).dtype == np.int32, column
        from repro.bb.frontier import branch_block

        children = branch_block(root, medium_instance.processing_times)
        for column in ("release", "lower_bound", "depth", "trail_id"):
            assert getattr(children, column).dtype == np.int32, column

    def test_frontier_storage_is_int32_with_int64_keys(self, medium_instance):
        trail = Trail()
        frontier = BlockFrontier(medium_instance.n_jobs, medium_instance.n_machines, trail)
        root = root_block(medium_instance, trail)
        bound_block(LowerBoundData(medium_instance), root)
        frontier.push_block(root)
        assert frontier._release.dtype == np.int32
        assert frontier._lb.dtype == np.int32
        assert frontier._key.dtype == np.int64  # packed key keeps full width

    def test_bounds_written_back_through_int64_boundary(self, medium_instance):
        from repro.bb.frontier import branch_block
        from repro.flowshop.bounds import lower_bound_batch, unpack_mask

        data = LowerBoundData(medium_instance)
        trail = Trail()
        root = root_block(medium_instance, trail)
        children = branch_block(root, medium_instance.processing_times)
        got = bound_block(data, children)
        mask = unpack_mask(children.mask_bits, children.n_jobs)
        want = lower_bound_batch(data, mask, children.release)
        assert want.dtype == np.int64  # kernels stay int64 internally
        assert got.dtype == np.int32  # written back into the block column
        assert np.array_equal(got, want)


class TestFrontierMemoryCap:
    def test_restricted_regime_pops_deepest(self, medium_instance):
        data = LowerBoundData(medium_instance)
        trail = Trail()
        frontier = BlockFrontier(
            medium_instance.n_jobs, medium_instance.n_machines, trail, max_pending=2
        )
        root = root_block(medium_instance, trail)
        bound_block(data, root)
        frontier.push_block(root)
        assert not frontier.restricted
        from repro.bb.frontier import branch_block

        children = branch_block(root, medium_instance.processing_times)
        bound_block(data, children)
        frontier.push_block(children)
        assert frontier.restricted
        assert frontier.pop_min_tie_batch() is None  # batching pauses
        row = frontier.peek_best()
        # depth-first-restricted: the most recent (deepest) node is chosen
        assert int(frontier._tid[row]) == int(frontier._tid[: len(frontier)].max())

    def test_capped_sequential_stays_exact(self, medium_instance):
        free = SequentialBranchAndBound(medium_instance).solve()
        capped = SequentialBranchAndBound(medium_instance, max_frontier_nodes=8).solve()
        assert capped.proved_optimal
        assert capped.best_makespan == free.best_makespan
        # the cap may be exceeded transiently by one push of <= n_jobs rows
        assert capped.stats.max_pool_size <= 8 + medium_instance.n_jobs
        assert capped.stats.max_pool_size <= free.stats.max_pool_size

    @staticmethod
    def _capped_state(instance, tie_batching, cap, budget=None):
        driver = SearchDriver(
            instance,
            LowerBoundData(instance),
            limits=SearchLimits(max_nodes=budget),
            tie_batching=tie_batching,
        )
        upper_bound = float(neh_heuristic(instance).makespan)
        outcome, stats, frontier = _seeded_block_state(
            instance, driver, upper_bound, (), max_pending=cap
        )
        pending = frontier.pop_batch(len(frontier))[0] if frontier else None
        keys = (
            []
            if pending is None
            else sorted(zip(pending.lower_bound.tolist(), pending.trail_id.tolist()))
        )
        counters = {name: getattr(stats, name) for name in COUNTERS if name != "max_pool_size"}
        return (
            outcome.completed,
            outcome.upper_bound,
            outcome.best_order,
            len(frontier._trail),
            frontier.max_size_seen,
            frontier.regime_switches,
            counters,
            keys,
        )

    def test_tie_batches_stop_short_of_the_cap(self):
        # uncut, one tie batch of this search takes the store from below
        # the cap of 50 to 143 pending nodes in one push; a batch must stop
        # where single pops would turn depth-first
        instance, cap = random_instance(9, 3, seed=7), 50
        capped = SequentialBranchAndBound(instance, max_frontier_nodes=cap).solve()
        assert capped.proved_optimal
        assert capped.stats.max_pool_size <= cap + instance.n_jobs
        batched = self._capped_state(instance, True, cap)
        single = self._capped_state(instance, False, cap)
        assert batched == single
        assert batched[4] == capped.stats.max_pool_size
        assert batched[5] > 0  # the run did reach its cap

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(7, 3), (8, 3), (8, 4), (9, 3)]),
        seed=st.integers(0, 40),
        cap=st.one_of(st.none(), st.integers(1, 80)),
        budget=st.one_of(st.none(), st.integers(1, 3000)),
    )
    def test_tie_batched_runs_equal_single_pops_under_caps_and_budgets(
        self, shape, seed, cap, budget
    ):
        instance = random_instance(*shape, seed=seed)
        batched = self._capped_state(instance, True, cap, budget)
        assert batched == self._capped_state(instance, False, cap, budget)

    def test_capped_gpu_engine_stays_exact(self, medium_instance):
        free = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=16)).solve()
        capped = GpuBranchAndBound(
            medium_instance, GpuBBConfig(pool_size=16, max_frontier_nodes=8)
        ).solve()
        assert capped.proved_optimal
        assert capped.best_makespan == free.best_makespan

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            GpuBBConfig(max_frontier_nodes=0)
        with pytest.raises(ValueError):
            SequentialBranchAndBound(MEDIUM, max_frontier_nodes=0)
        with pytest.raises(ValueError):
            BlockFrontier(4, 2, Trail(), max_pending=0)

    def test_cli_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "solve",
                    "--jobs",
                    "6",
                    "--machines",
                    "4",
                    "--engine",
                    "serial",
                    "--max-frontier-nodes",
                    "16",
                ]
            )
            == 0
        )
        assert "makespan" in capsys.readouterr().out


class TestBatchCheckpoint:
    def test_iteration_boundary_snapshot_resumes_bit_identical(self, medium_instance):
        """A batch-shape snapshot taken between iterations replays the tail exactly."""
        data = LowerBoundData(medium_instance)

        def batch_driver(**kwargs):
            return SearchDriver(
                medium_instance, offload=LocalBounding(data), batch_size=6, **kwargs
            )

        golden, golden_stats, golden_frontier = _seeded_block_state(
            medium_instance, batch_driver(), float("inf"), ()
        )
        created = len(golden_frontier._trail)
        blobs = []

        def capture(state):
            blobs.append(
                dumps_snapshot(
                    medium_instance,
                    frontier=state.frontier,
                    trail=state.trail,
                    upper_bound=state.upper_bound,
                    best_order=state.best_order_supplier(),
                    stats=state.stats,
                    engine={"engine": "test"},
                )
            )

        full, full_stats, full_frontier = _seeded_block_state(
            medium_instance,
            batch_driver(
                hooks=SearchHooks(on_checkpoint=capture),
                checkpoint=CheckpointPolicy(every_steps=2),
            ),
            float("inf"),
            (),
        )
        # taking snapshots does not steer the search
        assert (full.upper_bound, full.best_order, full.iterations, len(full_frontier._trail)) == (
            golden.upper_bound,
            golden.best_order,
            golden.iterations,
            created,
        )
        for counter in COUNTERS:
            assert getattr(full_stats, counter) == getattr(golden_stats, counter), counter
        assert len(blobs) >= 2, "the run must cross several iteration boundaries"

        for blob in (blobs[0], blobs[-1]):
            snap = loads_snapshot(blob)
            outcome = batch_driver().run(
                snap.frontier,
                upper_bound=snap.upper_bound,
                best_order=snap.best_order,
                stats=snap.stats,
                trail=snap.trail,
            )
            assert outcome.completed
            assert outcome.upper_bound == golden.upper_bound
            assert outcome.best_order == golden.best_order
            assert len(snap.trail) == created
            for counter in COUNTERS:
                assert getattr(snap.stats, counter) == getattr(golden_stats, counter), counter


class _CompleteSetGuard(_RecordingOffload):
    """Counts the blocks handed to it whose rows are all complete schedules."""

    def __init__(self, data):
        super().__init__(data)
        self.complete_blocks = 0

    def bound_block(self, block):
        if len(block) and (block.depth == block.n_jobs).all():
            self.complete_blocks += 1
        return super().bound_block(block)


class TestCompleteSiblingSets:
    """Branching writes a complete child's makespan as its bound, so the
    single-step loop offloads no sibling set of complete schedules."""

    @pytest.mark.parametrize("selection", ["depth-first", "best-first"])
    def test_offload_never_sees_an_all_complete_block(self, medium_instance, selection):
        # depth-first pops one node per step; best-first pops (lb, depth)
        # tie batches, whose members at depth n - 1 are examined one by one
        offload = _CompleteSetGuard(LowerBoundData(medium_instance))
        driver = SearchDriver(medium_instance, selection=selection, offload=offload)
        outcome, stats = run_search(driver, (), upper_bound=float("inf"))
        reference = SequentialBranchAndBound(
            medium_instance, selection=selection, initial_upper_bound=float("inf")
        ).solve()
        assert outcome.completed and outcome.upper_bound == reference.best_makespan
        for counter in COUNTERS:
            assert getattr(stats, counter) == getattr(reference.stats, counter), counter
        assert stats.leaves_evaluated > 0 and offload.calls
        assert offload.complete_blocks == 0


class TestOneNodePops:
    """The one-node pops of the single-step body: unpacked keys and a frontier cap."""

    SCALE = 1 << 16

    @pytest.mark.parametrize("n, m, seed", [(8, 5, 17), (9, 4, 6), (10, 6, 3)])
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"max_nodes": 200}, {"selection": "depth-first"}],
        ids=["unbudgeted", "budget200", "depth-first"],
    )
    def test_unpacked_keys_explore_the_tie_batched_tree(self, n, m, seed, kwargs, monkeypatch):
        """Times scaled by 2**16 push bounds past the packed key's 22 bits.

        The scaled run pops one node at a time on unpacked keys; it must
        return the same order, the makespan times 2**16 and every counter
        of the unscaled, tie-batched run.
        """
        instance = random_instance(n, m, seed=seed)
        scaled = FlowShopInstance(instance.processing_times * self.SCALE)
        batched: list[bool] = []
        pop = BlockFrontier.pop_min_tie_batch

        def recording(frontier, *args):
            block = pop(frontier, *args)
            batched.append(block is not None)
            return block

        monkeypatch.setattr(BlockFrontier, "pop_min_tie_batch", recording)
        plain = SequentialBranchAndBound(instance, **kwargs).solve()
        assert any(batched) == ("selection" not in kwargs)
        batched.clear()
        big = SequentialBranchAndBound(scaled, **kwargs).solve()
        assert not any(batched)
        assert big.best_order == plain.best_order
        assert big.best_makespan == plain.best_makespan * self.SCALE
        assert big.proved_optimal == plain.proved_optimal
        for counter in COUNTERS:
            assert getattr(big.stats, counter) == getattr(plain.stats, counter), counter

    def test_capped_run_golden(self, monkeypatch):
        """A capped run mixing 3 tie batches with 408 one-node pops.

        Recorded from the driver that still had a separate one-node body.
        """
        batches: list[int] = []
        singles: list[int] = []
        pop, pop_one = BlockFrontier.pop_min_tie_batch, BlockFrontier._pop_one_index

        def recording(frontier, *args):
            block = pop(frontier, *args)
            if block is not None:
                batches.append(len(block))
            return block

        def recording_one(frontier):
            singles.append(1)
            return pop_one(frontier)

        monkeypatch.setattr(BlockFrontier, "pop_min_tie_batch", recording)
        monkeypatch.setattr(BlockFrontier, "_pop_one_index", recording_one)
        result = SequentialBranchAndBound(
            random_instance(10, 5, seed=4), max_frontier_nodes=8, initial_upper_bound=float("inf")
        ).solve()
        assert (len(batches), len(singles)) == (3, 408)
        assert result.proved_optimal and result.best_makespan == 836
        assert result.best_order == (4, 9, 5, 3, 2, 0, 1, 6, 7, 8)
        assert {name: getattr(result.stats, name) for name in COUNTERS} == {
            "nodes_bounded": 1054,
            "nodes_branched": 264,
            "nodes_pruned": 764,
            "leaves_evaluated": 26,
            "incumbent_updates": 26,
            "pools_evaluated": 0,
            "max_pool_size": 46,
        }


class TestBranchingTables:
    """The seed and every branching call of a solve read one set of
    per-job cumulative times, built once."""

    @pytest.mark.parametrize("engine", ["best-first", "depth-first", "gpu"])
    def test_one_table_build_per_solve(self, medium_instance, engine, monkeypatch):
        import repro.bb.frontier as frontier_module
        from repro.flowshop.schedule import job_cumulative_times

        builds: list[tuple[int, int]] = []
        branchings: list[int] = []

        def counting(processing_times, *args):
            builds.append(processing_times.shape)
            return job_cumulative_times(processing_times, *args)

        def spy(branch):
            def counted(*args, **kwargs):
                branchings.append(1)
                return branch(*args, **kwargs)

            return counted

        monkeypatch.setattr(frontier_module, "job_cumulative_times", counting)
        monkeypatch.setattr(driver_module, "job_cumulative_times", counting, raising=False)
        for name in ("branch_row", "branch_block"):
            monkeypatch.setattr(driver_module, name, spy(getattr(driver_module, name)))
        if engine == "gpu":
            result = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=16)).solve()
        else:
            result = SequentialBranchAndBound(medium_instance, selection=engine).solve()
        assert result.proved_optimal
        assert len(branchings) > 1
        assert builds == [medium_instance.shape]


class TestWorkstealTieBatching:
    """Best-first workers ride the sequential engine's tie-batch path."""

    def test_best_first_workers_exact(self, medium_instance):
        optimum = SequentialBranchAndBound(medium_instance).solve().best_makespan
        result = MulticoreBranchAndBound(
            medium_instance,
            n_workers=1,
            backend="serial",
            selection="best-first",
            decomposition_depth=2,
        ).solve()
        assert result.proved_optimal
        assert result.best_makespan == optimum
        stats = result.stats
        assert stats.nodes_bounded == (
            stats.nodes_branched + stats.nodes_pruned + stats.leaves_evaluated
        )

    def test_block_workers_bound_ties_in_fewer_launches(self, medium_instance):
        # tie batching pops (lb, depth) ties together: the offload sees the
        # same node set as one-node-per-step popping in at-most-as-many
        # launches
        data = LowerBoundData(medium_instance)
        launches = {}
        for batched in (False, True):
            offload = _RecordingOffload(data)
            driver = SearchDriver(
                medium_instance,
                selection="best-first",
                offload=offload,
                tie_batching=batched,
            )
            outcome, stats = _seeded_block_run(medium_instance, driver, float("inf"), ())
            assert outcome.completed
            launches[batched] = (len(offload.calls), stats.nodes_bounded)
        assert launches[True][1] == launches[False][1]  # same nodes bounded
        assert launches[True][0] <= launches[False][0]  # in fewer launches


class TestReviewRegressions:
    """Fixes from the driver-PR review: overflow guard, cap plumbing."""

    def test_trail_overflows_loudly_not_silently(self):
        from repro.bb.frontier import _INT32_ID_LIMIT

        trail = Trail(capacity=4)
        trail._size = _INT32_ID_LIMIT  # simulate a 2**31-node search
        with pytest.raises(OverflowError, match="limit of the int32 node ids"):
            trail.append(0, 1)

    def test_multicore_engine_honours_frontier_cap(self, medium_instance):
        free = MulticoreBranchAndBound(medium_instance, n_workers=1, backend="serial").solve()
        capped = MulticoreBranchAndBound(
            medium_instance,
            n_workers=1,
            backend="serial",
            selection="best-first",
            max_frontier_nodes=4,
        ).solve()
        assert capped.proved_optimal
        assert capped.best_makespan == free.best_makespan

    def test_scalar_offload_skips_batch_array(self, small_instance, monkeypatch):
        import repro.bb.frontier as frontier_module
        from repro.bb.frontier import branch_block
        from repro.flowshop.bounds import lower_bound

        data = LowerBoundData(small_instance)
        trail = Trail()
        root = root_block(small_instance, trail)
        children = branch_block(root, small_instance.processing_times)

        def no_batch_kernel(kernel):
            raise AssertionError(f"scalar bounding resolved batch kernel {kernel!r}")

        monkeypatch.setattr(frontier_module, "get_batch_kernel", no_batch_kernel)
        backend = LocalBounding(data, kernel="scalar")
        _, sim_s, wall_s = backend.bound_block(children)
        assert (sim_s, wall_s) == (0.0, 0.0)
        expected = [
            lower_bound(data, children.prefix(i), release=children.release[i])
            for i in range(len(children))
        ]
        assert children.lower_bound.tolist() == expected
