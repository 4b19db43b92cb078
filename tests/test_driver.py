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
   int32 frontier narrowing, the ``max_frontier_nodes`` cap and the
   double-buffered off-load credit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb.driver import (
    LocalBounding,
    SearchDriver,
    SearchHooks,
    SearchLimits,
)
from repro.bb.frontier import BlockFrontier, Trail, bound_block, root_block
from repro.bb.multicore import MulticoreBranchAndBound
from repro.bb.sequential import SequentialBranchAndBound
from repro.bb.stats import SearchStats
from repro.core.cluster import ClusterBranchAndBound, ClusterSpec
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import GpuBranchAndBound
from repro.core.pipeline import HybridBranchAndBound, HybridConfig
from repro.flowshop import FlowShopInstance, random_instance
from repro.flowshop.bounds import LowerBoundData

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
    mode = "worksteal" if "_worksteal_" in key else "static"
    return MulticoreBranchAndBound(
        MEDIUM,
        n_workers=1,
        backend="serial",
        mode=mode,
        decomposition_depth=2,
    ).solve()


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

    def bound_block(self, block, siblings=False):
        bounds, _, _ = self.inner.bound_block(block, siblings=siblings)
        self.calls.append(("block", len(block)))
        return bounds, self.charge * len(block), 0.0


def _seeded_block_run(instance, driver, upper_bound, best_order):
    data = LowerBoundData(instance)
    trail = Trail()
    frontier = BlockFrontier(instance.n_jobs, instance.n_machines, trail)
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
        next_order=1,
    )
    return outcome, stats


class TestHookOrder:
    """select -> improve* -> eliminate -> iteration, per driver step."""

    def _hooked_driver(self, instance, events, batch_size=None, offload=None, limits=None):
        hooks = SearchHooks(
            on_select=lambda k: events.append(("select", k)),
            on_improve_incumbent=lambda mk, order: events.append(("improve", mk, order())),
            on_eliminate=lambda k: events.append(("eliminate", k)),
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
        assert set(kinds) == {"select", "improve", "eliminate", "iteration"}
        # each iteration is one select ... eliminate, iteration block, with
        # improvements (if any) strictly between its select and its iteration
        position = {"select": 0, "improve": 1, "eliminate": 2, "iteration": 3}
        phase = 3  # virtual "iteration" before the first select
        for kind in kinds:
            if kind == "select":
                assert phase == 3, "select must start a fresh iteration"
                phase = 0
            else:
                assert position[kind] > phase
                phase = position[kind] if kind != "improve" else phase
                if kind == "iteration":
                    phase = 3
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
        eliminated = sum(e[1] for e in events if e[0] == "eliminate")
        assert eliminated <= stats.nodes_pruned
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


class TestInt32Frontier:
    def test_block_columns_are_int32(self, medium_instance):
        trail = Trail()
        root = root_block(medium_instance, trail)
        for column in ("release", "lower_bound", "depth", "order_index", "trail_id"):
            assert getattr(root, column).dtype == np.int32, column
        from repro.bb.frontier import branch_block

        children = branch_block(root, medium_instance.processing_times, 1)
        for column in ("release", "lower_bound", "depth", "order_index", "trail_id"):
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
        from repro.flowshop.bounds import lower_bound_batch

        data = LowerBoundData(medium_instance)
        trail = Trail()
        children = branch_block(
            root_block(medium_instance, trail), medium_instance.processing_times, 1
        )
        got = bound_block(data, children)
        want = lower_bound_batch(data, children.scheduled_mask, children.release)
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

        children = branch_block(root, medium_instance.processing_times, 1)
        bound_block(data, children)
        frontier.push_block(children)
        assert frontier.restricted
        assert frontier.pop_min_tie_batch() is None  # batching pauses
        row = frontier.peek_best()
        # depth-first-restricted: the most recent (deepest) node is chosen
        assert int(frontier._order[row]) == int(frontier._order[: len(frontier)].max())

    def test_capped_sequential_stays_exact(self, medium_instance):
        free = SequentialBranchAndBound(medium_instance).solve()
        capped = SequentialBranchAndBound(medium_instance, max_frontier_nodes=8).solve()
        assert capped.proved_optimal
        assert capped.best_makespan == free.best_makespan
        # the cap may be exceeded transiently by one push of <= n_jobs rows
        assert capped.stats.max_pool_size <= 8 + medium_instance.n_jobs
        assert capped.stats.max_pool_size <= free.stats.max_pool_size

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


class TestDoubleBuffer:
    def test_overlap_credit_reduces_simulated_time_only(self, medium_instance):
        plain = GpuBranchAndBound(medium_instance, GpuBBConfig(pool_size=16)).solve()
        buffered = GpuBranchAndBound(
            medium_instance, GpuBBConfig(pool_size=16, double_buffer=True)
        ).solve()
        # the explored tree is untouched
        assert buffered.best_makespan == plain.best_makespan
        assert buffered.best_order == plain.best_order
        for counter in COUNTERS:
            assert getattr(buffered.stats, counter) == getattr(plain.stats, counter), counter
        assert len(buffered.iterations) == len(plain.iterations)
        # only the simulated accounting changes, by exactly the credit
        assert buffered.overlap_saved_sim_s > 0
        assert plain.overlap_saved_sim_s == 0
        assert buffered.simulated_device_time_s == pytest.approx(
            plain.simulated_device_time_s - buffered.overlap_saved_sim_s
        )

    def test_on_overlap_hook_fires(self, small_instance):
        credits: list[float] = []
        data = LowerBoundData(small_instance)
        offload = _RecordingOffload(data, charge=1e-6)
        driver = SearchDriver(
            small_instance,
            offload=offload,
            batch_size=4,
            double_buffer=True,
            hooks=SearchHooks(on_overlap=credits.append),
        )
        outcome, _ = _seeded_block_run(small_instance, driver, float("inf"), ())
        assert outcome.completed
        assert credits, "multi-iteration run must record overlap credits"
        assert outcome.overlap_saved_sim_s == pytest.approx(sum(credits))


class TestWorkstealTieBatching:
    """Best-first workers ride the sequential engine's tie-batch path."""

    def test_best_first_workers_exact(self, medium_instance):
        optimum = SequentialBranchAndBound(medium_instance).solve().best_makespan
        result = MulticoreBranchAndBound(
            medium_instance,
            n_workers=1,
            backend="serial",
            mode="worksteal",
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
    """Fixes from the driver-PR review: overflow guard, cap plumbing, overlap."""

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

    def test_hybrid_result_reports_overlap_credit(self, medium_instance):
        config = HybridConfig(
            n_explorers=2, gpu=GpuBBConfig(pool_size=4, double_buffer=True)
        )
        buffered = HybridBranchAndBound(medium_instance, config).solve()
        plain = HybridBranchAndBound(
            medium_instance,
            HybridConfig(n_explorers=2, gpu=GpuBBConfig(pool_size=4)),
        ).solve()
        assert buffered.best_makespan == plain.best_makespan
        assert buffered.overlap_saved_sim_s > 0  # sub-tree credits are merged
        assert plain.overlap_saved_sim_s == 0

    def test_scalar_offload_skips_batch_array(self, small_instance, monkeypatch):
        import repro.bb.frontier as frontier_module
        from repro.bb.frontier import branch_block
        from repro.flowshop.bounds import lower_bound

        data = LowerBoundData(small_instance)
        trail = Trail()
        root = root_block(small_instance, trail)
        children = branch_block(root, small_instance.processing_times, 1)

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
