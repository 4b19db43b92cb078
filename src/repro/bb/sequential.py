"""Serial Branch-and-Bound for the permutation flow shop.

This is the single-core reference of every speed-up reported by the paper
(``T_cpu``): selection, branching, bounding and elimination all run on the
host, one node at a time.  The engine is instrumented so the share of time
spent in the bounding operator can be measured (the paper's preliminary
experiment reports ~98.5 % on the m=20 Taillard instances).

A ``trace`` mode records every node with its bound and fate, which is how
the Figure 1 example tree (3-job instance) is regenerated in the examples
and tests.

The solve loop itself lives in :class:`~repro.bb.driver.SearchDriver` —
this engine is the driver's single-step configuration with the local
(zero-simulated-charge) bounding backend; it starts
:func:`~repro.bb.driver.run_search` from the root (or a snapshot) and wraps
the outcome into a :class:`BBResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.bb.driver import (
    SearchDriver,
    SearchHooks,
    SearchLimits,
    TraceEvent,
    run_search,
)
from repro.bb.frontier import bound_block  # noqa: F401 - perfbench's traced run wraps this name
from repro.bb.snapshot import (
    CheckpointPolicy,
    CheckpointState,
    Snapshot,
    dumps_snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.bb.stats import SearchStats
from repro.flowshop.bounds import LowerBoundData
from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.neh import neh_heuristic
from repro.flowshop.schedule import Schedule

__all__ = ["BBResult", "TraceEvent", "SequentialBranchAndBound", "initial_incumbent"]


def initial_incumbent(
    instance: FlowShopInstance, initial_upper_bound: Optional[float]
) -> tuple[float, tuple[int, ...]]:
    """Launch-time incumbent: the caller's explicit bound, else the NEH heuristic.

    The serial engine, service sessions and the multicore and
    work-stealing coordinators all start from it.
    """
    if initial_upper_bound is not None:
        return float(initial_upper_bound), ()
    heuristic = neh_heuristic(instance)
    return float(heuristic.makespan), tuple(heuristic.order)


@dataclass
class BBResult:
    """Outcome of a Branch-and-Bound run."""

    instance: FlowShopInstance
    best_makespan: int
    best_order: tuple[int, ...]
    #: True when the search ran to completion (no node / time limit hit)
    proved_optimal: bool
    stats: SearchStats = field(default_factory=SearchStats)
    trace: list[TraceEvent] = field(default_factory=list)

    @property
    def best_schedule(self) -> Schedule:
        """The incumbent permutation as a :class:`Schedule` (recomputes timing)."""
        return Schedule(self.instance, self.best_order)

    def summary(self) -> dict[str, object]:
        """Flat JSON-friendly dict: instance, makespan, optimality + counters."""
        payload: dict[str, object] = {
            "instance": self.instance.name or f"{self.instance.n_jobs}x{self.instance.n_machines}",
            "best_makespan": self.best_makespan,
            "proved_optimal": self.proved_optimal,
        }
        payload.update(self.stats.as_dict())
        return payload


class SequentialBranchAndBound:
    """Serial best-first (or depth-first) Branch-and-Bound.

    Parameters
    ----------
    instance:
        The flow-shop instance to solve.
    selection:
        Selection strategy: ``"best-first"`` (paper's default),
        ``"depth-first"`` or ``"fifo"``.
    initial_upper_bound:
        Starting incumbent value.  ``None`` seeds the search with the NEH
        heuristic (recommended); ``float("inf")`` starts from scratch.
    max_nodes / max_time_s:
        Optional exploration budgets; when either is hit the result is
        returned with ``proved_optimal=False``.
    trace:
        Record a :class:`TraceEvent` per examined node (small instances only).
    kernel:
        Bounding kernel used for the children of a branched node:
        ``"v2"`` (default) evaluates all siblings in one batched call;
        ``"scalar"`` keeps the paper-faithful one-call-per-child evaluation
        (used by the bounding-fraction experiment, which reproduces the
        paper's 98.5 % measurement of exactly that path).  Bounds are
        bit-identical in both modes, so the explored tree does not depend
        on this choice.
    max_frontier_nodes:
        High-water memory cap of the pending frontier.
        Once the frontier reaches this many nodes, best-first selection
        switches to a depth-first-restricted regime and — hysteretically —
        stays there until elimination drains the frontier below the
        low-water mark (0.8×cap; see
        :class:`~repro.bb.frontier.BlockFrontier`), so exhaustive runs
        cannot grow the pool without bound and selection does not flap at
        the cap boundary.  ``None`` (default) disables the cap.
    checkpoint_path / checkpoint_every / checkpoint_seconds:
        Fault tolerance (see :mod:`repro.bb.snapshot`).  With a path set,
        the engine snapshots complete search state there every
        ``checkpoint_every`` steps and/or ``checkpoint_seconds`` seconds
        (atomic replace — a crash never destroys the previous snapshot),
        and always writes a final snapshot when a budget interrupts the
        run.  :meth:`resume` continues from such a file bit-identically:
        the resumed run's makespan, permutation and all ``SearchStats``
        counters match the uninterrupted golden run exactly.
    """

    def __init__(
        self,
        instance: FlowShopInstance,
        selection: str = "best-first",
        initial_upper_bound: Optional[float] = None,
        max_nodes: Optional[int] = None,
        max_time_s: Optional[float] = None,
        trace: bool = False,
        on_incumbent: Optional[Callable[[int, tuple[int, ...]], None]] = None,
        kernel: str = "v2",
        max_frontier_nodes: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_seconds: Optional[float] = None,
    ):
        self.instance = instance
        self.data = LowerBoundData(instance)
        self.selection = selection
        self.initial_upper_bound = initial_upper_bound
        self.max_nodes = max_nodes
        self.max_time_s = max_time_s
        self.trace_enabled = trace
        self.on_incumbent = on_incumbent
        if kernel not in ("scalar", "v2"):
            raise ValueError(f"kernel must be 'scalar' or 'v2', got {kernel!r}")
        self.kernel = kernel
        if max_frontier_nodes is not None and max_frontier_nodes < 1:
            raise ValueError("max_frontier_nodes must be >= 1 when given")
        self.max_frontier_nodes = max_frontier_nodes
        if checkpoint_path is None and (
            checkpoint_every is not None or checkpoint_seconds is not None
        ):
            raise ValueError("checkpoint_every/checkpoint_seconds require checkpoint_path")
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path is not None else None
        self.checkpoint_every = checkpoint_every
        self.checkpoint_seconds = checkpoint_seconds
        #: number of snapshots written by this engine instance
        self.checkpoints_written = 0

    # ------------------------------------------------------------------ #
    def _engine_config(self) -> dict[str, object]:
        """Engine settings recorded in snapshot headers (see :mod:`repro.bb.snapshot`)."""
        return {
            "engine": "serial",
            "selection": self.selection,
            "max_frontier_nodes": self.max_frontier_nodes,
            "trace": self.trace_enabled,
        }

    def _on_checkpoint(self, state: CheckpointState) -> None:
        assert self.checkpoint_path is not None
        blob = dumps_snapshot(
            self.instance,
            frontier=state.frontier,
            trail=state.trail,
            upper_bound=state.upper_bound,
            best_order=state.best_order_supplier(),
            next_order=state.next_order,
            stats=state.stats,
            engine=self._engine_config(),
        )
        save_snapshot(self.checkpoint_path, blob)
        self.checkpoints_written += 1

    def _driver(self) -> SearchDriver:
        hooks = SearchHooks()
        if self.on_incumbent is not None:
            user_callback = self.on_incumbent
            hooks.on_improve_incumbent = lambda makespan, order: user_callback(makespan, order())
        checkpoint: Optional[CheckpointPolicy] = None
        if self.checkpoint_path is not None and (
            self.checkpoint_every is not None or self.checkpoint_seconds is not None
        ):
            checkpoint = CheckpointPolicy(
                every_steps=self.checkpoint_every,
                every_seconds=self.checkpoint_seconds,
            )
            hooks.on_checkpoint = self._on_checkpoint
        return SearchDriver(
            self.instance,
            self.data,
            selection=self.selection,
            kernel=self.kernel,
            limits=SearchLimits(max_nodes=self.max_nodes, max_time_s=self.max_time_s),
            hooks=hooks,
            trace=self.trace_enabled,
            checkpoint=checkpoint,
        )

    # ------------------------------------------------------------------ #
    def solve(self) -> BBResult:
        """Run the search to completion (or until a budget is exhausted)."""
        upper_bound, best_order = initial_incumbent(self.instance, self.initial_upper_bound)
        return self._search((), upper_bound, best_order)

    def _search(
        self,
        start: Union[tuple[int, ...], Snapshot],
        upper_bound: float = math.inf,
        best_order: tuple[int, ...] = (),
    ) -> BBResult:
        """The body :meth:`solve` and :meth:`resume` share.

        A budget-cut run persists its live frontier to ``checkpoint_path``
        (when set), so :meth:`resume` can pick up exactly where it stopped.
        """
        outcome, stats = run_search(
            self._driver(),
            start,
            upper_bound=upper_bound,
            best_order=best_order,
            max_pending=self.max_frontier_nodes,
            on_cut=self._on_checkpoint if self.checkpoint_path is not None else None,
        )
        if not outcome.best_order:
            raise RuntimeError(
                "the search terminated without an incumbent; provide a finite "
                "initial upper bound or let NEH seed the search"
            )
        return BBResult(
            instance=self.instance,
            best_makespan=int(outcome.upper_bound),
            best_order=tuple(outcome.best_order),
            proved_optimal=outcome.completed,
            stats=stats,
            trace=outcome.trace,
        )

    @classmethod
    def resume(
        cls,
        path: Union[str, Path],
        *,
        max_nodes: Optional[int] = None,
        max_time_s: Optional[float] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_seconds: Optional[float] = None,
        on_incumbent: Optional[Callable[[int, tuple[int, ...]], None]] = None,
    ) -> BBResult:
        """Continue a checkpointed solve from a snapshot file.

        The engine (selection, bound options, frontier cap) is rebuilt
        from the snapshot header and bounds with kernel v2; the
        frontier/trail/incumbent/counters are restored exactly, and the
        search resumes without re-seeding NEH or re-bounding the root.
        The concatenation of the interrupted segments is bit-identical
        (makespan, permutation, every counter, and the trace) to one
        uninterrupted run.

        Budgets are cumulative: ``max_nodes`` counts nodes explored across
        *all* segments, so resuming with a larger budget continues where
        the previous segment's budget cut the search.  By default the
        resumed run keeps checkpointing to the same file; pass
        ``checkpoint_path`` to redirect it.

        Returns the :class:`BBResult` of the resumed segment; its ``trace``
        covers only this segment.
        """
        snapshot = load_snapshot(path)
        engine_conf = snapshot.engine
        max_frontier = engine_conf.get("max_frontier_nodes")
        engine = cls(
            snapshot.instance,
            selection=str(engine_conf.get("selection", "best-first")),
            max_nodes=max_nodes,
            max_time_s=max_time_s,
            trace=bool(engine_conf.get("trace", False)),
            on_incumbent=on_incumbent,
            max_frontier_nodes=int(max_frontier) if max_frontier is not None else None,
            checkpoint_path=checkpoint_path if checkpoint_path is not None else path,
            checkpoint_every=checkpoint_every,
            checkpoint_seconds=checkpoint_seconds,
        )
        return engine._search(snapshot)
