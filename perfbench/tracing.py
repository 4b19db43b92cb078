"""Spans around the calls into each layer, and the per-layer metrics built from them.

The traced run patches module attributes and methods of the installed
``repro`` package at start-up (nothing under ``src/`` changes), so every
call the engines make into a wrapped function records one span:
``(id, name, start, end, parent, thread, request, work)``.  ``parent`` is
the innermost open span of the same thread, ``request`` is the item the
benchmark (or, in the server, the solve session) was working on, and
``work`` is a per-call count such as the rows a kernel launch bounded.
Spans stay in memory; the process writes them out when its run ends.

A layer's *busy* time sums its outermost spans; its *self* time is busy
time minus the time its child spans cover.  Because every span nests in its
thread's parent, the self times of all layers on the search threads add up
to the time those threads spent inside the engine.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

#: Span-name groups of the BlockFrontier store: every selection call is a
#: pop, ``push_block`` a push and ``prune_to`` an elimination sweep.
FRONTIER_POP = ("pop_min_tie_batch", "peek_best", "row_view", "discard", "pop_batch")


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_request(self, request) -> None:
        """Tag the spans this thread records from now on with ``request``."""
        self._local.request = request

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording one span per call; ``work(args, result)`` counts its work."""
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            count = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                count = work(args, result) if work is not None else 0
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(),
                     getattr(local, "request", None), count or 0)
                )

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (the end-of-run write-out)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load_spans(path: Path) -> list[tuple]:
    with open(path) as src:
        return [tuple(json.loads(line)) for line in src]


def _patch(owner, attr: str, tracer: Tracer, name: str, work=None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), work))


def _rows_of_arg(index: int):
    return lambda args, result: len(args[index])


def _rows_of_result(args, result) -> int:
    return len(result)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports.

    Must run before the engines are constructed: ``GpuExecutor`` resolves
    its kernel through ``get_batch_kernel`` once, at construction.
    """
    import repro.bb.driver as driver
    import repro.bb.sequential as sequential
    import repro.core.gpu_bb as gpu_bb
    import repro.flowshop.bounds as bounds
    import repro.service.protocol as protocol
    import repro.service.session as session
    from repro.bb.frontier import BlockFrontier
    from repro.gpu.executor import GpuExecutor
    from repro.service.dispatch import BatchingOffload

    # the v2 kernel as every caller obtains it: get_batch_kernel("v2")
    bounds.BATCH_KERNELS["v2"] = tracer.wrap(
        "flowshop.bounds", bounds.BATCH_KERNELS["v2"], _rows_of_arg(1)
    )
    for module in (sequential, gpu_bb, session):
        _patch(module, "neh_heuristic", tracer, "flowshop.neh")
    # LocalBounding's operator, plus the engines' and sessions' root bounding
    for module in (driver, sequential, session):
        _patch(module, "bound_block", tracer, "bb.bound_block", _rows_of_arg(1))
    for attr in FRONTIER_POP:
        _patch(BlockFrontier, attr, tracer, "bb.frontier.pop")
    _patch(
        BlockFrontier, "push_block", tracer, "bb.frontier.push",
        lambda args, result: args[0].max_size_seen,
    )
    _patch(BlockFrontier, "prune_to", tracer, "bb.frontier.prune")
    _patch(driver, "branch_block", tracer, "bb.branch", _rows_of_result)
    _patch(driver, "branch_row", tracer, "bb.branch", _rows_of_result)
    _patch(driver.SearchDriver, "run", tracer, "bb.driver")
    _patch(sequential.SequentialBranchAndBound, "solve", tracer, "engine.solve")
    _patch(gpu_bb.GpuBranchAndBound, "solve", tracer, "engine.solve")
    _patch(GpuExecutor, "evaluate", tracer, "gpu.executor", _rows_of_arg(1))
    # a session's offload span lasts from parking to wake-up; its work is
    # the fused launch's measured kernel seconds, so park wait = span - work
    _patch(
        BatchingOffload, "bound_block", tracer, "service.offload",
        lambda args, result: result[2],
    )
    _patch(protocol, "encode", tracer, "service.protocol")
    _patch(protocol, "decode", tracer, "service.protocol")

    session_run = session.SolveSession.run

    @functools.wraps(session_run)
    def run(self, *args, **kwargs):
        tracer.set_request(self.session_id)
        try:
            return session_run(self, *args, **kwargs)
        finally:
            tracer.set_request(None)

    session.SolveSession.run = tracer.wrap("service.session", run)


def layer_metrics(spans: list[tuple], threads_wall_s: float) -> dict[str, float]:
    """Per-layer counts and times of ``spans``.

    ``threads_wall_s`` is the wall time of the measured pass times the
    number of threads that run searches; ``trace.attributed_frac`` is the
    share of it covered by the layers' self times.
    """
    by_id = {span[0]: span for span in spans}
    child_s: dict[int, float] = {}
    for span in spans:
        if span[4] in by_id:
            child_s[span[4]] = child_s.get(span[4], 0.0) + span[3] - span[2]

    def parent_name(span) -> str | None:
        parent = by_id.get(span[4])
        return parent[1] if parent is not None else None

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    work_max: dict[str, float] = {}
    for span in spans:
        name, duration = span[1], span[3] - span[2]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + span[7]
        work_max[name] = max(work_max.get(name, 0), span[7])
        self_s[name] = self_s.get(name, 0.0) + duration - child_s.get(span[0], 0.0)
        if parent_name(span) != name:
            busy[name] = busy.get(name, 0.0) + duration

    def get(table, name):
        return table.get(name, 0)

    kernel_busy = get(busy, "flowshop.bounds")
    kernel_rows = get(work, "flowshop.bounds")
    offload_busy = get(busy, "service.offload")
    # the search threads: the benchmark's own, or the server's session
    # threads (not the dispatcher's, whose launches the sessions wait on)
    search_threads = {span[5] for span in spans if span[1] in ("engine.solve", "service.session")}
    attributed = sum(
        span[3] - span[2] - child_s.get(span[0], 0.0)
        for span in spans
        if span[5] in search_threads
    )
    return {
        "flowshop.bounds.calls": get(calls, "flowshop.bounds"),
        "flowshop.bounds.rows": kernel_rows,
        "flowshop.bounds.busy_s": kernel_busy,
        "flowshop.bounds.rows_per_s": kernel_rows / kernel_busy if kernel_busy else 0.0,
        "flowshop.neh.calls": get(calls, "flowshop.neh"),
        "flowshop.neh.busy_s": get(busy, "flowshop.neh"),
        "bb.bound_block.calls": get(calls, "bb.bound_block"),
        "bb.bound_block.rows": get(work, "bb.bound_block"),
        "bb.bound_block.busy_s": get(busy, "bb.bound_block"),
        "bb.bound_block.self_s": get(self_s, "bb.bound_block"),
        "bb.frontier.pop_calls": get(calls, "bb.frontier.pop"),
        "bb.frontier.pop_busy_s": get(busy, "bb.frontier.pop"),
        "bb.frontier.push_calls": get(calls, "bb.frontier.push"),
        "bb.frontier.push_busy_s": get(busy, "bb.frontier.push"),
        "bb.frontier.prune_busy_s": get(busy, "bb.frontier.prune"),
        "bb.frontier.pending_max": work_max.get("bb.frontier.push", 0),
        "bb.branch.calls": get(calls, "bb.branch"),
        "bb.branch.rows": get(work, "bb.branch"),
        "bb.branch.busy_s": get(busy, "bb.branch"),
        "bb.driver.busy_s": get(busy, "bb.driver"),
        "bb.driver.self_s": get(self_s, "bb.driver"),
        "engine.calls": get(calls, "engine.solve"),
        "engine.self_s": get(self_s, "engine.solve"),
        "gpu.executor.calls": get(calls, "gpu.executor"),
        "gpu.executor.busy_s": get(busy, "gpu.executor"),
        "gpu.executor.self_s": get(self_s, "gpu.executor"),
        "service.session.calls": get(calls, "service.session"),
        "service.session.busy_s": get(busy, "service.session"),
        "service.session.self_s": get(self_s, "service.session"),
        "service.dispatch.park_wait_s": offload_busy - get(work, "service.offload"),
        "service.protocol.busy_s": get(busy, "service.protocol"),
        "trace.attributed_frac": attributed / threads_wall_s if threads_wall_s else 0.0,
    }
