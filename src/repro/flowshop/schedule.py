"""Schedules (complete and partial) and makespan evaluation.

In a *permutation* flow-shop a schedule is fully described by a permutation
of the jobs: the same processing order is used on every machine.  The paper's
Branch-and-Bound explores *partial* schedules — a prefix ``pi(1)..pi(l)`` of
jobs already fixed in the first ``l`` positions — so this module provides:

* :func:`completion_times` / :func:`makespan` — evaluation of a complete
  permutation.
* :func:`partial_completion_times` — the per-machine completion (release)
  times of a prefix, which is exactly the ``RM`` vector the lower bound uses
  as the "earliest starting times" of the remaining jobs.
* :func:`machine_scan` — the same recurrence for one appended job, as a
  vectorized max-plus scan over the machines of many fronts at once
  (branching, NEH's insertion positions), reading the per-job tables of
  :func:`job_cumulative_times`.
* :class:`Schedule` and :class:`PartialSchedule` — thin validated wrappers
  used by the public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.flowshop.instance import FlowShopInstance

__all__ = [
    "completion_times",
    "makespan",
    "partial_completion_times",
    "job_cumulative_times",
    "machine_scan",
    "remaining_tail_times",
    "Schedule",
    "PartialSchedule",
]


def _validate_permutation(instance: FlowShopInstance, order: Sequence[int]) -> np.ndarray:
    arr = np.asarray(list(order), dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("a schedule must be a 1-D sequence of job indices")
    if arr.size != instance.n_jobs:
        raise ValueError(f"schedule has {arr.size} jobs but the instance has {instance.n_jobs}")
    seen = np.zeros(instance.n_jobs, dtype=bool)
    for job in arr:
        if not 0 <= job < instance.n_jobs:
            raise ValueError(f"job index {job} out of range")
        if seen[job]:
            raise ValueError(f"job {job} appears twice in the schedule")
        seen[job] = True
    return arr


def _validate_prefix(instance: FlowShopInstance, order: Sequence[int]) -> np.ndarray:
    arr = np.asarray(list(order), dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("a partial schedule must be a 1-D sequence of job indices")
    if arr.size > instance.n_jobs:
        raise ValueError("partial schedule longer than the number of jobs")
    seen = set()
    for job in arr.tolist():
        if not 0 <= job < instance.n_jobs:
            raise ValueError(f"job index {job} out of range")
        if job in seen:
            raise ValueError(f"job {job} appears twice in the partial schedule")
        seen.add(job)
    return arr


def completion_times(instance: FlowShopInstance, order: Sequence[int]) -> np.ndarray:
    """Completion time matrix ``C[pos, k]`` for a complete permutation.

    ``C[pos, k]`` is the completion time of the job in position ``pos`` of
    ``order`` on machine ``k`` using the standard flow-shop recurrence::

        C[pos, k] = max(C[pos-1, k], C[pos, k-1]) + p[order[pos], k]

    Parameters
    ----------
    instance:
        The flow-shop instance.
    order:
        A permutation of ``range(n_jobs)``.

    Returns
    -------
    numpy.ndarray
        ``(n_jobs, n_machines)`` int64 matrix of completion times.
    """
    arr = _validate_permutation(instance, order)
    return _completion_times_unchecked(instance.processing_times, arr)


def _completion_times_unchecked(pt: np.ndarray, order: np.ndarray) -> np.ndarray:
    n = order.size
    m = pt.shape[1]
    completion = np.zeros((n, m), dtype=np.int64)
    prev_row = np.zeros(m, dtype=np.int64)
    for pos in range(n):
        job_times = pt[order[pos]]
        row = completion[pos]
        time_on_prev_machine = 0
        for k in range(m):
            start = prev_row[k] if prev_row[k] > time_on_prev_machine else time_on_prev_machine
            time_on_prev_machine = start + job_times[k]
            row[k] = time_on_prev_machine
        prev_row = row
    return completion


def makespan(instance: FlowShopInstance, order: Sequence[int]) -> int:
    """Makespan ``C_max`` of a complete permutation schedule."""
    return int(completion_times(instance, order)[-1, -1])


def partial_completion_times(
    instance: FlowShopInstance, prefix: Sequence[int]
) -> np.ndarray:
    """Per-machine completion times of a prefix of scheduled jobs.

    For a partial schedule ``pi(1)..pi(l)`` this returns the length-``m``
    vector ``r`` where ``r[k]`` is the time machine ``k`` becomes free after
    processing the prefix.  This is the ``RM`` ("earliest starting times")
    structure consumed by the lower bound.  For an empty prefix the result is
    all zeros.
    """
    arr = _validate_prefix(instance, prefix)
    return _partial_completion_unchecked(instance.processing_times, arr)


def _partial_completion_unchecked(pt: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    m = pt.shape[1]
    front = np.zeros(m, dtype=np.int64)
    for job in prefix:
        job_times = pt[job]
        prev = 0
        for k in range(m):
            start = front[k] if front[k] > prev else prev
            prev = start + job_times[k]
            front[k] = prev
    return front


#: Row count from which :func:`machine_scan` scans a block as ``m - 1``
#: column maxima instead of one ``np.maximum.accumulate`` over the machine
#: axis.  ``accumulate`` along the last axis pays about 20 ns per row at
#: m = 6 and 48 ns at m = 20; each column maximum about 0.7 us whatever the
#: row count.  Measured crossovers: ~130 rows at m = 5 and 6, ~200 at
#: m = 10, ~290 at m = 20 (a 4,096x20 block: 197 us against 37 us).
_COLUMN_SCAN_MIN_ROWS = 256


def job_cumulative_times(
    processing_times: np.ndarray, dtype: type = np.int32
) -> tuple[np.ndarray, np.ndarray]:
    """Per-job cumulative times over the machines, ``(after, before)``.

    ``after[j, k]`` is the time job ``j`` spends on machines ``0..k`` and
    ``before[j, k] = after[j, k] - p[j, k]`` its time on machines
    ``0..k-1``; both are ``(n, m)`` arrays of ``dtype``.  These are the
    tables :func:`machine_scan` gathers by job, so a caller builds them
    once (``O(n * m)``) instead of summing every appended job's times
    again.
    """
    after = np.cumsum(processing_times, axis=1, dtype=dtype)
    return after, np.subtract(after, processing_times, dtype=dtype)


def machine_scan(
    front: np.ndarray,
    jobs: int | np.ndarray,
    after: np.ndarray,
    before: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Machine fronts after appending one job each: the max-plus machine scan.

    Appending job ``j`` to a front ``F`` (the times each machine becomes
    free) gives ``F'[k] = max(F[k], F'[k-1]) + p[j, k]``, whose closed form
    is ``F' = after[j] + scanmax(F - before[j])`` over the machine axis,
    with the tables of :func:`job_cumulative_times`.  ``front`` is one
    ``(m,)`` front or a ``(rows, m)`` block and ``jobs`` one job or one per
    row; they broadcast, so one front takes many jobs (a node's children)
    and many fronts take one job (NEH's insertion positions).

    The scan is one ``np.maximum.accumulate`` below
    :data:`_COLUMN_SCAN_MIN_ROWS` rows and ``m - 1`` column maxima from
    there.  The result has the dtype that ``front`` and the tables promote
    to; ``out`` receives it when given (it may be ``front`` itself).
    """
    scan = np.subtract(front, before.take(jobs, axis=0), out=out)
    if scan.ndim == 2 and scan.shape[0] >= _COLUMN_SCAN_MIN_ROWS:
        for k in range(1, scan.shape[1]):
            np.maximum(scan[:, k - 1], scan[:, k], out=scan[:, k])
    else:
        np.maximum.accumulate(scan, axis=-1, out=scan)
    scan += after.take(jobs, axis=0)
    return scan


def remaining_tail_times(
    instance: FlowShopInstance, scheduled: Sequence[int]
) -> np.ndarray:
    """Minimal remaining work after each machine over the unscheduled jobs.

    Returns the length-``m`` vector ``q`` where ``q[k]`` is the minimum, over
    jobs not in ``scheduled``, of the total processing time on machines
    ``k+1 .. m-1``.  This is the ``QM`` ("lowest latency times") structure of
    the lower bound: any unscheduled job finishing on machine ``k`` still
    needs at least ``q[k]`` time before the makespan can be realised.

    If every job is already scheduled the vector is all zeros.
    """
    arr = _validate_prefix(instance, scheduled)
    pt = instance.processing_times
    n, m = pt.shape
    mask = np.ones(n, dtype=bool)
    mask[arr] = False
    if not mask.any():
        return np.zeros(m, dtype=np.int64)
    remaining = pt[mask]
    # tails[j, k] = sum of processing times of job j on machines k+1..m-1
    suffix = np.zeros((remaining.shape[0], m), dtype=np.int64)
    if m > 1:
        suffix[:, : m - 1] = np.cumsum(remaining[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return suffix.min(axis=0).astype(np.int64)


@dataclass(frozen=True)
class Schedule:
    """A complete permutation schedule together with its makespan."""

    instance: FlowShopInstance
    order: tuple[int, ...]
    makespan: int = field(init=False)

    def __post_init__(self) -> None:
        arr = _validate_permutation(self.instance, self.order)
        object.__setattr__(self, "order", tuple(int(j) for j in arr))
        value = int(_completion_times_unchecked(self.instance.processing_times, arr)[-1, -1])
        object.__setattr__(self, "makespan", value)

    @property
    def n_jobs(self) -> int:
        return self.instance.n_jobs

    def completion_times(self) -> np.ndarray:
        """Full ``(n, m)`` completion-time matrix of this schedule."""
        return completion_times(self.instance, self.order)

    def gantt_rows(self) -> list[list[tuple[int, int, int]]]:
        """Per-machine ``(job, start, end)`` triples, useful for plotting/tests."""
        comp = self.completion_times()
        pt = self.instance.processing_times
        rows: list[list[tuple[int, int, int]]] = []
        for k in range(self.instance.n_machines):
            row = []
            for pos, job in enumerate(self.order):
                end = int(comp[pos, k])
                start = end - int(pt[job, k])
                row.append((job, start, end))
            rows.append(row)
        return rows

    def is_feasible(self) -> bool:
        """Validate the no-overlap / precedence constraints of the Gantt chart."""
        for row in self.gantt_rows():
            last_end = 0
            for _job, start, end in row:
                if start < last_end or end - start < 0:
                    return False
                last_end = end
        comp = self.completion_times()
        pt = self.instance.processing_times
        for pos, job in enumerate(self.order):
            for k in range(1, self.instance.n_machines):
                start = comp[pos, k] - pt[job, k]
                if start < comp[pos, k - 1]:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(makespan={self.makespan}, order={self.order})"


@dataclass(frozen=True)
class PartialSchedule:
    """A prefix of scheduled jobs (the B&B sub-problem representation)."""

    instance: FlowShopInstance
    prefix: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = _validate_prefix(self.instance, self.prefix)
        object.__setattr__(self, "prefix", tuple(int(j) for j in arr))

    @property
    def depth(self) -> int:
        """Number of jobs already fixed."""
        return len(self.prefix)

    @property
    def is_complete(self) -> bool:
        return self.depth == self.instance.n_jobs

    @property
    def unscheduled(self) -> tuple[int, ...]:
        """Jobs not yet placed, in increasing index order."""
        fixed = set(self.prefix)
        return tuple(j for j in range(self.instance.n_jobs) if j not in fixed)

    def machine_release_times(self) -> np.ndarray:
        """The ``RM`` vector for this prefix (see :func:`partial_completion_times`)."""
        return partial_completion_times(self.instance, self.prefix)

    def extend(self, job: int) -> "PartialSchedule":
        """Return a new partial schedule with ``job`` appended."""
        if job in self.prefix:
            raise ValueError(f"job {job} is already scheduled")
        return PartialSchedule(self.instance, self.prefix + (int(job),))

    def children(self) -> list["PartialSchedule"]:
        """All one-job extensions (the branching operator's output)."""
        return [self.extend(job) for job in self.unscheduled]

    def to_schedule(self) -> Schedule:
        """Convert a complete partial schedule into a :class:`Schedule`."""
        if not self.is_complete:
            raise ValueError(
                f"partial schedule of depth {self.depth} cannot be converted "
                f"(instance has {self.instance.n_jobs} jobs)"
            )
        return Schedule(self.instance, self.prefix)

    def completions_if(self, order_of_remaining: Iterable[int]) -> int:
        """Makespan obtained by appending ``order_of_remaining`` to the prefix."""
        full = self.prefix + tuple(int(j) for j in order_of_remaining)
        return makespan(self.instance, full)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartialSchedule(depth={self.depth}, prefix={self.prefix})"
