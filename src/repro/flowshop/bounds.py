"""The Lenstra / Lageweg / Rinnooy Kan lower bound for the permutation FSP.

This module implements the bounding operator that the paper off-loads to the
GPU.  It exposes the six data structures analysed in Table I of the paper:

=====  =======================================================  ==============
Name   Meaning                                                  Size
=====  =======================================================  ==============
PTM    processing times of the jobs                             ``n x m``
LM     lags of every job for every machine couple               ``n x m(m-1)/2``
JM     Johnson order of all jobs for every machine couple       ``n x m(m-1)/2``
RM     earliest starting times (machine release times)          ``m`` (per node)
QM     lowest latency times (minimal tails of remaining jobs)   ``m`` (per node)
MM     the machine couples ``(M_k, M_l)``, ``k < l``            ``m(m-1)/2 x 2``
=====  =======================================================  ==============

``PTM``, ``LM``, ``JM`` and ``MM`` only depend on the instance and are
precomputed once by :class:`LowerBoundData`; ``RM`` and ``QM`` depend on the
sub-problem (partial schedule) and are recomputed per node — exactly as in
the paper's CUDA kernel.

Three evaluation paths are provided:

* :func:`lower_bound` — scalar evaluation of a single sub-problem, a direct
  transcription of the paper's ``computeLB`` pseudo-code (Figure 2).
* :func:`lower_bound_batch` — vectorised evaluation of a *pool* of
  sub-problems at once.  This is the functional equivalent of the GPU
  kernel: one "thread" per sub-problem, all threads marching through the
  same machine couples and Johnson orders in lock-step (which is also why
  the kernel is so GPU friendly — the control flow is identical across the
  pool).
* :func:`lower_bound_batch_v2` — the same computation with the machine
  couple axis vectorised as well, by one of two bodies chosen by the job
  count:

  - ``"gemm"`` (below ``_V2_INCREMENTAL_MIN_JOBS`` = 40 jobs): the Johnson
    scan in closed form, the candidates of a run of jobs for a chunk of
    rows in one matrix product of at most ``_V2_GEMM_ELEMENTS`` elements.
    From ``_V2_SET_STEP_MIN_ROWS`` = 384 rows a launch bounds each distinct
    unscheduled set once and each row in O(m) from its set's per-machine
    terms.  On an instance within ``_V2_TABLE_ELEMENTS`` (``2**n * m``;
    every shape of the exact solves) those terms are built once for all
    ``2**n`` sets, by the same GEMM on the instance's first launch, and
    every launch is one gather and a maximum per row;
  - ``"incremental"`` (from 40 jobs): one O(n·C) pass per parent set and
    O(m) per child, since removing one job from a parent's set shifts its
    closed-form candidates in a known way and the maximum over the couples
    regroups by machine.  A row without ``jobs`` (the job a branch-built
    row scheduled last) is bounded from its unscheduled set plus any job
    it has scheduled.

  A launch's scheduled sets arrive bit-packed, one bit per job
  (:func:`pack_mask`, the node layout of the frontier).  The GEMM body
  unpacks one row chunk at a time and reads ``QM`` from per-instance byte
  tables, the minimum over a row's bytes of the tails its byte value
  leaves unscheduled; the incremental body finds parent sets by comparing
  packed rows and unpacks only each tile's group-first rows.  Rows with
  nothing scheduled get a closed-form bound from per-instance
  constants, and complete rows their makespan.  A large incremental launch
  is split into contiguous row ranges, one per CPU the process may run on,
  evaluated at the same time on threads that live only for that launch
  (numpy releases the interpreter lock inside its ufunc loops).  The split
  depends only on the launch's shape and the process's CPU affinity: it
  happens only while every part holds at least one tile of work
  (:func:`_split_cuts`), because below it the interpreter lock serialises
  the parts and a split loses.  GEMM launches are not split; BLAS runs
  their products on its own threads.

All batched kernels return values bit-identical to the scalar bound.
:func:`get_batch_kernel` resolves the ``"v2"`` selector every engine bounds
with; :func:`lower_bound_batch` (v1) stays the reference the tests and
benchmarks call directly.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.johnson import johnson_order_with_lags
from repro.flowshop.schedule import job_cumulative_times, machine_scan

__all__ = [
    "machine_couples",
    "check_int32_total",
    "LowerBoundData",
    "CoupleTensors",
    "DataStructureComplexity",
    "lower_bound",
    "lower_bound_batch",
    "lower_bound_batch_v2",
    "get_batch_kernel",
    "BATCH_KERNELS",
    "one_machine_bound",
    "pack_mask",
    "unpack_mask",
    "as_mask_bits",
    "job_bit_table",
]


def machine_couples(n_machines: int) -> np.ndarray:
    """All ordered machine couples ``(k, l)`` with ``k < l``.

    Returns an ``(m(m-1)/2, 2)`` int64 array; this is the ``MM`` structure.
    Couples are enumerated in lexicographic order which keeps the mapping
    between the couple index and ``(k, l)`` deterministic across the scalar
    kernel, the batched kernel and the GPU simulator.
    """
    if n_machines < 1:
        raise ValueError("n_machines must be >= 1")
    pairs = [(k, l) for k in range(n_machines) for l in range(k + 1, n_machines)]
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


@dataclass(frozen=True)
class DataStructureComplexity:
    """Size / access-count formulas of Table I of the paper.

    The counts are parametrised by ``n`` (total jobs), ``m`` (machines) and
    ``n_prime`` (jobs still to schedule in the sub-problem being bounded).
    ``bytes_per_element`` defaults to 4 (the C implementation uses ``int``).
    """

    n: int
    m: int
    bytes_per_element: int = 4

    # ------------------------------------------------------------------ #
    # Sizes (number of elements)
    # ------------------------------------------------------------------ #
    @property
    def n_couples(self) -> int:
        return self.m * (self.m - 1) // 2

    @property
    def ptm_size(self) -> int:
        return self.n * self.m

    @property
    def lm_size(self) -> int:
        return self.n * self.n_couples

    @property
    def jm_size(self) -> int:
        return self.n * self.n_couples

    @property
    def rm_size(self) -> int:
        return self.m

    @property
    def qm_size(self) -> int:
        return self.m

    @property
    def mm_size(self) -> int:
        return self.m * (self.m - 1)

    def sizes(self) -> dict[str, int]:
        """Element counts for every structure, keyed by the paper's names."""
        return {
            "PTM": self.ptm_size,
            "LM": self.lm_size,
            "JM": self.jm_size,
            "RM": self.rm_size,
            "QM": self.qm_size,
            "MM": self.mm_size,
        }

    def sizes_bytes(self) -> dict[str, int]:
        """Memory footprint in bytes for every structure."""
        return {k: v * self.bytes_per_element for k, v in self.sizes().items()}

    # ------------------------------------------------------------------ #
    # Access counts (per lower-bound evaluation)
    # ------------------------------------------------------------------ #
    def accesses(self, n_prime: int | None = None) -> dict[str, int]:
        """Number of accesses per LB evaluation (Table I, third column).

        ``n_prime`` is the number of remaining (unscheduled) jobs of the
        sub-problem; it defaults to ``n`` (root node).
        """
        n_prime = self.n if n_prime is None else int(n_prime)
        if not 0 <= n_prime <= self.n:
            raise ValueError(f"n_prime must be in [0, {self.n}]")
        half = self.m * (self.m - 1) // 2
        return {
            "PTM": n_prime * self.m * (self.m - 1),
            "LM": n_prime * half,
            "JM": self.n * half,
            "RM": self.m * (self.m - 1),
            "QM": half,
            "MM": self.m * (self.m - 1),
        }

    def table_rows(self, n_prime: int | None = None) -> list[tuple[str, int, int]]:
        """Rows ``(name, size, accesses)`` in the order used by Table I."""
        sizes = self.sizes()
        acc = self.accesses(n_prime)
        return [(name, sizes[name], acc[name]) for name in ("PTM", "LM", "JM", "RM", "QM", "MM")]


@dataclass(frozen=True)
class CoupleTensors:
    """Per-couple gather tensors consumed by the v2 (couple-vectorised) kernel.

    All arrays are materialised in Johnson-scan order so that step ``i`` of
    the kernel can address every machine couple at once:

    ``a_times[i, c]``
        processing time on the couple's first machine of the job in position
        ``i`` of couple ``c``'s Johnson order (a gather of ``PTM`` by ``JM``).
    ``b_times[i, c]``
        same, for the couple's second machine.
    ``lags[i, c]``
        lag of that job for couple ``c`` (a gather of ``LM`` by ``JM``).
    ``m1`` / ``m2``
        ``(n_couples,)`` first/second machine index of every couple (the two
        columns of ``MM``), used to gather the per-couple release times and
        tails out of the ``(B, m)`` node vectors.
    """

    a_times: np.ndarray
    b_times: np.ndarray
    lags: np.ndarray
    m1: np.ndarray
    m2: np.ndarray


def check_int32_total(instance: FlowShopInstance) -> None:
    """Refuse an instance whose total processing time exceeds ``2**31 - 1``.

    Every release time, bound and makespan of a search is at most the
    total, and the search keeps them in int32 columns and int32 cumulative
    tables.  Raises ``ValueError`` naming the limit.
    """
    total = int(instance.processing_times.sum())
    if total > 2**31 - 1:
        raise ValueError(
            f"total processing time {total} exceeds 2**31 - 1 = {2**31 - 1}, "
            "the int32 limit of release times, bounds and makespans"
        )


class LowerBoundData:
    """Precomputed, instance-level data of the lower bound.

    Building this object corresponds to the host-side preparation step of
    the paper: the matrices are generated once on the CPU and then copied to
    the device.  The object is immutable after construction; all arrays have
    their writeable flag cleared so they can be shared with the GPU
    simulator's memory model without copies.

    Attributes
    ----------
    ptm:
        ``(n, m)`` processing times (``PTM``).
    mm:
        ``(n_couples, 2)`` machine couples (``MM``).
    lm:
        ``(n, n_couples)`` lags (``LM``): ``lm[j, c]`` is the total
        processing time of job ``j`` on the machines strictly between the
        two machines of couple ``c``.
    jm:
        ``(n, n_couples)`` Johnson matrix (``JM``): ``jm[i, c]`` is the job
        in position ``i`` of the Johnson-with-lags order for couple ``c``.
    tails:
        ``(n, m)`` per-job tails: ``tails[j, k]`` is the total processing
        time of job ``j`` on machines ``k+1 .. m-1``.  The per-node ``QM``
        vector is the column-wise minimum of this matrix over the remaining
        jobs.
    """

    __slots__ = (
        "instance",
        "ptm",
        "mm",
        "lm",
        "jm",
        "tails",
        "_complexity",
        "_couple_tensors",
        "_v2_gemm_cache",
    )

    def __init__(self, instance: FlowShopInstance):
        check_int32_total(instance)
        self.instance = instance
        pt = instance.processing_times
        n, m = pt.shape

        mm = machine_couples(m)
        n_couples = mm.shape[0]

        lm = np.zeros((n, n_couples), dtype=np.int64)
        jm = np.zeros((n, n_couples), dtype=np.int64)
        # cumulative sums along machines make each lag an O(1) lookup
        csum = np.concatenate(
            [np.zeros((n, 1), dtype=np.int64), np.cumsum(pt, axis=1, dtype=np.int64)], axis=1
        )
        for c in range(n_couples):
            k, l = int(mm[c, 0]), int(mm[c, 1])
            # lag = sum of processing times on machines k+1 .. l-1
            lm[:, c] = csum[:, l] - csum[:, k + 1]
            jm[:, c] = johnson_order_with_lags(pt[:, k], pt[:, l], lm[:, c])

        # tails[j, k] = total processing of job j after machine k
        #             = csum[j, m] - csum[j, k + 1]
        tails = (csum[:, -1][:, None] - csum[:, 1:]).astype(np.int64)

        self.ptm = pt
        self.mm = mm
        self.lm = lm
        self.jm = jm
        self.tails = tails
        for arr in (self.mm, self.lm, self.jm, self.tails):
            arr.setflags(write=False)
        self._complexity = DataStructureComplexity(n=n, m=m)
        self._couple_tensors: CoupleTensors | None = None
        self._v2_gemm_cache: dict = {}

    # ------------------------------------------------------------------ #
    @property
    def n_jobs(self) -> int:
        return self.instance.n_jobs

    @property
    def n_machines(self) -> int:
        return self.instance.n_machines

    @property
    def n_couples(self) -> int:
        return int(self.mm.shape[0])

    @property
    def complexity(self) -> DataStructureComplexity:
        """Table I complexity descriptor for this instance."""
        return self._complexity

    def arrays(self) -> dict[str, np.ndarray]:
        """The device-transferable arrays, keyed by the paper's names."""
        return {"PTM": self.ptm, "LM": self.lm, "JM": self.jm, "MM": self.mm, "TAILS": self.tails}

    def couple_tensors(self) -> CoupleTensors:
        """Gather tensors of the v2 kernel (built lazily, cached, immutable)."""
        if self._couple_tensors is None:
            m1 = self.mm[:, 0]
            m2 = self.mm[:, 1]
            a_times = self.ptm[self.jm, m1[None, :]].astype(np.int64)
            b_times = self.ptm[self.jm, m2[None, :]].astype(np.int64)
            lags = np.take_along_axis(self.lm, self.jm, axis=0).astype(np.int64)
            for arr in (a_times, b_times, lags):
                arr.setflags(write=False)
            self._couple_tensors = CoupleTensors(
                a_times=a_times, b_times=b_times, lags=lags, m1=m1, m2=m2
            )
        return self._couple_tensors

    # ------------------------------------------------------------------ #
    # Per-node helpers (RM / QM)
    # ------------------------------------------------------------------ #
    def machine_release_times(self, prefix: Sequence[int]) -> np.ndarray:
        """``RM`` — per-machine completion times of the scheduled prefix.

        The machine axis is vectorised: appending one job is one max-plus
        machine scan (:func:`~repro.flowshop.schedule.machine_scan`), so
        the recurrence takes ``l`` scans instead of an ``O(l * m)``
        pure-Python double loop.
        """
        after, before = job_cumulative_times(self.ptm, np.int64)
        front = np.zeros(self.n_machines, dtype=np.int64)
        for job in prefix:
            machine_scan(front, job, after, before, out=front)
        return front

    def min_tails(self, scheduled_mask: np.ndarray) -> np.ndarray:
        """``QM`` — minimal remaining tail per machine over unscheduled jobs."""
        if scheduled_mask.all():
            return np.zeros(self.n_machines, dtype=np.int64)
        return self.tails[~scheduled_mask].min(axis=0)


def _scheduled_mask(n_jobs: int, prefix: Sequence[int]) -> np.ndarray:
    mask = np.zeros(n_jobs, dtype=bool)
    for job in prefix:
        if not 0 <= job < n_jobs:
            raise ValueError(f"job index {job} out of range")
        if mask[job]:
            raise ValueError(f"job {job} scheduled twice")
        mask[job] = True
    return mask


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """Bit-pack boolean scheduled masks, ``(..., n)`` into ``(..., ceil(n / 8))`` uint8.

    Job ``j`` is bit ``j % 8`` of byte ``j // 8`` (little bit order); the
    padding bits past ``n`` are zero.  This is the node layout of
    :class:`~repro.bb.frontier.NodeBlock` and of kernel v2's input.
    """
    return np.packbits(np.asarray(mask, dtype=bool), axis=-1, bitorder="little")


def unpack_mask(bits: np.ndarray, n_jobs: int) -> np.ndarray:
    """The boolean ``(..., n_jobs)`` masks of packed rows (the inverse of :func:`pack_mask`)."""
    return np.unpackbits(bits, axis=-1, count=n_jobs, bitorder="little").view(bool)


def as_mask_bits(scheduled_mask, n_jobs: int) -> np.ndarray:
    """Scheduled masks as packed rows: ``(B, ceil(n_jobs / 8))`` uint8.

    Packed rows (a uint8 array of that shape, padding bits zero) are
    returned as they are; a boolean ``(B, n_jobs)`` mask (or anything that
    converts to one) is packed once.
    """
    width = (n_jobs + 7) >> 3
    if (
        isinstance(scheduled_mask, np.ndarray)
        and scheduled_mask.dtype == np.uint8
        and scheduled_mask.ndim == 2
        and scheduled_mask.shape[1] == width
    ):
        return scheduled_mask
    mask = np.asarray(scheduled_mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[1] != n_jobs:
        raise ValueError(
            f"scheduled_mask must have shape (B, {n_jobs}), or be packed rows "
            f"of shape (B, {width}) and dtype uint8"
        )
    return pack_mask(mask)


@functools.lru_cache(maxsize=64)
def job_bit_table(n_jobs: int) -> np.ndarray:
    """``(n_jobs, ceil(n_jobs / 8))`` uint8, read-only: row ``j`` holds job ``j``'s bit alone.

    A child's packed row is its parent's row OR the row of its job,
    gathered by job, and a parent's is the child's XOR it.
    """
    table = pack_mask(np.eye(n_jobs, dtype=bool))
    table.setflags(write=False)
    return table


#: ``_LOW_BIT[v]``: the index of the lowest set bit of byte value ``v``
#: (0 for ``v == 0``).
_LOW_BIT = np.array([(v & -v).bit_length() - 1 if v else 0 for v in range(256)], dtype=np.intp)


def one_machine_bound(
    data: LowerBoundData,
    prefix: Sequence[int],
    release: np.ndarray | None = None,
) -> int:
    """Single-machine relaxation bound (used as a complement / fallback).

    For every machine ``k`` the makespan is at least
    ``RM[k] + sum of remaining work on k + QM[k]``.  This bound is weaker
    than the two-machine bound but is exact for ``m == 1`` and provides the
    base case the couple-based kernel cannot cover.
    """
    mask = _scheduled_mask(data.n_jobs, prefix)
    rm = (
        data.machine_release_times(prefix)
        if release is None
        else np.asarray(release, dtype=np.int64)
    )
    if mask.all():
        return int(rm[-1])
    qm = data.min_tails(mask)
    remaining = data.ptm[~mask]
    loads = remaining.sum(axis=0)
    return int(np.max(rm + loads + qm))


def lower_bound(
    data: LowerBoundData,
    prefix: Sequence[int],
    release: np.ndarray | None = None,
) -> int:
    """Scalar lower bound of one sub-problem (the paper's ``computeLB``).

    Parameters
    ----------
    data:
        Precomputed instance-level structures.
    prefix:
        The scheduled jobs of the sub-problem (partial schedule), in order.
    release:
        Optional precomputed ``RM`` vector for the prefix; avoids an
        ``O(l * m)`` recomputation when the caller (the B&B engine) already
        maintains release times incrementally.

    Returns
    -------
    int
        A valid lower bound on the makespan of every completion of
        ``prefix``.  For a complete schedule the bound equals its makespan.
        At ``m == 1``, where there is no machine couple, it is the
        single-machine relaxation (:func:`one_machine_bound`); at ``m >= 2``
        the couple bound dominates that relaxation, as in the paper's kernel.
    """
    mask = _scheduled_mask(data.n_jobs, prefix)
    rm = (
        data.machine_release_times(prefix)
        if release is None
        else np.asarray(release, dtype=np.int64)
    )
    if rm.shape != (data.n_machines,):
        raise ValueError(f"release vector must have shape ({data.n_machines},)")

    if mask.all():
        return int(rm[-1])

    qm = data.min_tails(mask)
    best = 0

    ptm = data.ptm
    jm = data.jm
    lm = data.lm
    mm = data.mm

    for c in range(data.n_couples):
        m1 = int(mm[c, 0])
        m2 = int(mm[c, 1])
        t_m1 = int(rm[m1])
        t_m2 = int(rm[m2])
        for i in range(data.n_jobs):
            job = int(jm[i, c])
            if mask[job]:
                continue
            t_m1 += int(ptm[job, m1])
            ready = t_m1 + int(lm[job, c])
            if ready > t_m2:
                t_m2 = ready
            t_m2 += int(ptm[job, m2])
        value = t_m2 + int(qm[m2])
        if value > best:
            best = value

    if data.n_couples == 0:
        best = max(best, one_machine_bound(data, prefix, release=rm))
    return int(best)


def _prepare_batch(
    data: LowerBoundData, scheduled_mask: np.ndarray, release: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Shared pool validation / split of the batched kernels.

    Complete schedules are resolved immediately (their bound is the realised
    makespan ``release[:, -1]``); the remaining ("active") sub-problems get
    their per-node ``QM`` vector computed by a masked min over the tails.

    Returns ``None`` for an empty pool, otherwise the tuple
    ``(bounds, active, mask_a, rel_a, qm, unscheduled)`` where ``bounds`` is
    the ``(B,)`` output vector with the complete entries already filled in
    and the ``*_a`` arrays are restricted to the active sub-problems.
    """
    scheduled_mask = np.asarray(scheduled_mask, dtype=bool)
    release = np.asarray(release, dtype=np.int64)
    if scheduled_mask.ndim != 2 or scheduled_mask.shape[1] != data.n_jobs:
        raise ValueError(f"scheduled_mask must have shape (B, {data.n_jobs})")
    if release.shape != (scheduled_mask.shape[0], data.n_machines):
        raise ValueError(f"release must have shape ({scheduled_mask.shape[0]}, {data.n_machines})")

    batch = scheduled_mask.shape[0]
    if batch == 0:
        return None

    complete = scheduled_mask.all(axis=1)
    bounds = np.zeros(batch, dtype=np.int64)
    bounds[complete] = release[complete, -1]
    active = ~complete

    mask_a = scheduled_mask[active]
    rel_a = release[active]

    # QM: per-node minimal tails over unscheduled jobs (masked min).
    big = np.int64(np.iinfo(np.int64).max // 4)
    tails = np.where(mask_a[:, :, None], big, data.tails[None, :, :])
    qm = tails.min(axis=1)  # (B_active, m)

    unscheduled = ~mask_a  # (B_active, n)
    return bounds, active, mask_a, rel_a, qm, unscheduled


def lower_bound_batch(
    data: LowerBoundData,
    scheduled_mask: np.ndarray,
    release: np.ndarray,
) -> np.ndarray:
    """Vectorised lower bound of a pool of sub-problems.

    This function reproduces, on the host, exactly what the paper's CUDA
    kernel computes on the device: one logical thread per sub-problem, all
    threads walking the same Johnson orders.  The vectorisation is over the
    pool dimension (``B`` sub-problems evaluated simultaneously), which is
    also the axis the GPU parallelises over.

    Parameters
    ----------
    data:
        Precomputed instance-level structures.
    scheduled_mask:
        ``(B, n)`` boolean matrix; ``scheduled_mask[b, j]`` is True when job
        ``j`` is already scheduled in sub-problem ``b``.
    release:
        ``(B, m)`` matrix of per-machine release times (``RM``) of every
        sub-problem.

    Returns
    -------
    numpy.ndarray
        ``(B,)`` int64 vector of lower bounds, bit-identical to calling
        :func:`lower_bound` on every sub-problem individually.
    """
    prepared = _prepare_batch(data, scheduled_mask, release)
    if prepared is None:
        return np.zeros(0, dtype=np.int64)
    bounds, active, mask_a, rel_a, qm, unscheduled = prepared
    if not active.any():
        return bounds
    n_active = mask_a.shape[0]

    ptm = data.ptm
    jm = data.jm
    lm = data.lm
    mm = data.mm

    best = np.zeros(n_active, dtype=np.int64)

    for c in range(data.n_couples):
        m1 = int(mm[c, 0])
        m2 = int(mm[c, 1])
        order = jm[:, c]  # (n,)
        a_times = ptm[order, m1]  # (n,)
        b_times = ptm[order, m2]  # (n,)
        lags = lm[order, c]  # (n,)
        present = unscheduled[:, order]  # (B_active, n) in Johnson order

        t_m1 = rel_a[:, m1].astype(np.int64).copy()
        t_m2 = rel_a[:, m2].astype(np.int64).copy()
        for i in range(data.n_jobs):
            sel = present[:, i]
            if not sel.any():
                continue
            t_m1 = t_m1 + np.where(sel, a_times[i], 0)
            ready = t_m1 + lags[i]
            t_m2 = np.where(sel & (ready > t_m2), ready, t_m2)
            t_m2 = t_m2 + np.where(sel, b_times[i], 0)
        value = t_m2 + qm[:, m2]
        best = np.maximum(best, value)

    if data.n_couples == 0:
        loads = unscheduled.astype(np.int64) @ ptm  # (B_active, m)
        one_mach = (rel_a + loads + qm).max(axis=1)
        best = np.maximum(best, one_mach)

    bounds[active] = best
    return bounds


#: Smallest ``n_jobs`` from which kernel v2 takes the incremental body;
#: below it every launch takes the GEMM body.  The GEMM's per-row cost
#: grows with ``n^2`` and the incremental one's per-parent cost with ``n``,
#: so this is a crossover in ``n``.  ``benchmarks/bench_kernel_v2.py``
#: prints it in script mode; on a 2-vCPU Xeon with OpenBLAS, one thread,
#: m = 20: at n = 20 a single parent's siblings are 2.1-2.5x cheaper on the
#: GEMM while a 256-parent launch is 3.2x cheaper incremental, at n = 50
#: the incremental body wins both (2.0-2.1x and 11-12x), at n = 200 by
#: 43-44x and 106-111x.  From here on the GEMM's weights also cost too
#: much to build: 13 ms and 10.5 MB traced at 50x20, 46 ms and 41 MB at
#: 100x20 (the whole budgeted ta100x20 GPU solve peaks at ~85 MB RSS).
#: With the GEMM's set step (2-vCPU AMD EPYC) the 256-parent launch is
#: even at n = 20 (2.0 against 1.9 ms) and 4.8x cheaper incremental at
#: n = 30.
_V2_INCREMENTAL_MIN_JOBS = 40

#: Most elements of one matrix product of the GEMM body, and of its other
#: per-chunk temporaries: a chunk holds ``_V2_GEMM_ELEMENTS // max(n_couples,
#: n_jobs * n_machines)`` rows, and each product covers as many jobs'
#: candidates as fit, so a small launch takes one product per chunk and a
#: large one a few jobs per product (two at 20x20, five at 13x6).  One
#: sweep over the GPU engine's launches below 40 jobs (2-vCPU Xeon, one
#: BLAS thread), time against the tiled GEMM it replaced: 2**16 0.97-1.08x,
#: 2**17 0.95-0.99x, 2**18 0.88-1.07x, 2**19 0.91-1.20x.
_V2_GEMM_ELEMENTS = 1 << 17

#: Fewest rows from which a GEMM launch bounds each distinct unscheduled set
#: once (the set step of :func:`_lower_bound_batch_v2_matmul`): the GEMM
#: runs on the distinct sets only, and each row then costs one gather and
#: a maximum over the machines.  Smaller launches bound every row.  Only
#: instances past the set table's cap (:data:`_V2_TABLE_ELEMENTS`) reach
#: it.  Set step against every row on their launches (2-vCPU AMD EPYC, one
#: BLAS thread, best of 3 alternating rounds): the first R rows of the
#: pools of a ta20x20 GPU solve (pool 8,192) 1.10x the time at 64 rows,
#: 0.91x at 128, 0.80x at 256, 0.63x at 384 and 0.41x at 4,096; a ta20x10
#: serial solve's launches 1.09x at 64-127 rows, 0.90x at 128-191 and
#: 0.76x at 384-447; but at m = 4-6 the launches of serial solves cross
#: later (ta20x5: 1.05x at 320-383 rows, 0.93x at 512-767; 16x4: 1.08x at
#: 256-319, 0.97x at 320-383; 17x6: 1.06x at 192-255, 0.78x at 320-383).
#: One row count serves every m, so it stays where the small-m launches
#: cross.
_V2_SET_STEP_MIN_ROWS = 384

#: Most elements, ``2**n_jobs * n_machines``, of the per-instance set table
#: (:func:`_set_table`): on an instance within it every GEMM launch bounds
#: its rows from the table's per-machine terms, one gather and a maximum
#: per row, and no launch runs the GEMM.  It admits every shape of the
#: exact solves (10x6 to 13x6 and 12x8; 49,152 elements at 13x6, 96 KB at
#: int16) and keeps ``n <= 15`` (m >= 2), so a key holds at most two bytes.
#: Table builds, weights included (2-vCPU AMD EPYC, one BLAS thread, best
#: of 5 instances): 0.27 ms at 10x6, 0.45 ms at 12x6, 0.79 ms at 13x6,
#: 0.80 ms at 12x8, 1.05-1.16 ms at 15x2 and 14x4, 2.0 ms at 11x20; past
#: the cap 12x20 took 3.4 ms, and each further job doubles the build.
_V2_TABLE_ELEMENTS = 1 << 16

#: Elements (parents x n_jobs x n_couples) of each of the two tables the
#: incremental body builds per tile of parents, and its split grain:
#: one part of a split launch holds at least one tile's worth of
#: ``rows x n_couples`` (:func:`_split_cuts`).  A tile makes about 100
#: numpy calls whatever its width, so wider tiles hand the interpreter
#: lock between the parts of a split launch less often per element.  The
#: ta100x20 sibling launch (children of 256 depth-2 parents) on a 2-vCPU
#: Xeon, one part against two: 36 / 29 ms at 2**18 and 39 / 25 ms at
#: 2**19 (best of 40 interleaved runs); 3 * 2**18 split no better and
#: peaks at 7.9 MB traced against 5.3 MB, and 2**20 at 10.5 MB, above the
#: 10 MB ceiling of ``tests/test_executor.py``.  Two forced parts against
#: one, ta100x20 children of 8 / 27 / 54 parents: 3.0 / 4.2 / 5.6 ms
#: against 2.2 / 4.1 / 7.4 ms, so a split pays from about two tiles.
_V2_INCREMENTAL_TILE = 1 << 19


def _usable_cpus() -> int:
    """CPUs the calling thread may run on now (``taskset`` narrows it)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is None:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1
    return len(getaffinity(0))


def _split_cuts(rows: int, n_couples: int) -> list[int] | None:
    """Row cuts of an incremental launch split across the usable CPUs, or ``None``.

    Uses the most parts, up to one per usable CPU, for which every part
    stays above the grain of work: the incremental body fills tables of
    about ``n_couples`` elements per row, so a part needs
    ``_V2_INCREMENTAL_TILE / n_couples`` rows, one tile's worth, and any
    cut is exact.  The grain is checked first, so small launches skip the
    affinity read.
    """
    most = min(rows, rows * n_couples // _V2_INCREMENTAL_TILE)
    if most < 2:
        return None
    parts = min(most, _usable_cpus())
    if parts < 2:
        return None
    return [rows * part // parts for part in range(parts)] + [rows]


def _evaluate_rows(evaluate, n_couples: int, *columns: np.ndarray) -> np.ndarray:
    """``evaluate(*columns)``, split by :func:`_split_cuts` when large enough.

    ``columns`` are row-aligned arrays; ``evaluate`` returns one int64 bound
    per row.  Of a split launch, the calling thread evaluates the first part
    and one thread per other part, started here, evaluates that part.  Each
    part writes a disjoint slice of a fresh output array, so no lock is
    needed.  Every thread is joined before this returns, also on error, and
    the first failing part's exception (in row order) is raised here.
    """
    cuts = _split_cuts(len(columns[0]), n_couples)
    if cuts is None:
        return evaluate(*columns)
    out = np.empty(cuts[-1], dtype=np.int64)
    errors: list[BaseException | None] = [None] * (len(cuts) - 1)

    def run(part: int) -> None:
        lo, hi = cuts[part], cuts[part + 1]
        try:
            out[lo:hi] = evaluate(*(column[lo:hi] for column in columns))
        except BaseException as exc:  # noqa: BLE001 - raised again by the caller
            errors[part] = exc

    helpers = []
    try:
        for part in range(1, len(cuts) - 1):
            helper = threading.Thread(target=run, args=(part,), name=f"bounds-part-{part}")
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    for error in errors:
        if error is not None:
            raise error
    return out


def _johnson_positions(data: LowerBoundData) -> np.ndarray:
    """``(n, C)`` position of every job in every couple's Johnson order."""
    n, n_couples = data.n_jobs, data.n_couples
    pos = np.empty((n, n_couples), dtype=np.intp)
    pos[data.jm, np.arange(n_couples)[None, :]] = np.arange(n)[:, None]
    return pos


class _V2GemmData:
    """Per-instance tensors of the GEMM v2 body.

    The Johnson two-machine scan of couple ``c`` has the closed form::

        t2_final = max(t2_0 + B_N,  t1_0 + B_N + max_j (A_j + lag_j - B_<j))

    where ``A_j`` (resp. ``B_<j``) is the total processing time on the first
    (resp. second) machine of the *unscheduled* jobs up to and including
    (resp. strictly before) job ``j`` in the couple's Johnson order, and
    ``B_N`` the total second-machine work of all unscheduled jobs.  Every
    inner term is linear in the unscheduled-job indicator vector ``u``, so
    the candidates of *all* jobs and *all* couples are one matrix product
    ``stacked @ u``.  Scheduled jobs are excluded from the outer max by a
    ``+BIG`` diagonal term inside the weights paired with a ``-BIG``
    constant column, which turns their candidates into large negative
    values — the masking costs nothing at evaluation time.  ``B_N`` is
    baked into every candidate.

    ``stacked`` is ``(n * C, n + 1)``, job-major: rows ``j * C`` to ``(j +
    1) * C`` produce job ``j``'s candidate for every couple (the last column
    carries the constants), so the rows of a run of jobs are one contiguous
    block whose product reshapes to ``(jobs, C, B)`` and reduces over its
    leading axis.  ``bf`` (``(C, n + 1)``) produces ``B_N``; ``m2`` holds
    the couples' second machines and ``fronts`` their first machines, then
    their second ones.

    ``qm`` is ``(ceil(n / 8), 256, m)``: ``qm[b, v]`` is the per-machine
    minimum tail over the jobs of byte ``b`` of a packed row that byte
    value ``v`` leaves unscheduled (+inf where it leaves none; padding bits
    never count), so a row's ``QM`` is the minimum over its bytes ``b`` of
    ``qm[b, bits[b]]``.

    The set step and the set table fold a set's ``2C`` couple terms
    (``top_c + QM_l`` then ``B_N,c + QM_l`` for every couple ``c = (k,
    l)``) into one term per machine, the machine whose release time each
    term adds: ``fold`` orders the ``2C`` terms by that machine (``m - 1``
    terms each, as ``fronts`` labels them).  An instance within
    ``_V2_TABLE_ELEMENTS`` builds these tensors once, for its table
    (:func:`_set_table`), and keeps only the table.
    """

    __slots__ = ("ftype", "stacked", "bf", "qm", "m2", "fronts", "fold")

    def __init__(self, data: LowerBoundData, ftype: np.dtype):
        n, n_couples = data.n_jobs, data.n_couples
        m1, m2 = data.mm[:, 0], data.mm[:, 1]
        self.ftype = np.dtype(ftype)
        big = _v2_big_sentinel(data)

        pos = _johnson_positions(data)
        a_full = data.ptm[:, m1]  # (n, C) first-machine times
        b_full = data.ptm[:, m2]  # (n, C) second-machine times

        # weights[j, j', c]: contribution of job j' to job j's candidate.
        le = pos[:, None, :] >= pos[None, :, :]
        lt = pos[:, None, :] > pos[None, :, :]
        weights = a_full[None, :, :] * le - b_full[None, :, :] * lt
        diag = np.arange(n)
        weights[diag, diag, :] += big
        weights += b_full[None, :, :]  # bake B_N into every candidate
        const = np.broadcast_to((data.lm - big)[:, None, :], (n, 1, n_couples))
        kj = np.concatenate([weights, const], axis=1)  # (n, n + 1, C)
        stacked = np.ascontiguousarray(kj.transpose(0, 2, 1), dtype=self.ftype)
        self.stacked = stacked.reshape(n * n_couples, n + 1)

        bf = np.concatenate([b_full, np.zeros((1, n_couples), dtype=np.int64)], axis=0)
        self.bf = np.ascontiguousarray(bf.T, dtype=self.ftype)  # (C, n + 1)
        width = (n + 7) >> 3
        tails = np.full((8 * width, data.n_machines), np.inf, dtype=self.ftype)
        tails[:n] = data.tails  # padding jobs: +inf, never a minimum
        scheduled = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)  # (256, 8)
        per_byte = tails.reshape(width, 1, 8, -1)
        self.qm = np.where(scheduled[:, :, None], np.inf, per_byte).min(axis=2)
        self.m2, self.fronts = m2, np.concatenate([m1, m2])
        self.fold = np.argsort(self.fronts, kind="stable")


def _v2_big_sentinel(data: LowerBoundData) -> int:
    """Masking offset strictly dominating every legitimate candidate value."""
    big = data._v2_gemm_cache.get("big")
    if big is None:
        max_pt = int(data.ptm.max()) if data.ptm.size else 0
        max_lag = int(data.lm.max()) if data.lm.size else 0
        big = data._v2_gemm_cache["big"] = 2 * (data.n_jobs * max_pt + max_lag) + 1
    return big


def _v2_value_bound(data: LowerBoundData, release: np.ndarray) -> int:
    """Upper bound on the magnitude of any intermediate v2 value."""
    release_max = int(release.max()) if release.size else 0
    return release_max + 4 * _v2_big_sentinel(data) + 1


def _v2_gemm_data(data: LowerBoundData, ftype: type) -> _V2GemmData:
    """The GEMM tables for ``ftype`` (``np.float32`` or ``np.float64``), built once."""
    gd = data._v2_gemm_cache.get(ftype)
    if gd is None:
        gd = data._v2_gemm_cache[ftype] = _V2GemmData(data, ftype)
    return gd


def _lower_bound_batch_v2_matmul(
    data: LowerBoundData, bits: np.ndarray, release: np.ndarray, ftype: np.dtype
) -> np.ndarray:
    """GEMM v2 body: the closed-form candidates of :class:`_V2GemmData` by BLAS.

    Only launches on instances past :data:`_V2_TABLE_ELEMENTS` (and those
    whose ``release`` passes the set table's ``-inf``) come here; the others
    read the set table, which this body's set step builds once
    (:func:`_set_table`).

    A launch below :data:`_V2_SET_STEP_MIN_ROWS` rows arrives with only its
    *active* (incomplete, not root) sub-problems, as packed rows, and the
    GEMM (:func:`_gemm_chunks`) bounds every row: ``max_c(max(top_c + r_k,
    B_N,c + r_l) + QM_l)`` over the couples ``c = (k, l)``, with ``top_c``
    the largest candidate of couple ``c`` (``B_N`` baked in).

    From that size the launch arrives whole and takes the set step, one row
    chunk of ``_V2_GEMM_ELEMENTS // m`` rows at a time: every packed row
    becomes one int64 key, ``np.unique`` finds the chunk's distinct
    unscheduled sets, and the GEMM runs on those sets only, folding each
    set's couple terms into one term per machine::

        W_k = max(max over couples (k, l) of top_c + QM_l,
                  max over couples (i, k) of B_N,c + QM_k)

    A row's bound is then ``max_k(r_k + W_k)``: one gather and O(m) work
    per row instead of O(C) (:func:`_max_plus_rows`, which the set table's
    launches share).  Complete sets are resolved among the distinct
    sets, ``W = (-inf, ..., -inf, 0)`` giving the makespan ``r_{m-1}``, and
    a root set is one more set for the GEMM.  A chunk's keys, ``np.unique``
    buffers and gathered terms grow with its rows, so the chunk keeps them
    near the GEMM's own element budget.

    All float arithmetic operates on integers far below the mantissa limit
    of ``ftype`` (guarded by :func:`_v2_value_bound`), so the results are
    exact and bit-identical to the int64 reference.  The per-machine terms
    are integers: int32 under the float32 guard (below ``2**24``), int64
    under the float64 one.
    """
    gd = _v2_gemm_data(data, ftype)
    n_couples, rows = data.n_couples, len(bits)
    best = np.empty(rows, dtype=np.int64)
    if rows < _V2_SET_STEP_MIN_ROWS:
        for start, end, terms, qm in _gemm_chunks(data, gd, bits):
            terms += release[start:end].T.astype(gd.ftype)[gd.fronts]  # + r_k, + r_l
            top = terms[:n_couples]
            np.maximum(top, terms[n_couples:], out=top)
            top += qm.T[gd.m2]
            best[start:end] = top.max(axis=0)
        return best

    step = max(1, _V2_GEMM_ELEMENTS // data.n_machines)
    for start in range(0, rows, step):
        chunk = slice(start, start + step)
        best[chunk] = _bound_by_set(data, gd, bits[chunk], release[chunk])
    return best


def _bound_by_set(
    data: LowerBoundData, gd: _V2GemmData, bits: np.ndarray, release: np.ndarray
) -> np.ndarray:
    """The set step on one chunk of rows: ``(rows,)`` bounds, each set bounded once.

    Every temporary, the row keys and ``np.unique``'s buffers included, is
    released on return, so no two chunks' buffers are alive at once.
    """
    m = data.n_machines
    rows, width_bytes = bits.shape
    itype = np.int32 if gd.ftype == np.float32 else np.int64
    keys = np.zeros((rows, 8), dtype=np.uint8)  # one int64 key per packed row
    for byte in range(width_bytes):  # a column at a time: one long copy each
        keys[:, byte] = bits[:, byte]
    sets, inverse = np.unique(keys.view("<i8").ravel(), return_inverse=True)
    # keys read as little-endian, so the complete set's is the largest
    full_key = int.from_bytes(_full_row(data.n_jobs).tobytes(), "little")
    active = len(sets) - int(sets[-1] == full_key)
    machine_terms = np.empty((m, len(sets)), dtype=itype)
    set_bits = sets[:active].view(np.uint8).reshape(active, 8)[:, :width_bytes]
    _machine_terms(data, gd, set_bits, machine_terms[:, :active])
    if active < len(sets):
        machine_terms[:-1, -1] = np.iinfo(itype).min // 2  # -inf: the bound is r_{m-1}
        machine_terms[-1, -1] = 0
    return _max_plus_rows(machine_terms, inverse, release, itype)


def _machine_terms(
    data: LowerBoundData, gd: _V2GemmData, set_bits: np.ndarray, out: np.ndarray
) -> None:
    """The ``(m, sets)`` per-machine terms ``W_k`` of incomplete sets, into ``out``.

    ``set_bits`` holds one packed row per set.  The GEMM
    (:func:`_gemm_chunks`) yields each set's ``2C`` couple terms, ``top_c +
    QM_l`` and ``B_N,c + QM_l``, and ``fold`` groups them by the machine
    whose release time each adds: ``W_k`` is the largest of its ``m - 1``.
    """
    n_couples, m = data.n_couples, data.n_machines
    for lo, hi, terms, qm in _gemm_chunks(data, gd, set_bits):
        pairs = terms.reshape(2, n_couples, hi - lo)
        np.add(pairs, qm.T[gd.m2], out=pairs)
        folded = terms.take(gd.fold, axis=0).reshape(m, m - 1, hi - lo)
        out[:, lo:hi] = folded.max(axis=1)


def _max_plus_rows(
    machine_terms: np.ndarray, sets: np.ndarray, release: np.ndarray, dtype
) -> np.ndarray:
    """``(rows,)``: ``max_k(release[i, k] + machine_terms[k, sets[i]])``, summed in ``dtype``.

    One gather of every row's ``(m,)`` column, one add and one maximum
    over the machines, on ``(m, rows)`` temporaries.
    """
    values = np.add(machine_terms.take(sets, axis=1), release.T, dtype=dtype)
    return values.max(axis=0)


def _set_table(data: LowerBoundData) -> np.ndarray:
    """``(m, 2**n)``: the per-machine terms ``W_k`` of every unscheduled set, built once.

    Column ``key`` belongs to the set whose scheduled jobs are the bits of
    ``key``, a packed row read as a little-endian integer.  The GEMM and
    its fold (:func:`_machine_terms`) run once over the ``2**n - 1``
    incomplete sets; the complete set's column is ``(-inf, ..., -inf,
    0)``, so its rows get ``r_{m-1}``, their makespan.  Every ``W_k`` is a
    sum of distinct processing times, so the table is int16 when the
    instance's total is below ``2**15`` (``-inf`` is ``-2**15``) and int32
    otherwise.  The table is built here, on the first launch that reads
    it, and enters the instance's cache only when complete: threads that
    bound one :class:`LowerBoundData` at once may each build one, and
    every copy is the same.
    """
    table = data._v2_gemm_cache.get("table")
    if table is not None:
        return table
    n, m = data.n_jobs, data.n_machines
    itype = np.int16 if int(data.ptm.sum()) < 2**15 else np.int32
    # the GEMM's value guard with no release time: the build adds none
    ftype = np.float32 if _v2_value_bound(data, data.ptm[:0]) < 2**24 else np.float64
    keys = np.arange((1 << n) - 1, dtype="<u2")  # every incomplete set
    set_bits = keys.view(np.uint8).reshape(-1, 2)[:, : (n + 7) >> 3]
    table = np.empty((m, 1 << n), dtype=itype)
    _machine_terms(data, _V2GemmData(data, ftype), set_bits, table[:, :-1])
    table[:-1, -1] = np.iinfo(itype).min
    table[-1, -1] = 0
    table.setflags(write=False)
    data._v2_gemm_cache["table"] = table
    return table


def _bound_by_table(
    data: LowerBoundData, table: np.ndarray, bits: np.ndarray, release: np.ndarray
) -> np.ndarray:
    """``(rows,)`` bounds of packed rows from the instance's set table (:func:`_set_table`).

    Each row's key is its packed row read as an integer (one or two
    bytes), and its bound ``max_k(r_k + W_k)`` one gather and a maximum,
    ``_V2_GEMM_ELEMENTS // m`` rows at a time.  Sums are int32 beside an
    int16 table (every ``W_k`` lies below ``2**15``, and the caller reads
    the table only for release times within ``2**15``) and int64 beside an
    int32 one.  A key past the table, a row with a padding bit set, raises
    ``ValueError``.
    """
    rows, width = bits.shape
    keys = bits[:, 0] if width == 1 else np.ascontiguousarray(bits).view("<u2")[:, 0]
    dtype = np.int32 if table.dtype == np.int16 else np.int64
    best = np.empty(rows, dtype=np.int64)
    step = max(1, _V2_GEMM_ELEMENTS // data.n_machines)
    try:
        for start in range(0, rows, step):
            chunk = slice(start, start + step)
            best[chunk] = _max_plus_rows(table, keys[chunk], release[chunk], dtype)
    except IndexError:
        raise ValueError(f"scheduled_mask sets a bit past job {data.n_jobs - 1}") from None
    return best


def _gemm_chunks(
    data: LowerBoundData, gd: _V2GemmData, bits: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield ``(start, end, terms, qm)`` for every row chunk of the packed ``bits``.

    ``terms`` is the chunk's ``(2C, width)`` block: every couple's largest
    candidate ``top_c`` (``B_N`` baked in), then every couple's ``B_N``;
    ``qm`` is its ``(width, m)`` ``QM``, the minimum over a row's bytes of
    the per-instance byte tables (:class:`_V2GemmData`).  Both are views of
    one workspace, which the next chunk overwrites.

    Rows go in chunks, read in place, and each chunk is unpacked into the
    indicator block ``u``; within a chunk one product yields the candidates
    of a run of ``span`` jobs for every couple, and their maximum reduces
    over the leading (job) axis.  A chunk's temporaries and each product
    hold at most :data:`_V2_GEMM_ELEMENTS` elements, so a small launch
    takes one product per chunk and a large one a few jobs per product.
    The chunks reuse one workspace allocated per call, so concurrent calls
    (the service bounds one instance from several threads) share no scratch
    memory and none outlives the launch.
    """
    n, n_couples = data.n_jobs, data.n_couples
    rows, width_bytes = bits.shape
    if rows == 0:
        return
    chunk = min(rows, max(1, _V2_GEMM_ELEMENTS // max(n_couples, n * data.n_machines)))
    span = min(n, max(1, _V2_GEMM_ELEMENTS // (n_couples * chunk)))  # jobs per product
    # one workspace: indicators, running maximum, scratch, products
    u_end, top_end, part_end = n + 1, n + 1 + n_couples, n + 1 + 2 * n_couples
    work = np.empty((part_end + span * n_couples) * chunk, dtype=gd.ftype)
    for start in range(0, rows, chunk):
        end = min(start + chunk, rows)
        width = end - start
        views = work[: (part_end + span * n_couples) * width].reshape(-1, width)
        u, top = views[:u_end], views[u_end:top_end]
        part, products = views[top_end:part_end], views[part_end:]
        chunk_bits = bits[start:end]
        scheduled = np.unpackbits(chunk_bits.T, axis=0, count=n, bitorder="little")  # (n, width)
        np.logical_not(scheduled, out=u[:n])
        u[n] = 1.0

        # the largest candidate of every couple, ``span`` jobs per product
        for j0 in range(0, n, span):
            count = min(span, n - j0)
            weights = gd.stacked[j0 * n_couples : (j0 + count) * n_couples]
            out = top if j0 == 0 else part
            if count == 1:
                np.dot(weights, u, out=out)
            else:
                block = np.dot(weights, u, out=products[: count * n_couples])
                block.reshape(count, n_couples, width).max(axis=0, out=out)
            if j0:
                np.maximum(top, part, out=top)

        qm = gd.qm[0].take(chunk_bits[:, 0], axis=0)  # (width, m)
        for b in range(1, width_bytes):
            np.minimum(qm, gd.qm[b].take(chunk_bits[:, b], axis=0), out=qm)
        np.dot(gd.bf, u, out=part)  # B_N per couple
        yield start, end, views[u_end:part_end], qm


def _root_bounds(data: LowerBoundData, release: np.ndarray) -> np.ndarray:
    """``(R,)`` bounds of rows with nothing scheduled, in closed form.

    With every job unscheduled, couple ``c = (i, l)``'s Johnson scan has one
    largest candidate ``K_c`` and one second-machine work ``B_c``, and every
    row the same ``QM``, so a row's bound is ``max_c(max(r_l, r_i + K_c) +
    B_c + QM_l)`` over the couples.  The three are per-instance constants
    of :meth:`LowerBoundData.couple_tensors`: no GEMM weight or incremental
    table is built for a root.
    """
    tables = data._v2_gemm_cache.get("root")
    if tables is None:
        ct = data.couple_tensors()
        b_before = np.cumsum(ct.b_times, axis=0) - ct.b_times
        top = (np.cumsum(ct.a_times, axis=0) + ct.lags - b_before).max(axis=0)
        tail = ct.b_times.sum(axis=0) + data.tails.min(axis=0)[ct.m2]
        tables = data._v2_gemm_cache["root"] = (top, tail)
    top, tail = tables
    release = release.astype(np.int64)
    front = np.maximum(release[:, data.mm[:, 1]], release[:, data.mm[:, 0]] + top)
    return (front + tail).max(axis=1)


class _V2IncrementalData:
    """Per-instance tables of the incremental (sibling) v2 evaluation.

    ``narrow`` holds ``(diff, head)``, ``(n, C, 1)`` tables in each couple's
    Johnson order (``[p, c]`` belongs to the job in position ``p`` of couple
    ``c``) that broadcast over a tile's ``(n, C, parents)`` tables.  ``wide``
    holds them repeated over the ``tile`` parents of a full tile, so they
    combine with its tables element by element: the broadcast over the short
    parents axis took 1.3x as long.  Each wide table holds about
    :data:`_V2_INCREMENTAL_TILE` elements (2 MB at int32); a narrower tile
    (the last of a launch, or one parent's siblings) broadcasts the narrow
    ones instead of reading a few parents out of every wide row.  A child's
    candidate maximum for the job in position ``p`` lands in row ``(n - 2 -
    p) % n`` of a tile table; ``pos_flat[r, j]`` is the row of job ``j``'s
    cell for the couple of rank ``r`` in the table seen as ``(n * C,
    parents)``, with the couples ranked by diagonal: ``(i, i + 1 + d)`` for
    ``d = 0, 1, ...`` and ``i`` ascending, so ``diagonals[d]`` is the
    ``(start, end)`` rank range of diagonal ``d``, and its ``i``-th couple
    has the first machine ``i``.  ``ptm_t`` and ``tails_t`` are ``(m, n)``.
    ``neg`` marks the candidates of jobs outside a parent set: at ``-2 *
    big`` it stays below every real candidate even after a removal shift of
    up to ``max(PTM)``.
    """

    __slots__ = (
        "tile", "neg", "narrow", "wide", "pos_flat", "diagonals", "ptm_f", "ptm_t", "tails_t"
    )

    def __init__(self, data: LowerBoundData, dtype: np.dtype, tile: int):
        n, n_couples = data.n_jobs, data.n_couples
        ct = data.couple_tensors()
        self.tile = tile
        self.neg = -2 * _v2_big_sentinel(data)
        # candidate of position p: cumsum(a - b)[p] + b_p + lag_p
        diff = (ct.a_times - ct.b_times).astype(dtype)[:, :, None]
        head = (ct.b_times + ct.lags - self.neg).astype(dtype)[:, :, None]
        self.narrow = (diff, head)
        self.wide = (np.repeat(diff, tile, axis=2), np.repeat(head, tile, axis=2))
        # couples by diagonal: (i, i + 1 + d) for d = 0, 1, ... and i ascending
        diagonal = np.argsort(data.mm[:, 1] - data.mm[:, 0], kind="stable")
        rows = (n - 2 - _johnson_positions(data)) % n
        self.pos_flat = np.ascontiguousarray((rows * n_couples + np.arange(n_couples)).T[diagonal])
        m = data.n_machines
        edges = np.cumsum([0] + list(range(m - 1, 0, -1))).tolist()
        self.diagonals = list(zip(edges[:-1], edges[1:]))
        # float64 copy for the BLAS set sums (exact far below 2**53)
        self.ptm_f = data.ptm.astype(np.float64)
        self.ptm_t = np.ascontiguousarray(data.ptm.T).astype(dtype)
        self.tails_t = np.ascontiguousarray(data.tails.T).astype(dtype)


def _v2_incremental_data(data: LowerBoundData, dtype: np.dtype) -> _V2IncrementalData:
    """The incremental tables for ``dtype`` and the current tile, built once per instance."""
    tile = max(1, _V2_INCREMENTAL_TILE // (data.n_jobs * data.n_couples))
    cache = data._v2_gemm_cache
    key = ("incremental", np.dtype(dtype).name, tile)
    inc = cache.get(key)
    if inc is None:
        inc = cache[key] = _V2IncrementalData(data, dtype, tile)
    return inc


def _parent_set_starts(bits: np.ndarray, jobs: np.ndarray, chunk: int) -> np.ndarray:
    """``(rows,)`` flags: True where a row's parent set differs from the row before.

    The parent of row ``i`` had scheduled the packed row ``bits[i]`` without
    ``jobs[i]``, so two rows with equal sets but swapped last jobs have
    different parents.  Packed rows with their job's bit cleared are
    compared ``chunk`` rows at a time, overlapping by one row, so the
    temporaries stay ``(chunk + 1, ceil(n / 8))`` whatever the launch size.
    """
    rows, width = bits.shape
    job_bits = job_bit_table(8 * width)  # one row per bit position
    starts = np.empty(rows, dtype=bool)
    starts[0] = True
    for lo in range(1, rows, chunk):
        hi = min(lo + chunk, rows)
        parents = bits[lo - 1 : hi] ^ job_bits[jobs[lo - 1 : hi]]
        np.any(parents[1:] != parents[:-1], axis=1, out=starts[lo:hi])
    return starts


def _position_scan(op, tables: np.ndarray) -> None:
    """Inclusive ``op`` scan of ``tables`` along axis 1, in place.

    Work-efficient (Blelloch) order: an up-sweep and a down-sweep of
    ``log2(n)`` steps each, every step one numpy call on a strided set of
    whole rows, about ``2 n`` rows in all.  Against one call per row this
    does twice the element work but makes ``2 log2(n)`` calls instead of
    ``n``, so the parts of a split launch hand the interpreter lock to each
    other far less often.
    """
    n = tables.shape[1]
    step = 1
    while 2 * step <= n:
        right = tables[:, 2 * step - 1 :: 2 * step]
        op(right, tables[:, step - 1 :: 2 * step][:, : right.shape[1]], out=right)
        step *= 2
    step //= 2
    while step:
        right = tables[:, 3 * step - 1 :: 2 * step]
        op(right, tables[:, 2 * step - 1 :: 2 * step][:, : right.shape[1]], out=right)
        step //= 2


def _lower_bound_batch_v2_incremental(
    data: LowerBoundData,
    bits_a: np.ndarray,
    rel_a: np.ndarray,
    jobs_a: np.ndarray,
    dtype: np.dtype,
) -> np.ndarray:
    """Incremental sibling v2 evaluation: O(n·C) per parent, O(m) per child.

    Receives only the *active* (incomplete) sub-problems, as packed rows,
    and the job each one scheduled last; returns their ``(B_active,)``
    bounds.  Row ``i``'s parent set is its unscheduled set plus
    ``jobs_a[i]``; consecutive rows with equal parent sets form one group,
    so split or partial sibling sets stay exact (the tables depend on the
    parent's unscheduled set only — release times enter per row).

    The child that removes job ``k`` from its parent's set has, on couple
    ``(i, l)``, the term ``max(r_i + A_il, r_l) + W_l``: ``r`` is the
    child's release vector, ``A_il`` its Johnson candidate maximum and
    ``W_l`` the parent's ``B_N`` on machine ``l``, less ``k``'s time on
    ``l``, plus the child's ``QM_l``.  ``W_l`` depends on the second machine
    alone, so max-plus distributivity regroups the maximum over the
    ``m(m-1)/2`` couples by machine::

        bound = max(max_i (r_i + P_i), max_{l >= 1} (r_l + W_l)),
        P_i   = max_{l > i} (A_il + W_l)

    One pass per tile of parents builds ``PW_i = max(P_i, W_i)`` for every
    job of every parent set (``PW_{m-1} = W_{m-1}``), and each row then
    gathers one ``m``-wide column: ``max_i (r_i + PW_i)``.  The
    one-machine term of machine ``l`` is ``r_l + W_l``, and ``P_0 >= W_0``
    through the couple ``(0, m - 1)``, so the one-machine terms cannot
    change a bound of this body.

    Per tile, the closed-form candidates ``A_<=j + lag_j - B_<j`` of
    :class:`_V2GemmData` over each parent set, their prefix maxima and
    their suffix maxima run through ``(n, C, parents)`` tables,
    Johnson-position-major, as :func:`_position_scan` steps over whole
    rows: the running sum in one table, then both maxima at once, the
    suffix maxima on a position-reversed copy in the other table.
    Removing job ``k`` at position ``p`` leaves the earlier candidates
    unchanged and shifts every later one by ``b_k - a_k``, so the child's
    ``A`` is ``max(prefix[p - 1], suffix[p + 1] - (a_k - b_k))``.  One
    gather through ``pos_flat`` moves these to job order, couple-major
    with the couples ranked by diagonal: the couples ``(i, i + 1 + d)`` of
    one ``d`` are a contiguous block aligned with ``P_0 .. P_{m-2-d}`` and
    with ``W_{1+d} .. W_{m-1}``, so ``P`` takes one add and one maximum
    per diagonal.  ``QM`` comes from the (min, second-min) tails that the
    body finds per machine over each parent set: removing the child's job
    from the set leaves the minimum, unless that job held it.  Two tile
    tables are live at a time.  Integer ``dtype`` keeps the arithmetic
    exact.

    ``bits_a`` and ``rel_a`` are read in place: group starts are found
    ``_V2_INCREMENTAL_TILE // n`` rows at a time
    (:func:`_parent_set_starts`), and each tile unpacks the parent sets of
    its own groups from their first rows, so no temporary spans the launch.
    """
    n, n_couples = data.n_jobs, data.n_couples
    inc = _v2_incremental_data(data, dtype)
    job_bits = job_bit_table(n)
    rows = bits_a.shape[0]
    new_group = _parent_set_starts(bits_a, jobs_a, max(1, _V2_INCREMENTAL_TILE // n))
    starts = np.flatnonzero(new_group)
    n_groups = starts.size
    group_end = np.append(starts, rows)

    neg = np.asarray(inc.neg, dtype=dtype)
    big_tail = np.asarray(np.iinfo(dtype).max, dtype=dtype)
    best = np.empty(rows, dtype=np.int64)
    tile = inc.tile
    # the two tile tables, reused by every tile of this call
    buf = np.empty(2 * n * n_couples * min(tile, n_groups), dtype=dtype)
    for g0 in range(0, n_groups, tile):
        g1 = min(g0 + tile, n_groups)
        width = g1 - g0
        r0, r1 = int(group_end[g0]), int(group_end[g1])
        first = starts[g0:g1]
        parents = bits_a[first] ^ job_bits[jobs_a[first]]  # the parents' scheduled sets
        sets = unpack_mask(~parents, n)  # (G, n) parent sets: their unscheduled jobs

        # (n, C, G) in Johnson order: ``rev`` starts as the set indicators,
        # ``cand`` as the running sum of (a - b) over the set, from ``neg``
        pair = buf[: 2 * n * n_couples * width].reshape(2, n, n_couples, width)
        rev, cand = pair
        diff, head = inc.wide if width == tile else inc.narrow
        np.take(sets.T.astype(dtype), data.jm, axis=0, out=rev, mode="clip")
        np.multiply(rev, diff, out=cand)
        cand[0] += neg
        _position_scan(np.add, cand[None])
        rev *= head
        cand += rev  # members: the candidate; others: neg + a partial sum
        np.copyto(rev, cand[::-1])
        _position_scan(np.maximum, pair)  # prefix maxima; suffix maxima, reversed
        # the child's A for position p, into rev[(n - 2 - p) % n]
        rev[: n - 1] -= diff[: n - 1][::-1]
        np.maximum(rev[: n - 2], cand[: n - 2][::-1], out=rev[: n - 2])
        rev[n - 1] = cand[n - 2]
        child_a = cand.reshape(n_couples, n, width)  # job order, couple-major
        np.take(rev.reshape(-1, width), inc.pos_flat, axis=0, out=child_a, mode="clip")

        # W, (G, m, n): B_N, less the child's job, plus the child's QM
        tails = np.where(sets[:, None, :], inc.tails_t, big_tail)
        tails.partition(1, axis=2)  # per machine, the set's (min, second-min) tails
        tail_min = tails[:, :, :1]
        w = np.multiply(inc.tails_t == tail_min, tails[:, :, 1:2] - tail_min)
        w -= inc.ptm_t
        w += tail_min + np.dot(sets.astype(np.float64), inc.ptm_f).astype(dtype)[:, :, None]
        pw = np.ascontiguousarray(w.transpose(1, 2, 0))  # (m, n, G)
        # P_i = max_d (A + W) over the couples (i, i + 1 + d), by diagonal
        p_max = child_a[: len(pw) - 1]
        p_max += pw[1:]
        for d, (lo, hi) in enumerate(inc.diagonals[1:], start=1):
            block = child_a[lo:hi]
            block += pw[d + 1 :]
            np.maximum(p_max[: hi - lo], block, out=p_max[: hi - lo])
        np.maximum(pw[:-1], p_max, out=pw[:-1])  # PW_i = max(W_i, P_i)

        # per child: one m-wide column of its group's table
        local = np.cumsum(new_group[r0:r1]) - 1  # the tile starts a group
        value = pw.reshape(len(pw), -1).take(jobs_a[r0:r1] * width + local, axis=1)
        value += rel_a[r0:r1].T
        best[r0:r1] = value.max(axis=0)

    return best


def _check_jobs(jobs, bits: np.ndarray) -> np.ndarray:
    """Validate ``jobs``: one scheduled job per packed row of ``bits``.

    Tests each row's bit for its job; an integer ``jobs`` array is returned
    as it is (a block's int32 column is not widened).
    """
    jobs = np.asarray(jobs)
    batch, width = bits.shape
    if jobs.shape != (batch,) or (batch and jobs.dtype.kind not in "iu"):
        raise ValueError(f"jobs must be a ({batch},) integer array")
    # a negative job reads as a huge unsigned index and fails here too
    unsigned = jobs.view(f"u{jobs.itemsize}")
    try:
        byte = bits[np.arange(batch), unsigned >> 3]
    except IndexError:
        raise ValueError(f"jobs must lie in [0, {8 * width})") from None
    # a padding bit is never set, so a job past n_jobs fails here
    if np.count_nonzero((byte >> (unsigned & 7)) & 1) != batch:
        raise ValueError("jobs[i] must be scheduled in row i")
    return jobs


def _first_scheduled(bits: np.ndarray) -> np.ndarray:
    """``(B,)`` the lowest-numbered scheduled job of every (non-empty) packed row."""
    byte = (bits != 0).argmax(axis=1)
    return 8 * byte + _LOW_BIT[bits[np.arange(bits.shape[0]), byte]]


@functools.lru_cache(maxsize=64)
def _full_row(n_jobs: int) -> np.ndarray:
    """The packed row with every job scheduled (read-only, cached)."""
    row = pack_mask(np.ones(n_jobs, dtype=bool))
    row.setflags(write=False)
    return row


def lower_bound_batch_v2(
    data: LowerBoundData,
    scheduled_mask: np.ndarray,
    release: np.ndarray,
    strategy: str | None = None,
    jobs: np.ndarray | None = None,
) -> np.ndarray:
    """Couple-vectorised batched lower bound (kernel v2).

    Computes exactly what :func:`lower_bound_batch` computes — bit-identical
    values — but vectorises the machine-couple axis as well, through two
    interchangeable bodies:

    ``"gemm"``
        The Johnson scan in closed form: the candidate values of every
        (job, couple) pair are matrix products of the unscheduled indicator
        vectors with precomputed weights (:class:`_V2GemmData`), reduced by
        a maximum (:func:`_lower_bound_batch_v2_matmul`).  A launch of at
        least ``_V2_SET_STEP_MIN_ROWS`` rows runs the products on its
        distinct unscheduled sets only, one ``np.unique`` per row chunk,
        and bounds each row as ``max_k(r_k + W_k)`` from its set's
        per-machine terms.  On an instance within ``_V2_TABLE_ELEMENTS``
        (``2**n * m``) the launch runs no product: the instance's first
        GEMM launch builds every set's ``W`` once (:func:`_set_table`),
        and every launch then reads each row's terms by its packed row
        (:func:`_bound_by_table`).  Float arithmetic is exact under the
        :func:`_v2_value_bound` guard (float32 below ``2**24``, float64
        below ``2**53``).
    ``"incremental"``
        Rows are bounded from their parent's unscheduled set: one O(n·C)
        pass per group of consecutive rows sharing a parent set, then O(m)
        per row (:func:`_lower_bound_batch_v2_incremental`).  Row ``i``'s
        parent set is its unscheduled set plus ``jobs[i]``; without
        ``jobs`` it takes the row's first scheduled job, which is as exact.
        Pure integer arithmetic: int32 under the value guard, int64
        otherwise.

    ``strategy=None`` picks by the job count alone: ``"gemm"`` below
    ``_V2_INCREMENTAL_MIN_JOBS`` and ``"incremental"`` from it.  Whatever
    the strategy, complete rows get their makespan and, in a launch without
    ``jobs``, rows with nothing scheduled the closed form of
    :func:`_root_bounds`, both in one pass over the rows here; a GEMM
    launch that reads the set table or takes the set step skips that pass
    and resolves them among the sets (a root set is one more set for the
    GEMM, exact too; the complete set's ``W`` is ``(-inf, ..., -inf,
    0)``).  A launch reads the table only while its release times stay
    within the table's ``-inf`` (``2**15`` beside an int16 table, as every
    release time of such an instance does), so the makespan of a complete
    row is exact; release times are completion times, never negative.
    Pools are processed in cache-sized chunks or
    tiles, so temporary memory stays bounded for the paper's largest
    (262144 sub-problem) launches, and a large incremental launch is split
    across the CPUs the process may use (:func:`_evaluate_rows`); every
    row's value is the same either way.

    ``scheduled_mask`` is the launch's packed rows, ``(B, ceil(n / 8))``
    uint8 with one bit per job (:func:`pack_mask`; a block's ``mask_bits``
    column), or a boolean ``(B, n)`` mask, which is packed once here
    (:func:`as_mask_bits`).  ``jobs`` is optional: an ``(B,)`` integer
    array whose entry ``i`` must be scheduled in row ``i`` — the ``jobs``
    column of a :func:`~repro.bb.frontier.branch_block` block.  Only the
    incremental body reads it, so only an incremental launch checks it
    (``ValueError``); a GEMM launch skips the check.  The other parameters
    and the return value are as in :func:`lower_bound_batch`: at ``m >= 2``
    the couple ``(k, m - 1)`` dominates machine ``k``'s one-machine term,
    and at ``m = 1`` the launch falls back to v1, which adds it.

    A signed-integer ``release`` (a block's int32 column) keeps its dtype;
    each body casts what it reads to the dtype its value guard picks.  Any
    other ``release`` (a list, floats, unsigned integers) is converted to
    int64 first.  Unless some row is resolved here, the packed rows and
    ``release`` reach the body (or the set table's gather) uncopied, which
    reads them in place one chunk or tile at a time.  A packed row with a
    padding bit set raises ``ValueError`` at a set-table launch.
    """
    n = data.n_jobs
    bits = as_mask_bits(scheduled_mask, n)
    release = np.asarray(release)
    if release.dtype.kind != "i":
        release = release.astype(np.int64)
    if release.shape != (bits.shape[0], data.n_machines):
        raise ValueError(f"release must have shape ({bits.shape[0]}, {data.n_machines})")
    if strategy not in (None, "gemm", "incremental"):
        raise ValueError(f"unknown v2 strategy {strategy!r}")

    if bits.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if data.n_couples == 0:
        # m == 1: only the single-machine relaxation applies; the v1 kernel
        # already evaluates it fully vectorised.
        return lower_bound_batch(data, unpack_mask(bits, n), release)
    if strategy is None:
        strategy = "incremental" if n >= _V2_INCREMENTAL_MIN_JOBS else "gemm"
    if strategy == "gemm" and (1 << n) * data.n_machines <= _V2_TABLE_ELEMENTS:
        table = _set_table(data)
        # the complete set's -inf terms stay below r_{m-1} up to this release
        if int(release.max()) <= -int(table[0, -1]):
            return _bound_by_table(data, table, bits, release)
    if jobs is not None and strategy == "incremental":
        jobs = _check_jobs(jobs, bits)  # only this body reads them
    value_bound = _v2_value_bound(data, release)

    # Complete rows and, without ``jobs``, root rows are resolved here once;
    # the bodies only see the others.  A launch with none of them passes its
    # own arrays through uncopied, and so does a GEMM launch that takes the
    # set step, which resolves them among its distinct sets.
    bounds: np.ndarray | None = None
    active = None
    bits_a, rel_a = bits, release
    if strategy != "gemm" or bits.shape[0] < _V2_SET_STEP_MIN_ROWS:
        resolved = (bits == _full_row(n)).all(axis=1)
        root = None if jobs is not None else ~bits.any(axis=1)
        # (count_nonzero: a small launch's cheapest "any")
        if root is not None and not np.count_nonzero(root):
            root = None
        if root is not None or np.count_nonzero(resolved):
            bounds = np.zeros(resolved.size, dtype=np.int64)
            bounds[resolved] = release[resolved, -1]
            if root is not None:
                bounds[root] = _root_bounds(data, release[root])
                resolved |= root
            active = np.flatnonzero(~resolved)
            if active.size == 0:
                return bounds
            bits_a, rel_a = bits[active], release[active]

    if strategy == "gemm":
        if value_bound < 2**24:
            ftype: np.dtype = np.float32
        elif value_bound < 2**53:
            ftype = np.float64
        else:  # pragma: no cover - pathological magnitudes
            return lower_bound_batch(data, unpack_mask(bits, n), release)
        # not split: BLAS already runs each product on its own threads
        values = _lower_bound_batch_v2_matmul(data, bits_a, rel_a, ftype)
    else:
        if jobs is None:
            jobs_a = _first_scheduled(bits_a)
        else:
            jobs_a = jobs if active is None else jobs[active]
        itype: np.dtype = np.int32 if value_bound < 2**31 else np.int64
        # the lazy per-instance tables are built here, on the calling
        # thread, so the parts of a split launch never race to build one
        _v2_incremental_data(data, itype)
        values = _evaluate_rows(
            lambda part, rel, last: _lower_bound_batch_v2_incremental(data, part, rel, last, itype),
            data.n_couples,
            bits_a,
            rel_a,
            jobs_a,
        )

    if bounds is None:
        return values
    bounds[active] = values
    return bounds


#: The batched kernel every engine bounds with, keyed by its selector value
#: (a dict, so a caller can wrap the entry: perfbench's traced run does).
BATCH_KERNELS = {"v2": lower_bound_batch_v2}


def get_batch_kernel(kernel: str):
    """Resolve the ``"v2"`` selector to the batched kernel function."""
    try:
        return BATCH_KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {sorted(BATCH_KERNELS)}"
        ) from None
