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
  couple axis vectorised as well, by one of three strategies:

  - ``"gemm"``: the Johnson scan in closed form, one matrix product per
    Johnson position (``n_jobs <= 128``);
  - ``"scan"``: ``(B, n_couples)`` front/tail tensors marching through the
    ``n_jobs`` Johnson positions (larger ``n_jobs``);
  - ``"incremental"``: for rows whose last-scheduled job is known (the
    ``jobs`` argument, from a branch-built block), one O(n·C) pass per
    parent set and O(C) per child, since removing one job from a parent's
    set shifts its closed-form candidates in a known way.  Selected from
    ``n_jobs >= _V2_INCREMENTAL_MIN_JOBS``, the measured crossover.

All batched kernels return values bit-identical to the scalar bound;
:func:`get_batch_kernel` maps a ``"v1"`` / ``"v2"`` name to the matching
implementation (every engine bounds with ``"v2"``; ``"v1"`` stays the
reference the tests and benchmarks compare against).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.johnson import johnson_order_with_lags

__all__ = [
    "machine_couples",
    "LowerBoundData",
    "CoupleTensors",
    "DataStructureComplexity",
    "lower_bound",
    "lower_bound_batch",
    "lower_bound_batch_v2",
    "get_batch_kernel",
    "BATCH_KERNELS",
    "one_machine_bound",
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

        The machine axis is vectorised: appending one job is the max-plus
        scan ``front'[k] = max(front[k], front'[k-1]) + pt[job, k]``, whose
        closed form ``front' = P + cummax(front - P_shifted)`` (with ``P``
        the inclusive cumulative processing times of the job) turns the
        former ``O(l * m)`` pure-Python double loop into ``l`` NumPy calls.
        """
        front = np.zeros(self.n_machines, dtype=np.int64)
        pt = self.ptm
        for job in prefix:
            csum = np.cumsum(pt[job], dtype=np.int64)
            front = csum + np.maximum.accumulate(front - (csum - pt[job]))
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
    include_one_machine: bool = False,
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
    include_one_machine:
        Also take the max with the single-machine relaxation.  The paper's
        kernel does not (with ``m = 20`` the couple bound dominates), but it
        is required for ``m == 1`` and harmless otherwise.

    Returns
    -------
    int
        A valid lower bound on the makespan of every completion of
        ``prefix``.  For a complete schedule the bound equals its makespan.
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

    if include_one_machine or data.n_couples == 0:
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
    include_one_machine: bool = False,
    jobs: np.ndarray | None = None,
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
    include_one_machine:
        See :func:`lower_bound`.
    jobs:
        Accepted so every batched kernel shares one signature (see
        :func:`lower_bound_batch_v2`); unused, since this kernel bounds each
        row from scratch.

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

    if include_one_machine or data.n_couples == 0:
        loads = unscheduled.astype(np.int64) @ ptm  # (B_active, m)
        one_mach = (rel_a + loads + qm).max(axis=1)
        best = np.maximum(best, one_mach)

    bounds[active] = best
    return bounds


#: Largest ``n_jobs`` for which the v2 kernel uses the closed-form BLAS path
#: (its FLOP count grows with ``n^2`` while the scan path grows with ``n``).
_V2_GEMM_MAX_JOBS = 128

#: Sub-problems evaluated per internal tile of the v2 kernel.  Tiles keep the
#: working set cache-resident and bound the temporary memory of very large
#: pools (the paper off-loads up to 262144 sub-problems per launch).
_V2_GEMM_CHUNK = 512
_V2_SCAN_CHUNK = 512

#: Smallest ``n_jobs`` for which kernel v2 bounds rows with known ``jobs``
#: incrementally from their parent's set.  The GEMM's per-row cost grows
#: with ``n^2`` and the incremental one's per-parent cost with ``n``, so
#: this is a crossover in ``n``.  ``benchmarks/bench_kernel_v2.py`` prints
#: it in script mode; on a 2-vCPU Xeon with OpenBLAS, one thread, m = 20:
#: at n = 20 a single parent's siblings are 2x cheaper fused (a 256-parent
#: launch breaks even), at n = 50 the incremental strategy wins both (1.8x
#: and 3x), at n = 200 by 21x and 25x.  With m <= 10 a single parent's
#: sibling set stays cheaper fused up to n ~ 50-100.
_V2_INCREMENTAL_MIN_JOBS = 40

#: Elements (parents x n_jobs x n_couples) of the per-parent candidate
#: tables the incremental strategy builds per tile.
_V2_INCREMENTAL_TILE = 1 << 17


def _johnson_positions(data: LowerBoundData) -> np.ndarray:
    """``(n, C)`` position of every job in every couple's Johnson order."""
    n, n_couples = data.n_jobs, data.n_couples
    pos = np.empty((n, n_couples), dtype=np.intp)
    pos[data.jm, np.arange(n_couples)[None, :]] = np.arange(n)[:, None]
    return pos


class _V2GemmData:
    """Per-instance tensors of the closed-form (matmul) v2 evaluation.

    The Johnson two-machine scan of couple ``c`` has the closed form::

        t2_final = max(t2_0 + B_N,  t1_0 + B_N + max_j (A_j + lag_j - B_<j))

    where ``A_j`` (resp. ``B_<j``) is the total processing time on the first
    (resp. second) machine of the *unscheduled* jobs up to and including
    (resp. strictly before) job ``j`` in the couple's Johnson order, and
    ``B_N`` the total second-machine work of all unscheduled jobs.  Every
    inner term is linear in the unscheduled-job indicator vector ``u``, so
    the candidates of *all* jobs and *all* couples are one matrix product
    ``u @ K``.  Scheduled jobs are excluded from the outer max by a
    ``+BIG`` diagonal term inside ``K`` paired with a ``-BIG`` constant row,
    which turns their candidates into large negative values — the masking
    costs nothing at evaluation time.

    ``kj[j]`` is the ``(C, n+1)`` slice producing the candidates of job
    ``j`` for every couple (the extra row carries the constants); ``bf``
    produces ``B_N``.  Everything is stored transposed — ``(C, B)`` layout —
    so the reductions run along the long contiguous axis.
    """

    __slots__ = ("ftype", "big", "kj", "bf", "tails_t", "ptm_t", "_local")

    def __init__(self, data: LowerBoundData, ftype: np.dtype):
        n, n_couples = data.n_jobs, data.n_couples
        m1, m2 = data.mm[:, 0], data.mm[:, 1]
        self.ftype = np.dtype(ftype)
        self.big = _v2_big_sentinel(data)

        pos = _johnson_positions(data)
        a_full = data.ptm[:, m1]  # (n, C) first-machine times
        b_full = data.ptm[:, m2]  # (n, C) second-machine times

        # weights[j, j', c]: contribution of job j' to job j's candidate.
        le = pos[:, None, :] >= pos[None, :, :]
        lt = pos[:, None, :] > pos[None, :, :]
        weights = a_full[None, :, :] * le - b_full[None, :, :] * lt
        diag = np.arange(n)
        weights[diag, diag, :] += self.big
        weights += b_full[None, :, :]  # bake B_N into every candidate
        const = np.broadcast_to((data.lm - self.big)[:, None, :], (n, 1, n_couples))
        kj = np.concatenate([weights, const], axis=1)  # (n, n+1, C)
        self.kj = np.ascontiguousarray(kj.transpose(0, 2, 1)).astype(self.ftype)

        bf = np.concatenate([b_full, np.zeros((1, n_couples), dtype=np.int64)], axis=0)
        self.bf = np.ascontiguousarray(bf.T).astype(self.ftype)  # (C, n+1)
        self.tails_t = np.ascontiguousarray(data.tails.T).astype(self.ftype)  # (m, n)
        self.ptm_t = np.ascontiguousarray(data.ptm.T).astype(self.ftype)  # (m, n)
        # one workspace per thread: the service bounds one instance's data
        # from several threads at once
        self._local = threading.local()

    def workspace(self, n: int, n_couples: int, chunk: int) -> tuple[np.ndarray, ...]:
        """The calling thread's reusable per-chunk buffers (avoids page faults)."""
        buffers = getattr(self._local, "buffers", None)
        if buffers is None or buffers[0].shape[1] != chunk:
            buffers = self._local.buffers = (
                np.empty((n_couples, chunk), dtype=self.ftype),  # running max
                np.empty((n_couples, chunk), dtype=self.ftype),  # gemm target
                np.empty((n + 1, chunk), dtype=self.ftype),  # indicators
            )
        return buffers


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


def _v2_gemm_data(data: LowerBoundData, ftype: np.dtype) -> _V2GemmData:
    cache = data._v2_gemm_cache
    key = np.dtype(ftype).name
    if key not in cache:
        cache[key] = _V2GemmData(data, ftype)
    return cache[key]


def _lower_bound_batch_v2_gemm(
    data: LowerBoundData,
    mask_a: np.ndarray,
    rel_a: np.ndarray,
    include_one_machine: bool,
    ftype: np.dtype,
) -> np.ndarray:
    """Closed-form v2 evaluation: one BLAS product per Johnson position.

    Receives only the *active* (incomplete) sub-problems; returns their
    ``(B_active,)`` bounds.  All float arithmetic operates on integers far
    below the mantissa limit of ``ftype`` (guarded by
    :func:`_v2_value_bound`), so the results are exact and bit-identical to
    the int64 reference once converted back.
    """
    n, n_couples = data.n_jobs, data.n_couples
    gd = _v2_gemm_data(data, ftype)

    # Transposed — (axis, B) — copies so every chunked slice keeps the long
    # batch dimension contiguous (strided inner loops defeat SIMD).
    mask_t = np.ascontiguousarray(mask_a.T)  # (n, B_active)
    rel_t = np.ascontiguousarray(rel_a.T).astype(gd.ftype)  # (m, B_active)
    m2 = data.mm[:, 1]
    n_active = mask_a.shape[0]
    best = np.empty(n_active, dtype=np.int64)

    chunk = min(_V2_GEMM_CHUNK, n_active)
    running, target, indicators = gd.workspace(n, n_couples, chunk)
    for start in range(0, n_active, chunk):
        end = min(start + chunk, n_active)
        width = end - start
        full = width == chunk

        u = indicators[:, :width] if full else np.empty((n + 1, width), dtype=gd.ftype)
        u[:n] = ~mask_t[:, start:end]
        u[n] = 1.0

        # QM (transposed): minimal tails over the unscheduled jobs.
        masked_tails = np.where(
            mask_t[:, None, start:end], np.inf, gd.tails_t.T[:, :, None]
        )  # (n, m, width)
        qm_t = masked_tails.min(axis=0)  # (m, width)

        if full:
            cand_max, cand = running, target
            np.dot(gd.kj[0], u, out=cand_max)
        else:
            cand_max = np.dot(gd.kj[0], u)
            cand = np.empty_like(cand_max)
        for j in range(1, n):
            if full:
                np.dot(gd.kj[j], u, out=cand)
            else:
                cand = np.dot(gd.kj[j], u)
            np.maximum(cand_max, cand, out=cand_max)

        work_b = np.dot(gd.bf, u)  # (C, width): B_N per couple
        front1 = rel_t[:, start:end][data.mm[:, 0]]  # (C, width)
        front2 = rel_t[:, start:end][m2]
        front1 += cand_max[:, :width]
        front2 += work_b
        np.maximum(front2, front1, out=front2)
        front2 += qm_t[m2]
        value = front2

        if include_one_machine:
            loads = np.dot(gd.ptm_t, u[:n])  # (m, width)
            loads += rel_t[:, start:end]
            loads += qm_t
            one_mach = loads.max(axis=0)
            best[start:end] = np.maximum(value.max(axis=0), one_mach).astype(np.int64)
        else:
            best[start:end] = value.max(axis=0).astype(np.int64)

    return best


def _lower_bound_batch_v2_scan(
    data: LowerBoundData,
    mask_a: np.ndarray,
    rel_a: np.ndarray,
    include_one_machine: bool,
    dtype: np.dtype,
) -> np.ndarray:
    """Couple-vectorised Johnson scan: ``(B, n_couples)`` front tensors.

    Receives only the *active* (incomplete) sub-problems; returns their
    ``(B_active,)`` bounds.  Carries ``t_m1`` / ``t_m2`` for all couples at
    once and loops only over the ``n_jobs`` scan positions — ``n``
    interpreter iterations instead of the v1 kernel's ``n_couples * n``.
    Scheduled jobs contribute zero to every tensor; the candidate of a
    masked step is then ``t_m1`` which can never win the max
    (``t_m2 >= t_m1`` is re-established by the first unmasked step, and
    every active sub-problem has at least one unscheduled job in every
    couple's order), so no sentinel masking is needed.
    """
    n = data.n_jobs
    unscheduled = ~mask_a
    ct = data.couple_tensors()
    a_sc = ct.a_times.astype(dtype)
    b_sc = ct.b_times.astype(dtype)
    alg_sc = (ct.a_times + ct.lags).astype(dtype)
    jm = data.jm
    big = np.int64(np.iinfo(np.int64).max // 4)
    n_active = mask_a.shape[0]
    best = np.empty(n_active, dtype=np.int64)

    chunk = _V2_SCAN_CHUNK
    for start in range(0, n_active, chunk):
        end = min(start + chunk, n_active)
        mask_c = mask_a[start:end]
        unsched_c = unscheduled[start:end]
        rel_c = rel_a[start:end]

        tails = np.where(mask_c[:, :, None], big, data.tails[None, :, :])
        qm = tails.min(axis=1)  # (width, m)

        present = unsched_c[:, jm]  # (width, n, C) in Johnson order
        a_m = present * a_sc[None]
        b_m = present * b_sc[None]
        alg_m = present * alg_sc[None]

        t_m1 = rel_c[:, ct.m1].astype(dtype)
        t_m2 = rel_c[:, ct.m2].astype(dtype)
        ready = np.empty_like(t_m1)
        for i in range(n):
            np.add(t_m1, alg_m[:, i], out=ready)
            np.maximum(t_m2, ready, out=t_m2)
            np.add(t_m1, a_m[:, i], out=t_m1)
            np.add(t_m2, b_m[:, i], out=t_m2)
        value = t_m2.astype(np.int64) + qm[:, ct.m2]
        chunk_best = value.max(axis=1)

        if include_one_machine:
            loads = unsched_c.astype(np.int64) @ data.ptm
            one_mach = (rel_c + loads + qm).max(axis=1)
            chunk_best = np.maximum(chunk_best, one_mach)
        best[start:end] = chunk_best

    return best


class _V2IncrementalData:
    """Per-instance tables of the incremental (sibling) v2 evaluation.

    ``*_sc`` tables follow each couple's Johnson order (``[i, c]`` belongs
    to the job in position ``i`` of couple ``c``), ``*_job`` tables are
    indexed by job, and ``pos_flat[j, c]`` is the offset of job ``j``'s cell
    in a C-contiguous ``(n, C)`` Johnson-order table.  ``neg`` marks the
    candidates of jobs outside a parent set: at ``-2 * big`` it stays below
    every real candidate even after a removal shift of up to ``max(PTM)``.
    """

    __slots__ = (
        "neg",
        "diff_sc",
        "head_sc",
        "pos_flat",
        "shift_job",
        "b_job",
        "b_job_f",
        "tails",
        "ptm_f",
    )

    def __init__(self, data: LowerBoundData, dtype: np.dtype):
        n_couples = data.n_couples
        ct = data.couple_tensors()
        self.neg = -2 * _v2_big_sentinel(data)
        # candidate of position i: cumsum(a - b)[i] + b_i + lag_i
        self.diff_sc = (ct.a_times - ct.b_times).astype(dtype)
        self.head_sc = (ct.b_times + ct.lags - self.neg).astype(dtype)
        self.pos_flat = _johnson_positions(data) * n_couples + np.arange(n_couples)
        self.b_job = data.ptm[:, ct.m2].astype(dtype)
        # removing job j shifts every later candidate by b_j - a_j
        self.shift_job = self.b_job - data.ptm[:, ct.m1].astype(dtype)
        # float64 copies for the BLAS set sums (exact far below 2**53)
        self.b_job_f = self.b_job.astype(np.float64)
        self.ptm_f = data.ptm.astype(np.float64)
        self.tails = data.tails.astype(dtype)


def _v2_incremental_data(data: LowerBoundData, dtype: np.dtype) -> _V2IncrementalData:
    cache = data._v2_gemm_cache
    key = ("incremental", dtype)
    inc = cache.get(key)
    if inc is None:
        inc = cache[key] = _V2IncrementalData(data, dtype)
    return inc


def _lower_bound_batch_v2_incremental(
    data: LowerBoundData,
    mask_a: np.ndarray,
    rel_a: np.ndarray,
    jobs_a: np.ndarray,
    include_one_machine: bool,
    dtype: np.dtype,
) -> np.ndarray:
    """Incremental sibling v2 evaluation: O(n·C) per parent, O(C) per child.

    Receives only the *active* (incomplete) sub-problems and the job each
    one scheduled last; returns their ``(B_active,)`` bounds.  Row ``i``'s
    parent set is ``~mask_a[i] | onehot(jobs_a[i])``; consecutive rows with
    equal parent sets form one group, so split or partial sibling sets stay
    exact (the candidates depend on the parent's unscheduled set only —
    release times enter per row).

    Per group, one pass over each couple's Johnson order computes the
    closed-form candidates ``A_<=j + lag_j - B_<j`` of :class:`_V2GemmData`
    over the parent set, with their exclusive prefix and suffix maxima.
    Removing job ``k`` leaves the earlier candidates unchanged and shifts
    every later one by ``b_k - a_k``, so a child's candidate maximum is
    ``max(prefix[pos_k], suffix[pos_k] + b_k - a_k)`` and its ``B_N`` is the
    parent's minus ``b_k``.  ``QM`` comes from the parent's (min,
    second-min) tails, as in the frontier's sibling path.  Integer
    ``dtype`` keeps the arithmetic exact.
    """
    n, n_couples = data.n_jobs, data.n_couples
    inc = _v2_incremental_data(data, dtype)
    m1, m2 = data.mm[:, 0], data.mm[:, 1]
    rows = mask_a.shape[0]
    parent_sets = ~mask_a
    parent_sets[np.arange(rows), jobs_a] = True
    new_group = np.empty(rows, dtype=bool)
    new_group[0] = True
    np.any(parent_sets[1:] != parent_sets[:-1], axis=1, out=new_group[1:])
    starts = np.flatnonzero(new_group)
    group_of = np.cumsum(new_group) - 1
    n_groups = starts.size
    group_end = np.append(starts, rows)

    neg = np.asarray(inc.neg, dtype=dtype)
    big_tail = np.asarray(np.iinfo(dtype).max, dtype=dtype)
    best = np.empty(rows, dtype=np.int64)
    tile = max(1, _V2_INCREMENTAL_TILE // (n * n_couples))
    for g0 in range(0, n_groups, tile):
        g1 = min(g0 + tile, n_groups)
        r0, r1 = int(group_end[g0]), int(group_end[g1])
        sets = parent_sets[starts[g0:g1]]  # (G, n)
        sets_f = sets.astype(np.float64)

        # candidates over each parent set, in Johnson order: (G, n, C);
        # jobs outside the set land at neg + (a partial sum)
        present = np.take(sets.astype(dtype), data.jm, axis=1)
        cand = np.multiply(present, inc.diff_sc)
        np.cumsum(cand, axis=1, out=cand)
        present *= inc.head_sc
        cand += present
        cand += neg
        prefix = np.empty_like(cand)
        prefix[:, 0] = neg
        np.maximum.accumulate(cand[:, :-1], axis=1, out=prefix[:, 1:])
        suffix = np.empty_like(cand)
        suffix[:, -1] = neg
        np.maximum.accumulate(cand[:, :0:-1], axis=1, out=suffix[:, -2::-1])
        work_b = np.dot(sets_f, inc.b_job_f).astype(dtype)  # (G, C): B_N

        # per-parent (min, second-min) tails: (G, m) each
        tails = np.where(sets[:, :, None], inc.tails, big_tail)
        tails.partition(1, axis=1)
        tail_min, tail_min2 = tails[:, 0], tails[:, 1]

        # per child: O(C) gathers from its group's tables
        local = group_of[r0:r1] - g0
        job = jobs_a[r0:r1]
        flat = inc.pos_flat[job]
        flat += (local * (n * n_couples))[:, None]
        cand_max = suffix.take(flat)
        cand_max += inc.shift_job[job]
        np.maximum(cand_max, prefix.take(flat), out=cand_max)
        work = work_b[local]
        work -= inc.b_job[job]
        rel = rel_a[r0:r1].astype(dtype)
        cand_max += rel[:, m1]
        np.maximum(cand_max, rel[:, m2], out=cand_max)
        cand_max += work
        min_l = tail_min[local]
        qm = np.where(inc.tails[job] == min_l, tail_min2[local], min_l)  # (R, m)
        cand_max += qm[:, m2]
        chunk_best = cand_max.max(axis=1)

        if include_one_machine:
            loads = (np.dot(sets_f, inc.ptm_f)[local] - inc.ptm_f[job]).astype(dtype)
            loads += rel
            loads += qm
            np.maximum(chunk_best, loads.max(axis=1), out=chunk_best)
        best[r0:r1] = chunk_best

    return best


def _check_jobs(jobs, scheduled_mask: np.ndarray) -> np.ndarray:
    """Validate ``jobs``: one scheduled job per row of ``scheduled_mask``."""
    jobs = np.asarray(jobs)
    batch, n_jobs = scheduled_mask.shape
    if jobs.shape != (batch,) or (batch and jobs.dtype.kind not in "iu"):
        raise ValueError(f"jobs must be a ({batch},) integer array")
    jobs = jobs.astype(np.intp, copy=False)
    if batch and (jobs.min() < 0 or jobs.max() >= n_jobs):
        raise ValueError(f"jobs must lie in [0, {n_jobs})")
    if not scheduled_mask[np.arange(batch), jobs].all():
        raise ValueError("jobs[i] must be scheduled in scheduled_mask[i]")
    return jobs


def lower_bound_batch_v2(
    data: LowerBoundData,
    scheduled_mask: np.ndarray,
    release: np.ndarray,
    include_one_machine: bool = False,
    strategy: str | None = None,
    jobs: np.ndarray | None = None,
) -> np.ndarray:
    """Couple-vectorised batched lower bound (kernel v2).

    Computes exactly what :func:`lower_bound_batch` computes — bit-identical
    values — but vectorises the machine-couple axis as well, through three
    interchangeable evaluation strategies:

    ``"gemm"``
        The Johnson scan in closed form: the candidate values of every
        (job, couple) pair are a single matrix product of the unscheduled
        indicator vectors with a precomputed weight matrix
        (:class:`_V2GemmData`), reduced by a running maximum.  Preferred for
        ``n_jobs <= 128``; float arithmetic is exact under the
        :func:`_v2_value_bound` guard (float32 below ``2**24``, float64
        below ``2**53``).
    ``"scan"``
        ``(B, n_couples)`` front/tail tensors marching through the Johnson
        positions — ``n_jobs`` interpreter iterations instead of v1's
        ``n_couples * n_jobs``.  Integer tiers (int16/int32/int64) are
        selected by the same value guard.
    ``"incremental"``
        Needs ``jobs``, the job each row scheduled last.  Rows are bounded
        from their parent's unscheduled set: one O(n·C) pass per group of
        consecutive rows sharing a parent set, then O(C) per row
        (:func:`_lower_bound_batch_v2_incremental`).  Pure integer
        arithmetic: int32 under the value guard, int64 otherwise.

    ``strategy=None`` picks automatically: ``"incremental"`` when ``jobs``
    is given and ``n_jobs >= _V2_INCREMENTAL_MIN_JOBS`` (the measured
    crossover; below it the GEMM is as fast or faster), else
    ``"gemm"`` for ``n_jobs <= 128`` and ``"scan"`` beyond.  Pools are
    processed in cache-sized tiles, so temporary memory stays bounded for
    the paper's largest (262144 sub-problem) launches.

    ``jobs`` is optional: an ``(B,)`` integer array whose entry ``i`` must be
    scheduled in ``scheduled_mask[i]`` (``ValueError`` otherwise) — the
    ``jobs`` column of a :func:`~repro.bb.frontier.branch_block` block.
    The other parameters and the return value are identical to
    :func:`lower_bound_batch`.
    """
    scheduled_mask = np.asarray(scheduled_mask, dtype=bool)
    release = np.asarray(release, dtype=np.int64)
    if scheduled_mask.ndim != 2 or scheduled_mask.shape[1] != data.n_jobs:
        raise ValueError(f"scheduled_mask must have shape (B, {data.n_jobs})")
    if release.shape != (scheduled_mask.shape[0], data.n_machines):
        raise ValueError(f"release must have shape ({scheduled_mask.shape[0]}, {data.n_machines})")
    if strategy not in (None, "gemm", "scan", "incremental"):
        raise ValueError(f"unknown v2 strategy {strategy!r}")
    if jobs is not None:
        jobs = _check_jobs(jobs, scheduled_mask)
    elif strategy == "incremental":
        raise ValueError("the incremental strategy needs jobs")

    if scheduled_mask.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if data.n_couples == 0:
        # m == 1: only the single-machine relaxation applies; the v1 kernel
        # already evaluates it fully vectorised.
        return lower_bound_batch(
            data, scheduled_mask, release, include_one_machine=include_one_machine
        )

    value_bound = _v2_value_bound(data, release)
    if strategy is None:
        if jobs is not None and data.n_jobs >= _V2_INCREMENTAL_MIN_JOBS:
            strategy = "incremental"
        else:
            strategy = "gemm" if data.n_jobs <= _V2_GEMM_MAX_JOBS else "scan"

    # Complete schedules are resolved here once; the strategy kernels only
    # ever see the active (incomplete) sub-problems.
    complete = scheduled_mask.all(axis=1)
    bounds = np.zeros(scheduled_mask.shape[0], dtype=np.int64)
    bounds[complete] = release[complete, -1]
    active = np.flatnonzero(~complete)
    if active.size == 0:
        return bounds
    mask_a = scheduled_mask[active]
    rel_a = release[active]

    if strategy == "gemm":
        if value_bound < 2**24:
            ftype: np.dtype = np.float32
        elif value_bound < 2**53:
            ftype = np.float64
        else:  # pragma: no cover - pathological magnitudes
            return lower_bound_batch(
                data, scheduled_mask, release, include_one_machine=include_one_machine
            )
        bounds[active] = _lower_bound_batch_v2_gemm(
            data, mask_a, rel_a, include_one_machine, ftype
        )
        return bounds

    if strategy == "incremental":
        assert jobs is not None
        itype: np.dtype = np.int32 if value_bound < 2**31 else np.int64
        bounds[active] = _lower_bound_batch_v2_incremental(
            data, mask_a, rel_a, jobs[active], include_one_machine, itype
        )
        return bounds

    if value_bound < 2**15:
        dtype: np.dtype = np.int16
    elif value_bound < 2**31:
        dtype = np.int32
    else:
        dtype = np.int64
    bounds[active] = _lower_bound_batch_v2_scan(data, mask_a, rel_a, include_one_machine, dtype)
    return bounds


#: The batched kernel implementations, keyed by the engine selector value.
BATCH_KERNELS = {"v1": lower_bound_batch, "v2": lower_bound_batch_v2}


def get_batch_kernel(kernel: str):
    """Resolve a ``"v1"`` / ``"v2"`` selector to the batched kernel function."""
    try:
        return BATCH_KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {sorted(BATCH_KERNELS)}"
        ) from None
