"""Structure-of-arrays frontier: columnar nodes for vectorized search.

A Python object per node would pay interpreter cost *per node*: one
instance per child, one heap entry per push, and a row-by-row re-pack
every time a batch is shipped to the bounding kernel.  Once the kernel
itself is vectorized, those per-node costs would dominate the host side
of the search (``benchmarks/bench_frontier.py`` keeps such a loop as a
frozen ablation and measures the gap).

This module stores a *batch* of nodes as a :class:`NodeBlock` of parallel
arrays — exactly the ``(scheduled_mask, release)`` layout the batched
kernels consume — so the four B&B operators become array programs:

* :func:`branch_block` — all children of a batch of parents in one shot.
  The release-time recurrence is evaluated in closed form (one
  ``cumsum`` + one ``maximum.accumulate`` over the machine axis for
  *every* (parent, child-job) pair at once), masks are copied and bit-set
  in bulk, and the child count never touches a Python loop.
* :func:`bound_block` — bounding straight off the block's arrays with
  **zero re-packing**; small sibling batches additionally take a fused
  single-GEMM evaluation of the kernel-v2 closed form (bit-identical to
  every other kernel revision).
* :func:`eliminate_block` — elimination as one boolean mask.
* :class:`BlockFrontier` — the pending pool as growable arrays whose
  ``pop_batch`` / ``prune_to`` use ``argpartition``-style selection and
  mask compaction instead of per-node heap operations.  A segmented
  min-key index (fixed 4096-row segments with cached per-segment key
  minima, maintained incrementally and refreshed lazily) makes the
  best-first selection scans sublinear at 10^5–10^6 pending nodes; the
  ``frontier_index="linear"`` ablation keeps the full-scan paths.

Prefixes are *not* carried per node.  Each node stores one ``trail_id``
into a shared :class:`Trail` of ``(parent_slot, job)`` pairs, and the full
permutation is materialized lazily — only for incumbents and trace events.

Node identity (``order_index``, the per-search creation index) and the
selection key ``(lower_bound, depth, order_index)`` make every tie-break
deterministic, so each engine explores bit-for-bit the same tree on every
run (pinned by the golden fixtures of ``tests/test_driver.py``).

All block/frontier integer columns are stored as **int32**: Taillard-class
magnitudes (release times, bounds, depths, creation indices) sit far below
``2**31``, and halving the frontier's memory traffic raises the cache
residency of the selection scans.  The bounding kernels stay int64
internally — their entry points coerce ``release`` with
``np.asarray(..., dtype=np.int64)`` and :func:`bound_block` writes the
int64 results back into the int32 column in place, which is the one
explicit int32↔int64 boundary of the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flowshop.bounds import (
    LowerBoundData,
    _V2_GEMM_MAX_JOBS,
    _V2_INCREMENTAL_MIN_JOBS,
    _v2_gemm_data,
    _v2_value_bound,
    get_batch_kernel,
    lower_bound,
)
from repro.flowshop.instance import FlowShopInstance

__all__ = [
    "NO_BOUND",
    "advance_release",
    "Trail",
    "NodeBlock",
    "root_block",
    "seed_block",
    "branch_block",
    "bound_block",
    "eliminate_block",
    "BlockFrontier",
    "make_frontier",
]

#: Sentinel stored in :attr:`NodeBlock.lower_bound` until a node is bounded.
#: Bounds are always non-negative, so ``-1`` can never collide with a real
#: value — and it still satisfies ``NO_BOUND < upper_bound``, so un-bounded
#: nodes survive :meth:`BlockFrontier.prune_to`.
NO_BOUND = -1

#: Largest batch evaluated by the fused single-GEMM path of
#: :func:`bound_block`; larger pools go through the chunked v2 kernel so the
#: ``(B, n_jobs * n_couples)`` candidate tensor stays cache-sized.
_FUSED_MAX_BATCH = 512

#: Segment width of the segmented min-key index, as a shift: segments hold
#: ``2**12 == 4096`` rows.  Small enough that the one in-segment rescan a
#: refresh pays stays cache-resident, large enough that a million-node
#: frontier has only ~244 segment minima to reduce over.
_SEG_SHIFT = 12

#: Cache value of a segment with no valid cached minimum.  Never consulted
#: (dirty segments are refreshed before any query), but keeps stale reads
#: loud: the sentinel loses every ``argmin``.
_KEY_SENTINEL = np.iinfo(np.int64).max

#: Low-water fraction of the ``max_pending`` cap hysteresis: once the cap
#: trips, best-first selection stays in the depth-first-restricted regime
#: until the store drains below ``0.8 * cap`` — instead of flapping between
#: regimes one push/pop around the boundary.
CAP_LOW_WATER_FRACTION = 0.8

_ARANGE = np.arange(256, dtype=np.int64)


def _arange(count: int) -> np.ndarray:
    """A read-only ``arange(count)`` view from a grow-only module cache."""
    global _ARANGE
    if count > _ARANGE.shape[0]:
        _ARANGE = np.arange(max(count, 2 * _ARANGE.shape[0]), dtype=np.int64)
    return _ARANGE[:count]


def advance_release(release: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Release times after appending one job: the max-plus machine scan.

    Appending a job with per-machine times ``t`` turns the front ``F`` into
    ``F'[k] = max(F[k], F'[k-1]) + t[k]``, whose closed form is
    ``F' = csum + cummax(F - (csum - t))`` with ``csum`` the inclusive
    cumulative times of the job — no per-machine Python loop.  Broadcasts
    over leading axes, so one call advances a single ``(m,)`` front or a
    whole ``(B, m)`` batch of (front, job) pairs.

    The result follows the dtype of ``release``, so the block layout's
    int32 columns advance without leaving int32.
    """
    dtype = release.dtype if isinstance(release, np.ndarray) else np.int64
    csum = np.cumsum(times, axis=-1, dtype=dtype)
    front = release - csum
    front += times
    np.maximum.accumulate(front, axis=-1, out=front)
    front += csum
    return front


#: int32 node-id ceiling of the block layout (trail slots, order indices).
#: A search would need >2**31 nodes — hundreds of GB of frontier — to reach
#: it, but growing past it must fail loudly, not wrap.
_INT32_ID_LIMIT = np.iinfo(np.int32).max


class Trail:
    """Compact ancestry store: one ``(parent_slot, job)`` pair per node.

    Every node ever created appends one entry; the scheduled prefix of a
    node is materialized lazily by walking parent slots up to the root
    (``parent == -1``).  Two int32 cells per node replace a per-node
    Python tuple; creating more than ``2**31 - 1`` nodes raises
    :class:`OverflowError` (ids — and the creation indices that advance in
    lockstep with them — would otherwise wrap).
    """

    __slots__ = ("_parent", "_job", "_size")

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._parent = np.empty(capacity, dtype=np.int32)
        self._job = np.empty(capacity, dtype=np.int32)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _ensure(self, extra: int) -> None:
        need = self._size + extra
        if need > _INT32_ID_LIMIT:
            raise OverflowError(
                f"search created more than {_INT32_ID_LIMIT} nodes, the limit of "
                "the int32 node ids (trail slots and creation indices); split "
                "the search or give it a node budget"
            )
        if need > self._parent.shape[0]:
            capacity = max(need, 2 * self._parent.shape[0])
            for name in ("_parent", "_job"):
                old = getattr(self, name)
                new = np.empty(capacity, dtype=np.int32)
                new[: self._size] = old[: self._size]
                setattr(self, name, new)

    def append_root(self) -> int:
        """Register the empty-prefix root; returns its trail id."""
        return self.append(-1, -1)

    def append(self, parent: int, job: int) -> int:
        """Register one node; returns its trail id."""
        self._ensure(1)
        slot = self._size
        self._parent[slot] = parent
        self._job[slot] = job
        self._size += 1
        return slot

    def append_batch(self, parents, jobs: np.ndarray) -> np.ndarray:
        """Register a batch of nodes; returns their trail ids, in order.

        ``parents`` may be an array (one parent per job) or a scalar (all
        jobs extend the same parent).
        """
        count = len(jobs)
        self._ensure(count)
        ids = np.arange(self._size, self._size + count, dtype=np.int32)
        self._parent[self._size : self._size + count] = parents
        self._job[self._size : self._size + count] = jobs
        self._size += count
        return ids

    def prefix(self, trail_id: int) -> tuple[int, ...]:
        """Materialize the scheduled prefix of one node (root-first order)."""
        jobs: list[int] = []
        slot = int(trail_id)
        while slot >= 0:
            job = int(self._job[slot])
            if job >= 0:
                jobs.append(job)
            slot = int(self._parent[slot])
        return tuple(reversed(jobs))

    def jobs_of(self, trail_ids: np.ndarray) -> np.ndarray:
        """The job scheduled last by each of the given nodes (bulk gather)."""
        return self._job[trail_ids]


@dataclass
class NodeBlock:
    """A batch of B&B nodes stored as parallel arrays (structure of arrays).

    The ``(scheduled_mask, release)`` pair is byte-for-byte the layout the
    batched bounding kernels consume, so bounding a block never re-packs
    anything.  ``lower_bound`` holds :data:`NO_BOUND` until the node is
    bounded.  ``order_index`` is the per-search creation index that makes
    selection tie-breaks deterministic.
    """

    #: ``(B, n_jobs)`` boolean matrix of already-scheduled jobs
    scheduled_mask: np.ndarray
    #: ``(B, n_machines)`` per-machine release times (the ``RM`` vectors)
    release: np.ndarray
    #: ``(B,)`` lower bounds (:data:`NO_BOUND` until evaluated)
    lower_bound: np.ndarray
    #: ``(B,)`` number of scheduled jobs
    depth: np.ndarray
    #: ``(B,)`` per-search creation indices (deterministic tie-break)
    order_index: np.ndarray
    #: ``(B,)`` ids into :attr:`trail` (lazy prefix materialization)
    trail_id: np.ndarray
    #: shared ancestry store of the search
    trail: Trail
    #: ``(B,)`` job scheduled last by each row (set by :func:`branch_block`;
    #: lets the sibling bounding path skip a trail gather)
    jobs: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.scheduled_mask.shape[0])

    @property
    def n_jobs(self) -> int:
        """Number of jobs of the underlying instance (mask width)."""
        return int(self.scheduled_mask.shape[1])

    @property
    def n_machines(self) -> int:
        """Number of machines of the underlying instance (release width)."""
        return int(self.release.shape[1])

    @property
    def is_leaf_mask(self) -> np.ndarray:
        """``(B,)`` True where the node is a complete schedule."""
        return self.depth == self.n_jobs

    @property
    def makespans(self) -> np.ndarray:
        """``(B,)`` last-machine release times (makespan for leaf rows)."""
        return self.release[:, -1]

    def prefix(self, row: int) -> tuple[int, ...]:
        """Materialize the scheduled prefix of one row (lazy, via the trail)."""
        return self.trail.prefix(int(self.trail_id[row]))

    def prefixes(self) -> list[tuple[int, ...]]:
        """Materialize every row's prefix (tests / trace tooling only)."""
        return [self.prefix(i) for i in range(len(self))]

    def take(self, rows: np.ndarray) -> "NodeBlock":
        """A new block holding copies of ``rows``, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        return NodeBlock(
            scheduled_mask=self.scheduled_mask[rows],
            release=self.release[rows],
            lower_bound=self.lower_bound[rows],
            depth=self.depth[rows],
            order_index=self.order_index[rows],
            trail_id=self.trail_id[rows],
            trail=self.trail,
            jobs=self.jobs[rows] if self.jobs is not None else None,
        )

    @classmethod
    def empty(cls, n_jobs: int, n_machines: int, trail: Trail) -> "NodeBlock":
        """A zero-row block with correctly shaped/typed columns."""
        return cls(
            scheduled_mask=np.zeros((0, n_jobs), dtype=bool),
            release=np.zeros((0, n_machines), dtype=np.int32),
            lower_bound=np.zeros(0, dtype=np.int32),
            depth=np.zeros(0, dtype=np.int32),
            order_index=np.zeros(0, dtype=np.int32),
            trail_id=np.zeros(0, dtype=np.int32),
            trail=trail,
        )


def root_block(instance: FlowShopInstance, trail: Trail) -> NodeBlock:
    """A one-row block holding the root (empty schedule), order index 0."""
    return NodeBlock(
        scheduled_mask=np.zeros((1, instance.n_jobs), dtype=bool),
        release=np.zeros((1, instance.n_machines), dtype=np.int32),
        lower_bound=np.full(1, NO_BOUND, dtype=np.int32),
        depth=np.zeros(1, dtype=np.int32),
        order_index=np.zeros(1, dtype=np.int32),
        trail_id=np.array([trail.append_root()], dtype=np.int32),
        trail=trail,
    )


def seed_block(
    instance: FlowShopInstance, prefix: tuple[int, ...], trail: Trail
) -> NodeBlock:
    """A one-row block for the node reached by scheduling ``prefix``.

    The root-to-seed chain nodes are registered on the trail (so the
    seed's prefix materializes) and the seed's order index is
    ``len(prefix)`` — exactly what a per-search counter would have
    assigned after creating the chain one child at a time.
    """
    pt = instance.processing_times
    n, m = instance.n_jobs, instance.n_machines
    mask = np.zeros((1, n), dtype=bool)
    release = np.zeros(m, dtype=np.int32)
    trail_id = trail.append_root()
    for job in prefix:
        job = int(job)
        if not 0 <= job < n:
            raise ValueError(f"job index {job} out of range")
        if mask[0, job]:
            raise ValueError(f"job {job} scheduled twice in the prefix")
        release = advance_release(release, pt[job])
        mask[0, job] = True
        trail_id = trail.append(trail_id, job)
    depth = len(prefix)
    lower = release[-1] if depth == n else NO_BOUND
    return NodeBlock(
        scheduled_mask=mask,
        release=release[None, :],
        lower_bound=np.array([lower], dtype=np.int32),
        depth=np.array([depth], dtype=np.int32),
        order_index=np.array([depth], dtype=np.int32),
        trail_id=np.array([trail_id], dtype=np.int32),
        trail=trail,
    )


def branch_block(
    parents: NodeBlock, processing_times: np.ndarray, order_start: int
) -> NodeBlock:
    """Branching operator: all one-job extensions of every parent row.

    Children are produced parent-major, jobs in increasing index order,
    and get consecutive order indices starting at ``order_start``.  Leaf
    rows contribute no children; complete-child rows get their makespan
    as an exact bound immediately.
    """
    n_jobs = parents.n_jobs
    mask = parents.scheduled_mask
    single = len(parents) == 1
    if single:
        jobs = np.flatnonzero(~mask[0])
        count = jobs.shape[0]
    else:
        parent_rows, jobs = np.nonzero(~mask)
        count = jobs.shape[0]
    if count == 0:
        return NodeBlock.empty(n_jobs, parents.n_machines, parents.trail)

    # One closed-form max-plus scan advances every (parent, job) pair at
    # once (see :func:`advance_release`).
    pt_j = processing_times[jobs]
    parent_release = parents.release if single else parents.release[parent_rows]
    release = advance_release(parent_release, pt_j)

    if single:
        child_mask = np.repeat(mask, count, axis=0)
        depth = np.full(count, int(parents.depth[0]) + 1, dtype=np.int32)
        parent_tids = np.broadcast_to(parents.trail_id, (count,))
    else:
        child_mask = mask[parent_rows]  # advanced indexing: already a copy
        depth = (parents.depth[parent_rows] + 1).astype(np.int32, copy=False)
        parent_tids = parents.trail_id[parent_rows]
    child_mask[_arange(count), jobs] = True

    if single:
        is_leaf = int(parents.depth[0]) + 1 == n_jobs
        lower = (
            release[:, -1].copy()
            if is_leaf
            else np.full(count, NO_BOUND, dtype=np.int32)
        )
    else:
        lower = np.full(count, NO_BOUND, dtype=np.int32)
        leaves = depth == n_jobs
        if leaves.any():
            lower[leaves] = release[leaves, -1]

    return NodeBlock(
        scheduled_mask=child_mask,
        release=release,
        lower_bound=lower,
        depth=depth,
        order_index=np.arange(order_start, order_start + count, dtype=np.int32),
        trail_id=parents.trail.append_batch(parent_tids, jobs),
        trail=parents.trail,
        jobs=jobs,
    )


def branch_row(
    mask_row: np.ndarray,
    release_row: np.ndarray,
    depth: int,
    trail_id: int,
    trail: Trail,
    processing_times: np.ndarray,
    order_start: int,
) -> NodeBlock:
    """All one-job extensions of a single node given as raw rows.

    The hot-loop variant of :func:`branch_block` for engines that pop one
    node per step: it takes (views of) the node's mask and release rows
    directly, so no intermediate one-row block is materialized.  The rows
    are fully consumed before this function returns.
    """
    n_jobs = mask_row.shape[0]
    jobs = np.flatnonzero(~mask_row)
    count = jobs.shape[0]
    if count == 0:
        return NodeBlock.empty(n_jobs, release_row.shape[0], trail)

    pt_j = processing_times[jobs]
    release = advance_release(release_row, pt_j)

    child_mask = np.repeat(mask_row[None, :], count, axis=0)
    child_mask[_arange(count), jobs] = True

    child_depth = depth + 1
    lower = (
        release[:, -1].copy()
        if child_depth == n_jobs
        else np.full(count, NO_BOUND, dtype=np.int32)
    )
    return NodeBlock(
        scheduled_mask=child_mask,
        release=release,
        lower_bound=lower,
        depth=np.full(count, child_depth, dtype=np.int32),
        order_index=np.arange(order_start, order_start + count, dtype=np.int32),
        trail_id=trail.append_batch(trail_id, jobs),
        trail=trail,
        jobs=jobs,
    )


class _FusedData:
    """Per-instance tensors of the fused (single-GEMM) block bounding.

    Derived once from :class:`~repro.flowshop.bounds._V2GemmData`.  The
    stacked weight matrix keeps the kernel's ``(n * C, n + 1)`` layout so
    the candidate maximum reduces over the OUTERMOST axis of the
    ``(n, C, B)`` product — the orientation where the reduction runs over
    long contiguous spans (the middle-axis reduction of the row-major
    alternative costs more than its faster GEMM saves).
    """

    __slots__ = ("ftype", "stacked", "bf", "tails_f", "ptm_t", "m1", "m2", "inf")

    def __init__(self, data: LowerBoundData, ftype):
        gd = _v2_gemm_data(data, ftype)
        n, n_couples = data.n_jobs, data.n_couples
        self.ftype = gd.ftype
        # kj rows are (job, couple) pairs, job-major — the (n, C, B)
        # reshape of the product below relies on exactly that order
        self.stacked = np.ascontiguousarray(gd.kj.reshape(n * n_couples, n + 1))
        self.bf = gd.bf  # (C, n + 1)
        self.tails_f = np.ascontiguousarray(gd.tails_t.T)  # (n, m)
        self.ptm_t = gd.ptm_t  # (m, n)
        self.m1 = data.mm[:, 0]
        self.m2 = data.mm[:, 1]
        self.inf = np.asarray(np.inf, dtype=gd.ftype)


def _fused_data(data: LowerBoundData, ftype) -> _FusedData:
    cache = data._v2_gemm_cache
    fd = cache.get(ftype)
    if fd is None:
        fd = cache[ftype] = _FusedData(data, ftype)
    return fd


def _sibling_qm(jobs: np.ndarray, group: int, fd: _FusedData) -> np.ndarray:
    """``(B, m)`` per-child minimal tails for complete sibling sets.

    ``jobs`` lists the children of ``B // group`` parents, parent after
    parent, each parent contributing its complete set of ``group``
    children.  A parent's children's jobs ARE its unscheduled set, and
    each child's unscheduled set is that set minus its own job — so the
    per-child masked column-min over the tails collapses to the parent's
    (min, second-min) pair per machine: a child sees the second minimum
    exactly when its own tail attains the minimum (on ties both values
    coincide, so the comparison is safe).  One partition along the group
    axis replaces B masked reductions.
    """
    tails_u = fd.tails_f[jobs]  # (B, m) ftype — rows follow the children
    grouped = tails_u.reshape(-1, group, tails_u.shape[1])  # (parents, group, m)
    part = np.partition(grouped, 1, axis=1)
    low, second = part[:, :1], part[:, 1:2]
    return np.where(grouped == low, second, low).reshape(tails_u.shape)


def _bound_block_fused(
    data: LowerBoundData,
    mask_a: np.ndarray,
    rel_a: np.ndarray,
    include_one_machine: bool,
    ftype,
    qm_b: np.ndarray | None = None,
) -> np.ndarray:
    """Fused single-GEMM kernel-v2 evaluation of a small active batch.

    Identical math to ``_lower_bound_batch_v2_gemm`` (same precomputed
    weight tensors, same dtype guard, exact integer arithmetic in floats),
    but the per-Johnson-position ``np.dot`` loop collapses into ONE matrix
    product against the ``(n + 1, n_jobs * n_couples)`` stacked weights —
    a handful of array ops per launch instead of ~3·n, which is what makes
    bounding a small sibling block cheap.  ``qm_b`` optionally supplies the
    ``(B, m)`` per-node minimal tails (e.g. from :func:`_sibling_qm`); it
    is computed by a masked reduction otherwise.
    """
    n = mask_a.shape[1]
    n_couples = data.n_couples
    fd = _fused_data(data, ftype)
    batch = mask_a.shape[0]

    u = np.empty((n + 1, batch), dtype=fd.ftype)
    u[:n] = ~mask_a.T
    u[n] = 1.0

    cand_max = np.dot(fd.stacked, u).reshape(n, n_couples, batch).max(axis=0)
    work_b = np.dot(fd.bf, u)  # (C, B): total second-machine work B_N

    rel_t = rel_a.T.astype(fd.ftype)
    if qm_b is None:
        qm_b = np.where(mask_a[:, :, None], fd.inf, fd.tails_f[None, :, :]).min(axis=1)

    front1 = rel_t[fd.m1]
    front1 += cand_max
    front2 = rel_t[fd.m2]
    front2 += work_b
    np.maximum(front2, front1, out=front2)
    front2 += qm_b[:, fd.m2].T
    best = front2.max(axis=0)

    if include_one_machine:
        loads = np.dot(fd.ptm_t, u[:n])
        loads += rel_t
        loads += qm_b.T
        best = np.maximum(best, loads.max(axis=0))
    return best.astype(np.int64)


def bound_block(
    data: LowerBoundData,
    block: NodeBlock,
    include_one_machine: bool = False,
    kernel: str = "v2",
    siblings: bool = False,
) -> np.ndarray:
    """Bounding operator: evaluate a block in place, with zero re-packing.

    The block's ``(scheduled_mask, release)`` arrays are handed to the
    kernels directly, with no per-row re-pack.  Small batches of the v2
    kernel take the fused single-GEMM evaluation
    (:func:`_bound_block_fused`); everything else routes through the
    standard chunked kernels, together with the block's ``jobs`` column, so
    from ``_V2_INCREMENTAL_MIN_JOBS`` jobs on a branch-built block is
    bounded incrementally from its parents' sets (kernel v2's
    ``"incremental"`` strategy).  ``kernel="scalar"`` instead calls
    :func:`repro.flowshop.bounds.lower_bound` once per row — the paper's
    serial baseline.  Values are bit-identical to that scalar bound on
    every row, whatever the kernel, and are also written back into
    ``block.lower_bound``.

    ``siblings=True`` asserts that the block holds the COMPLETE child sets
    of one or more parents of equal depth, in parent order (exactly what
    :func:`branch_row` produces for one popped node and
    :func:`branch_block` for a best-first tie batch): each parent's
    children share its unscheduled set, so their per-node ``QM`` tails
    reduce to that parent's (min, second-min) pair (:func:`_sibling_qm`,
    one group of ``n_jobs - depth + 1`` rows per parent) — the dominant
    per-launch cost of small batches disappears while the values stay
    exactly the same.
    """
    batch = len(block)
    if batch == 0:
        return np.zeros(0, dtype=np.int64)
    mask, release = block.scheduled_mask, block.release
    n_jobs = mask.shape[1]

    if siblings:
        # siblings share one depth: either every child is complete or none
        if int(block.depth[0]) == n_jobs:
            bounds = block.lower_bound  # set at branch time (leaf makespans)
            return bounds

    if kernel == "scalar":
        # the paper's serial baseline: one scalar bound call per sub-problem
        # and no batch array (the bounding-fraction experiment measures it)
        for row in range(batch):
            block.lower_bound[row] = lower_bound(
                data,
                np.flatnonzero(mask[row]),
                release=release[row],
                include_one_machine=include_one_machine,
            )
        return block.lower_bound

    # from the crossover on, the kernel's incremental strategy bounds
    # branch-built rows (known ``jobs``) faster than the fused GEMM
    fused = (
        kernel == "v2"
        and 0 < data.n_couples
        and n_jobs <= _V2_GEMM_MAX_JOBS
        and batch <= _FUSED_MAX_BATCH
        and (block.jobs is None or n_jobs < _V2_INCREMENTAL_MIN_JOBS)
    )
    if fused:
        # engine-built release rows are non-decreasing along machines, so
        # the last column carries each row's maximum
        value_bound = _v2_value_bound(data, release[:, -1] if siblings else release)
        if value_bound < 2**24:
            ftype = np.float32
        elif value_bound < 2**53:
            ftype = np.float64
        else:  # pragma: no cover - pathological magnitudes
            fused = False

    if not fused:
        # the batched kernels are int64 internally (their entry coerces
        # ``release``); writing through the slice casts the int64 results
        # back into the block's int32 column — the explicit dtype boundary
        bounds = get_batch_kernel(kernel)(
            data, mask, release, include_one_machine=include_one_machine, jobs=block.jobs
        )
        block.lower_bound[:] = bounds
        return block.lower_bound

    if siblings and batch > 1:
        jobs = block.jobs if block.jobs is not None else block.trail.jobs_of(block.trail_id)
        group = n_jobs - int(block.depth[0]) + 1  # children per parent
        qm_b = _sibling_qm(jobs, group, _fused_data(data, ftype))
        bounds = _bound_block_fused(
            data, mask, release, include_one_machine, ftype, qm_b=qm_b
        )
        block.lower_bound[:] = bounds
        return block.lower_bound

    complete = block.depth == n_jobs
    if complete.any():
        bounds = np.empty(batch, dtype=np.int64)
        bounds[complete] = release[complete, -1]
        active = ~complete
        if active.any():
            bounds[active] = _bound_block_fused(
                data, mask[active], release[active], include_one_machine, ftype
            )
    else:
        bounds = _bound_block_fused(data, mask, release, include_one_machine, ftype)
    block.lower_bound[:] = bounds
    return block.lower_bound


def leaf_improvements(
    upper_bound: float, makespans: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Progressive incumbent improvements over an ordered leaf batch.

    Replicates the one-at-a-time engines' semantics: leaf ``i`` improves
    iff its makespan beats the incumbent as of leaf ``i`` (the original
    bound tightened by every earlier improving leaf).  Returns
    ``(improving_indices, running)`` where ``running[i]`` is the incumbent
    in force when leaf ``i`` is examined; the caller walks the (typically
    empty or tiny) index list to update its incumbent state in order.
    """
    running = np.minimum.accumulate(np.concatenate(([upper_bound], makespans)))[:-1]
    return np.flatnonzero(makespans < running), running


def eliminate_block(block: NodeBlock, upper_bound: float) -> tuple[NodeBlock, int]:
    """Elimination operator: one boolean mask instead of a Python loop.

    Rows survive only when ``lower_bound < upper_bound`` (strict: ties are
    discarded, which is correct once one incumbent achieving the bound is
    known).  Returns ``(survivors, n_pruned)``; the survivors keep their
    relative order.
    """
    if len(block) == 0:
        return block, 0
    lower = block.lower_bound
    if (lower == NO_BOUND).any():
        raise ValueError("eliminate_block() requires bounded nodes")
    keep = lower < upper_bound
    pruned = int(len(block) - np.count_nonzero(keep))
    if pruned == 0:
        return block, 0
    return block.take(np.flatnonzero(keep)), pruned


class BlockFrontier:
    """The pending pool as growable parallel arrays.

    Selection works on the classic pool keys — best-first by
    ``(lower_bound, depth, order_index)``, depth-first by most recent
    ``order_index``, FIFO by earliest — but pops are array reductions and
    batch selection uses ``argpartition`` / one sort, not per-node heap
    operations.  When the key fields fit their bit budgets (bounds below
    ``2**22``, depths below ``2**9``, creation indices below ``2**32`` —
    true for every realistic search), the triple collapses into one
    packed int64 whose numeric order IS the lexicographic pop order, so a
    best-first pop is a single ``argmin`` scan.  Removal is
    swap-compaction (tail rows move into the holes), which is valid
    because selection never depends on storage order.  Columns are stored
    int32 (the packed key stays int64), halving the scan traffic.

    ``frontier_index`` selects the selection data structure.  The default
    ``"segmented"`` partitions the store into fixed 4096-row segments and
    caches each segment's minimum packed key + its row (plus the maximum
    creation index, for depth-first/restricted pops).  Mutations only
    *mark* the touched segments dirty; the next selection query refreshes
    the dirty segments and then reduces over ~n/4096 cached minima instead
    of scanning all n rows.  Because the packed keys are unique (the
    creation index is), the indexed argmin is exactly the linear-scan
    argmin — selection stays bit-identical, which the golden fixtures and
    ``tests/test_frontier_index.py`` property tests pin.  ``"linear"`` is
    the full-scan ablation (and the small-store fast path: stores within
    one segment always scan directly).

    ``max_pending`` is an optional high-water memory cap: once the store
    reaches that many nodes, best-first selection switches to a
    depth-first-restricted regime — the deepest pending node is popped
    instead of the best-bound one, which plunges toward leaves and stops
    the exhaustive best-first frontier from growing without bound.  The
    search stays exact (no node is dropped).  Regime switching is
    hysteretic: selection re-engages best-first only after elimination
    drains the store below the low-water mark
    (:data:`CAP_LOW_WATER_FRACTION` × cap), not one pop below the cap —
    see :attr:`restricted` and :attr:`regime_switches`.
    """

    _STRATEGIES = {
        "best-first": "best",
        "best": "best",
        "depth-first": "depth",
        "depth": "depth",
        "fifo": "fifo",
        "breadth-first": "fifo",
    }

    def __init__(
        self,
        n_jobs: int,
        n_machines: int,
        trail: Trail,
        strategy: str = "best-first",
        capacity: int = 64,
        max_pending: int | None = None,
        frontier_index: str = "segmented",
        segment_shift: int = _SEG_SHIFT,
    ):
        key = self._STRATEGIES.get(strategy.lower())
        if key is None:
            raise ValueError(
                f"unknown selection strategy {strategy!r}; choose from "
                f"{sorted(set(self._STRATEGIES))}"
            )
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 when given")
        if frontier_index not in ("segmented", "linear"):
            raise ValueError(
                f"unknown frontier index {frontier_index!r}; "
                "choose 'segmented' or 'linear'"
            )
        if not 1 <= segment_shift <= 24:
            raise ValueError("segment_shift must be in [1, 24]")
        self.strategy = strategy
        self.frontier_index = frontier_index
        self._kind = key
        self._cap = max_pending
        #: hysteresis low-water mark: once restricted, stay restricted
        #: until the store drains strictly below this size
        self._low_water = (
            None
            if max_pending is None
            else max(1, int(CAP_LOW_WATER_FRACTION * max_pending))
        )
        self._restricted_now = False
        #: number of regime transitions (best-first <-> restricted) so far
        self.regime_switches = 0
        self._trail = trail
        self._mask = np.zeros((capacity, n_jobs), dtype=bool)
        self._release = np.zeros((capacity, n_machines), dtype=np.int32)
        self._lb = np.zeros(capacity, dtype=np.int32)
        self._depth = np.zeros(capacity, dtype=np.int32)
        self._order = np.zeros(capacity, dtype=np.int32)
        self._tid = np.zeros(capacity, dtype=np.int32)
        #: packed ``(lb << 41) | (depth << 32) | order`` selection key
        self._key = np.zeros(capacity, dtype=np.int64)
        self._packed = n_jobs < (1 << 9)
        self._size = 0
        self._max_size = 0
        self._segmented = frontier_index == "segmented"
        self._seg_shift = segment_shift
        self._seg_size = 1 << segment_shift
        self._seg_mask = self._seg_size - 1
        #: maintain the creation-index caches only when a depth-ordered pop
        #: is reachable (depth strategy, or best-first under a cap whose
        #: restricted regime pops deepest) — best-first without a cap never
        #: consults them, and skipping them halves the refresh scans
        self._seg_track_order = key == "depth" or (
            key == "best" and max_pending is not None
        )
        if self._segmented:
            seg_cap = max(1, (capacity + self._seg_mask) >> segment_shift)
            #: per-segment minimum packed key (int64, like the key column)
            self._seg_key = np.full(seg_cap, _KEY_SENTINEL, dtype=np.int64)
            #: row holding each segment's minimum key (int32 row ids)
            self._seg_krow = np.zeros(seg_cap, dtype=np.int32)
            #: per-segment maximum creation index (depth/restricted pops)
            self._seg_omax = np.zeros(seg_cap, dtype=np.int32)
            #: row holding each segment's maximum creation index
            self._seg_orow = np.zeros(seg_cap, dtype=np.int32)
            #: segments whose caches must be recomputed before the next query
            self._seg_dirty = np.ones(seg_cap, dtype=bool)
            self._seg_any_dirty = True
        else:
            self._seg_key = None
            self._seg_krow = None
            self._seg_omax = None
            self._seg_orow = None
            self._seg_dirty = None
            self._seg_any_dirty = False

    _ARRAYS = ("_mask", "_release", "_lb", "_depth", "_order", "_tid", "_key")
    _SEG_ARRAYS = ("_seg_key", "_seg_krow", "_seg_omax", "_seg_orow", "_seg_dirty")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def max_size_seen(self) -> int:
        """Largest number of pending nodes observed (memory high-water mark)."""
        return self._max_size

    @property
    def capped(self) -> bool:
        """True when a ``max_pending`` memory cap was configured.

        Unlike :attr:`restricted` this is pure static configuration — no
        regime transition, no counter side effect — so callers that only
        need to know whether the hysteretic regime *can* engage (e.g. the
        async driver deciding whether micro-chunked selection is safe)
        can read it freely without perturbing :attr:`regime_switches`.
        """
        return self._cap is not None

    @property
    def restricted(self) -> bool:
        """True while the ``max_pending`` cap holds best-first selection in
        its depth-first-restricted regime.

        The regime is hysteretic: it engages when the store reaches the
        cap and — instead of flapping back the moment one pop dips below
        it — stays engaged until the store drains strictly below the
        low-water mark (:data:`CAP_LOW_WATER_FRACTION` × cap).  Each
        transition increments :attr:`regime_switches`.
        """
        if self._cap is None or self._kind != "best":
            return False
        if self._restricted_now:
            if self._size < self._low_water:
                self._restricted_now = False
                self.regime_switches += 1
        elif self._size >= self._cap:
            self._restricted_now = True
            self.regime_switches += 1
        return self._restricted_now

    def record_size_hint(self, size: int) -> None:
        """Raise the high-water mark to a size the pool logically reached.

        Batched engines remove several nodes at once and insert all of
        their surviving children in one append; this lets them credit the
        intermediate sizes a one-node-at-a-time pool would have passed
        through, keeping ``max_pool_size`` identical to single pops.
        """
        if size > self._max_size:
            self._max_size = size

    def _ensure(self, extra: int) -> None:
        need = self._size + extra
        if need > self._lb.shape[0]:
            capacity = max(need, 2 * self._lb.shape[0])
            for name in self._ARRAYS:
                old = getattr(self, name)
                new = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
                new[: self._size] = old[: self._size]
                setattr(self, name, new)
            if self._segmented:
                seg_cap = max(1, (capacity + self._seg_mask) >> self._seg_shift)
                old_n = self._seg_dirty.shape[0]
                if seg_cap > old_n:
                    for name in self._SEG_ARRAYS:
                        old = getattr(self, name)
                        new = np.zeros(seg_cap, dtype=old.dtype)
                        new[:old_n] = old
                        setattr(self, name, new)
                    # caches of live segments stay valid across growth; the
                    # new segments only become live via a push, which marks
                    # them — but mark defensively anyway
                    self._seg_dirty[old_n:] = True
                    self._seg_any_dirty = True

    # ------------------------------------------------------------------ #
    def push_block(self, block: NodeBlock, keep: np.ndarray | None = None) -> None:
        """Insert a block of nodes (bulk append).

        ``keep`` optionally selects a boolean subset of the block's rows —
        a fused elimination + insertion that avoids materializing the
        survivor block.
        """
        if keep is None:
            count = len(block)
            if count == 0:
                return
            self._ensure(count)
            lo, hi = self._size, self._size + count
            self._mask[lo:hi] = block.scheduled_mask
            self._release[lo:hi] = block.release
            lb = self._lb[lo:hi] = block.lower_bound
            depth = self._depth[lo:hi] = block.depth
            order = self._order[lo:hi] = block.order_index
            self._tid[lo:hi] = block.trail_id
        else:
            rows = np.flatnonzero(keep)
            count = rows.shape[0]
            if count == 0:
                return
            self._ensure(count)
            lo, hi = self._size, self._size + count
            self._mask[lo:hi] = block.scheduled_mask[rows]
            self._release[lo:hi] = block.release[rows]
            lb = self._lb[lo:hi] = block.lower_bound[rows]
            depth = self._depth[lo:hi] = block.depth[rows]
            order = self._order[lo:hi] = block.order_index[rows]
            self._tid[lo:hi] = block.trail_id[rows]
        if self._packed:
            # order indices are int32 and guarded by the Trail's id limit,
            # so (unlike the historical int64 columns) a negative value —
            # not a value past 2**32 — is the wrap signal to check for
            if (
                int(lb.min()) < 0
                or int(lb.max()) >= (1 << 22)
                or int(order[-1]) < 0
            ):
                self._packed = False
            else:
                self._key[lo:hi] = (
                    (lb.astype(np.int64) << 41)
                    | (depth.astype(np.int64) << 32)
                    | order
                )
        if self._segmented:
            shift = self._seg_shift
            self._seg_dirty[lo >> shift : ((hi - 1) >> shift) + 1] = True
            self._seg_any_dirty = True
        self._size = hi
        if hi > self._max_size:
            self._max_size = hi

    # ------------------------------------------------------------------ #
    # Segmented min-key index.  Mutations mark touched segments dirty (see
    # push_block/discard/_remove/prune_to); queries call _seg_refresh()
    # first and then reduce over the per-segment caches.  Key caches are
    # only maintained while the packed key is valid; the creation-index
    # caches are always maintained (depth/restricted pops use them).

    def _n_segments(self) -> int:
        return (self._size + self._seg_mask) >> self._seg_shift

    def _seg_active(self) -> bool:
        """True when selection should consult the segment caches.

        Stores within a single segment scan directly: the cache reduces
        nothing there, and skipping it keeps tiny searches on the exact
        legacy code path.
        """
        return self._segmented and self._size > self._seg_size

    def _seg_refresh(self) -> None:
        """Recompute the caches of every dirty segment (lazy, pre-query)."""
        if not self._seg_any_dirty:
            return
        size = self._size
        n_seg = (size + self._seg_mask) >> self._seg_shift
        dirty = self._seg_dirty[:n_seg].nonzero()[0]
        if dirty.shape[0]:
            if dirty.shape[0] > max(8, n_seg >> 2):
                self._seg_rebuild(size, n_seg)
            else:
                shift, seg_size = self._seg_shift, self._seg_size
                packed, key, order = self._packed, self._key, self._order
                track = self._seg_track_order
                seg_key, seg_krow = self._seg_key, self._seg_krow
                seg_omax, seg_orow = self._seg_omax, self._seg_orow
                for s in dirty.tolist():
                    lo = s << shift
                    hi = lo + seg_size
                    if hi > size:
                        hi = size
                    if track:
                        oseg = order[lo:hi]
                        j = oseg.argmax()
                        seg_omax[s] = oseg[j]
                        seg_orow[s] = lo + j
                    if packed:
                        kseg = key[lo:hi]
                        i = kseg.argmin()
                        seg_key[s] = kseg[i]
                        seg_krow[s] = lo + i
            self._seg_dirty[:n_seg] = False
        # dirty flags past n_seg stay set: those segments are not live, and
        # the push that re-grows the store re-marks everything it touches
        self._seg_any_dirty = False

    def _seg_rebuild(self, size: int, n_seg: int) -> None:
        """Vectorized full rebuild (cheaper than many per-segment passes)."""
        shift, seg_size = self._seg_shift, self._seg_size
        nf = size >> shift  # fully-populated segments
        if nf:
            span = nf << shift
            idx = np.arange(nf, dtype=np.int64)
            if self._seg_track_order:
                oview = self._order[:span].reshape(nf, seg_size)
                j = np.argmax(oview, axis=1)
                self._seg_omax[:nf] = oview[idx, j]
                self._seg_orow[:nf] = (idx << shift) + j
            if self._packed:
                kview = self._key[:span].reshape(nf, seg_size)
                i = np.argmin(kview, axis=1)
                self._seg_key[:nf] = kview[idx, i]
                self._seg_krow[:nf] = (idx << shift) + i
        if nf < n_seg:  # ragged tail segment
            lo = nf << shift
            if self._seg_track_order:
                oseg = self._order[lo:size]
                j = int(np.argmax(oseg))
                self._seg_omax[nf] = oseg[j]
                self._seg_orow[nf] = lo + j
            if self._packed:
                kseg = self._key[lo:size]
                i = int(np.argmin(kseg))
                self._seg_key[nf] = kseg[i]
                self._seg_krow[nf] = lo + i

    def _seg_rows(self, segs: np.ndarray, size: int) -> np.ndarray:
        """Concatenated row indices of the given segments (clipped to size)."""
        shift, seg_size = self._seg_shift, self._seg_size
        parts = [
            np.arange(lo, min(lo + seg_size, size), dtype=np.int64)
            for lo in (np.asarray(segs, dtype=np.int64) << shift)
        ]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    # ------------------------------------------------------------------ #
    def _pop_one_index(self) -> int:
        """Row index of the single next node according to the strategy."""
        size = self._size
        if self._kind == "depth" or self.restricted:
            if self._seg_active():
                self._seg_refresh()
                s = int(self._seg_omax[: self._n_segments()].argmax())
                return int(self._seg_orow[s])
            return int(np.argmax(self._order[:size]))
        if self._kind == "fifo":
            return int(np.argmin(self._order[:size]))
        if self._packed:
            # the packed key's numeric order IS the heap's lexicographic
            # (lb, depth, order) order: one argmin — over ~n/4096 cached
            # segment minima when the segmented index is live (keys are
            # unique, so the indexed argmin IS the linear argmin), over
            # all n rows otherwise
            if self._seg_active():
                self._seg_refresh()
                s = int(self._seg_key[: self._n_segments()].argmin())
                return int(self._seg_krow[s])
            return int(np.argmin(self._key[:size]))
        lbs = self._lb[:size]
        best = lbs.min()
        candidates = np.flatnonzero(lbs == best)
        if candidates.shape[0] == 1:
            return int(candidates[0])
        # resolve ties by (depth, order_index), exactly like the heap key
        sub = np.lexsort((self._order[candidates], self._depth[candidates]))
        return int(candidates[sub[0]])

    def _pop_order(self) -> np.ndarray:
        """All pending rows, sorted in the strategy's pop order."""
        size = self._size
        if self._kind == "depth" or self.restricted:
            return np.argsort(self._order[:size], kind="stable")[::-1]
        if self._kind == "fifo":
            return np.argsort(self._order[:size], kind="stable")
        if self._packed:
            return np.argsort(self._key[:size])
        return np.lexsort((self._order[:size], self._depth[:size], self._lb[:size]))

    def _best_prefix(self, count: int) -> np.ndarray:
        """The first ``count`` rows in best-first pop order.

        Packed stores use ``argpartition`` over the key column; with the
        segmented index live, only the segments that can contribute to the
        ``count`` smallest keys are gathered: segments are drained in
        cached-minimum order until ``count`` candidate rows are on hand,
        the running ``count``-th smallest candidate key bounds which other
        segments could still matter (a segment whose cached minimum
        exceeds it cannot hold any of the ``count`` smallest), and the
        partition runs over that candidate set only.  Keys are unique, so
        the result is bit-identical to partitioning the whole store.
        """
        size = self._size
        if count >= size:
            return self._pop_order()
        if self._packed:
            if self._seg_active():
                self._seg_refresh()
                n_seg = self._n_segments()
                shift = self._seg_shift
                seg_min = self._seg_key[:n_seg]
                by_min = np.argsort(seg_min)
                sizes = np.full(n_seg, self._seg_size, dtype=np.int64)
                sizes[n_seg - 1] = size - ((n_seg - 1) << shift)
                cum = np.cumsum(sizes[by_min])
                take = int(np.searchsorted(cum, count)) + 1
                rows = self._seg_rows(by_min[:take], size)
                keys = self._key[rows]
                kth = np.partition(keys, count - 1)[count - 1]
                # candidate kth key only shrinks as segments are added, so
                # every segment whose minimum exceeds it is out for good
                reach = int(np.searchsorted(seg_min[by_min], kth, side="right"))
                if reach > take:
                    rows = np.concatenate(
                        [rows, self._seg_rows(by_min[take:reach], size)]
                    )
                    keys = self._key[rows]
                part = np.argpartition(keys, count - 1)[:count]
                return rows[part[np.argsort(keys[part])]]
            keys = self._key[:size]
            part = np.argpartition(keys, count - 1)[:count]
            return part[np.argsort(keys[part])]
        order = self._pop_order()
        return order[:count]

    def pop_min_tie_batch(self, budget_remaining: int | None = None) -> NodeBlock | None:
        """Pop every node sharing the minimal ``(lower_bound, depth)`` pair.

        In best-first order those nodes are popped consecutively no matter
        what happens in between: any child generated from one of them has
        either a larger bound or — at an equal bound — a larger depth, so
        its key can never preempt the remaining tie members.  Batching
        them lets the engine branch and bound all of their children in a
        single launch while exploring exactly the one-at-a-time tree.

        ``budget_remaining`` is the caller's ``max_nodes`` headroom: a
        processed node can add up to ``1 + n_unscheduled`` to the explored
        count (itself plus all of its children pruned), so the batch is
        capped at the size that provably cannot cross the budget between
        member pops.  One node is always safe — the one-at-a-time engine
        also re-checks its budget only between pops.

        Only valid for the best-first strategy with packed keys; returns
        ``None`` when unavailable (caller falls back to single pops) —
        including while a ``max_pending`` cap holds selection in its
        depth-first-restricted regime (check :attr:`restricted` first to
        distinguish a pause from permanent unavailability).
        """
        if self._kind != "best" or not self._packed or self._size == 0 or self.restricted:
            return None
        size = self._size
        if self._seg_active():
            # only segments whose cached minimum sits below the tie
            # threshold can hold tie members — gather those rows only
            self._seg_refresh()
            seg_min = self._seg_key[: self._n_segments()]
            min_key = seg_min.min()
            threshold = ((min_key >> 32) + 1) << 32
            rows = self._seg_rows(np.flatnonzero(seg_min < threshold), size)
            candidates = rows[self._key[rows] < threshold]
        else:
            keys = self._key[:size]
            min_key = keys.min()
            candidates = np.flatnonzero(keys < ((min_key >> 32) + 1) << 32)
        if candidates.shape[0] > 1:
            candidates = candidates[np.argsort(self._key[candidates])]
            if budget_remaining is not None:
                depth = int(min_key >> 32) & 0x1FF
                worst_per_node = 1 + self._mask.shape[1] - depth
                cap = max(1, budget_remaining // worst_per_node)
                if candidates.shape[0] > cap:
                    candidates = candidates[:cap]
        block = self._extract(candidates)
        self._remove(np.sort(candidates))
        return block

    def peek_best(self) -> int:
        """Row index of the next node to pop (no removal).

        With :meth:`row_view` and :meth:`discard` this forms the zero-copy
        pop used by one-node-per-step engines: read the row in place,
        branch from the views, then discard the row — no one-row block is
        ever materialized.
        """
        if self._size == 0:
            raise IndexError("peek at an empty frontier")
        return self._pop_one_index()

    def row_view(self, row: int) -> tuple[int, int, int, int, np.ndarray, np.ndarray]:
        """``(lb, depth, order, trail_id, mask_view, release_view)`` of a row.

        The two array views alias the frontier's storage: they are valid
        only until the next :meth:`discard` / :meth:`push_block` call.
        """
        return (
            int(self._lb[row]),
            int(self._depth[row]),
            int(self._order[row]),
            int(self._tid[row]),
            self._mask[row],
            self._release[row],
        )

    def discard(self, row: int) -> None:
        """Remove one row (swap-compaction with the last row)."""
        last = self._size - 1
        if row != last:
            for name in self._ARRAYS:
                array = getattr(self, name)
                array[row] = array[last]
        if self._segmented:
            shift = self._seg_shift
            hole_seg = row >> shift
            self._seg_dirty[hole_seg] = True
            tail_seg = last >> shift
            if tail_seg != hole_seg and (
                not self._packed
                or self._seg_krow[tail_seg] == last
                or (self._seg_track_order and self._seg_orow[tail_seg] == last)
            ):
                # the tail row moved out of its segment; a fresh cache only
                # breaks when that row WAS the cached extremum — removing
                # any other row leaves the cached minimum/maximum attained
                self._seg_dirty[tail_seg] = True
            self._seg_any_dirty = True
        self._size = last

    def _extract(self, rows: np.ndarray) -> NodeBlock:
        return NodeBlock(
            scheduled_mask=self._mask[rows],
            release=self._release[rows],
            lower_bound=self._lb[rows],
            depth=self._depth[rows],
            order_index=self._order[rows],
            trail_id=self._tid[rows],
            trail=self._trail,
        )

    def _remove(self, rows: np.ndarray) -> None:
        """Swap-compact the given (ascending) rows out of the store.

        The surviving tail rows fill the holes in ascending order; a
        boolean mask over the ``count`` tail rows finds them in O(count).
        """
        size, count = self._size, rows.shape[0]
        tail_start = size - count
        in_tail = rows >= tail_start
        holes = rows[~in_tail]
        if holes.shape[0]:
            tail_free = np.ones(count, dtype=bool)
            tail_free[rows[in_tail] - tail_start] = False
            tail_keep = np.flatnonzero(tail_free) + tail_start
            for name in self._ARRAYS:
                array = getattr(self, name)
                array[holes] = array[tail_keep]
        if self._segmented and count:
            shift = self._seg_shift
            self._seg_dirty[rows >> shift] = True
            self._seg_dirty[tail_start >> shift : ((size - 1) >> shift) + 1] = True
            self._seg_any_dirty = True
        self._size = tail_start

    # ------------------------------------------------------------------ #
    def pop_batch(
        self, max_nodes: int, upper_bound: float | None = None
    ) -> tuple[NodeBlock, int]:
        """Selection operator: remove up to ``max_nodes`` nodes, in pop order.

        With ``upper_bound`` given, nodes whose stored bound already meets
        the incumbent are discarded on the fly and counted (lazy pruning):
        stale nodes met while filling the batch are dropped,
        and draining the pool without filling the batch drops every
        remaining stale node.

        Returns ``(selected, n_pruned)``.
        """
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        size = self._size
        if size == 0:
            return (
                NodeBlock.empty(self._mask.shape[1], self._release.shape[1], self._trail),
                0,
            )
        if max_nodes == 1 and upper_bound is None:
            rows = np.array([self._pop_one_index()], dtype=np.int64)
            block = self._extract(rows)
            self._remove(rows)
            return block, 0

        if self._kind == "best" and not self.restricted:
            # Best-first pop order is non-decreasing in lb, so the fresh
            # nodes form a prefix: either the batch fills from it (no
            # pruning), or the pool drains and every stale node is dropped.
            # Whether the batch fills is read off the selected prefix
            # itself — the common nothing-pruned case costs exactly one
            # selection pass, no pre-counting scan.
            popped = self._best_prefix(max_nodes)
            if upper_bound is None or self._lb[popped[-1]] < upper_bound:
                selected = popped
            elif self._lb[popped[0]] >= upper_bound:
                # even the best pending bound is stale: the pool drains
                popped = np.arange(size, dtype=np.int64)
                selected = popped[:0]
            else:
                # the batch cannot fill: the pool drains, dropping every
                # stale node; the fresh rows key-sorted ARE the fresh
                # prefix of the pop order (keys are unique)
                fresh_rows = np.flatnonzero(self._lb[:size] < upper_bound)
                if self._packed:
                    selected = fresh_rows[np.argsort(self._key[fresh_rows])]
                else:
                    selected = fresh_rows[
                        np.lexsort(
                            (
                                self._order[fresh_rows],
                                self._depth[fresh_rows],
                                self._lb[fresh_rows],
                            )
                        )
                    ]
                popped = np.arange(size, dtype=np.int64)
        else:
            order = self._pop_order()
            if upper_bound is None:
                popped = order[:max_nodes]
                selected = popped
            else:
                fresh = self._lb[order] < upper_bound
                n_fresh = int(np.count_nonzero(fresh))
                if n_fresh >= max_nodes:
                    cut = int(np.searchsorted(np.cumsum(fresh), max_nodes)) + 1
                    popped = order[:cut]
                    selected = popped[fresh[:cut]]
                else:
                    popped = order
                    selected = popped[fresh]
        block = self._extract(selected)
        self._remove(np.sort(popped))
        return block, int(popped.shape[0] - selected.shape[0])

    def prune_to(self, upper_bound: float) -> int:
        """Drop pending nodes whose bound cannot improve ``upper_bound``.

        Mask compaction over the whole store; returns the number removed.
        """
        size = self._size
        if size == 0:
            return 0
        keep = self._lb[:size] < upper_bound
        kept = int(np.count_nonzero(keep))
        removed = size - kept
        if removed:
            rows = np.flatnonzero(keep)
            for name in self._ARRAYS:
                array = getattr(self, name)
                array[:kept] = array[rows]
            self._size = kept
            if self._segmented:
                # mask compaction moves every surviving row: rebuild the
                # caches of all surviving segments on the next query
                self._seg_dirty[: ((size - 1) >> self._seg_shift) + 1] = True
                self._seg_any_dirty = True
        return removed

    def best_lower_bound(self) -> int | None:
        """Smallest pending lower bound (``None`` when empty)."""
        if self._size == 0:
            return None
        if self._packed and self._seg_active():
            self._seg_refresh()
            # lb occupies the key's top bits, so the minimal key carries it
            return int(self._seg_key[: self._n_segments()].min() >> 41)
        return int(self._lb[: self._size].min())


def make_frontier(
    instance: FlowShopInstance,
    trail: Trail,
    strategy: str = "best-first",
    max_pending: int | None = None,
    frontier_index: str = "segmented",
) -> BlockFrontier:
    """Create a :class:`BlockFrontier` sized for ``instance``."""
    return BlockFrontier(
        instance.n_jobs,
        instance.n_machines,
        trail,
        strategy=strategy,
        max_pending=max_pending,
        frontier_index=frontier_index,
    )
