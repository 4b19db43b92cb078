"""Structure-of-arrays frontier: columnar nodes for vectorized search.

A Python object per node would pay interpreter cost *per node*: one
instance per child, one heap entry per push, and a row-by-row re-pack
every time a batch is shipped to the bounding kernel.  Once the kernel
itself is vectorized, those per-node costs would dominate the host side
of the search (``benchmarks/bench_frontier.py`` keeps such a loop as a
frozen ablation and measures the gap).

This module stores a *batch* of nodes as a :class:`NodeBlock` of parallel
arrays — exactly the ``(mask_bits, release)`` layout kernel v2 consumes —
so the four B&B operators become array programs.  A node's scheduled set
is one bit per job, ``ceil(n / 8)`` bytes
(:func:`~repro.flowshop.bounds.pack_mask`): at the paper's 100x20 and
200x20 sizes a bool per job was most of a node's bytes.

* :func:`branch_block` — all children of a batch of parents in one shot.
  The release-time recurrence is one max-plus machine scan
  (:func:`~repro.flowshop.schedule.machine_scan`) over *every* (parent,
  child-job) pair of a row chunk at once, reading per-job cumulative
  times that a search builds once; the parents' unscheduled jobs come
  from one unpack of their packed rows, a child's row is its parent's OR
  one gathered job bit, and the child count never touches a Python loop.
* :func:`bound_block` — bounding straight off the block's arrays with
  **zero re-packing**: one kernel-v2 call takes the block's columns and
  its ``jobs`` column as they are.
* :func:`eliminate_block` — elimination as one boolean mask.
* :class:`BlockFrontier` — the pending pool as growable arrays whose
  ``pop_batch`` / ``prune_to`` use ``argpartition``-style selection and
  mask compaction instead of per-node heap operations.  A segmented
  min-key index (fixed 4096-row segments with cached per-segment key
  minima, maintained incrementally and refreshed lazily) makes the
  best-first selection scans sublinear at 10^5–10^6 pending nodes (a
  store within one segment scans its key column directly).

Where a block's rows live: in arrays of its own (a popped pool, a seed,
the single-step loop's sibling sets), or in a frontier store's free rows
past its end.  A batch iteration takes the second way: it reserves the
free rows (:meth:`BlockFrontier.reserve`), branches its pool into them,
bounds them in place, and :meth:`BlockFrontier.push_block` keeps the
survivors where they lie.  Rows join the frontier only through
``push_block``.

Prefixes are *not* carried per node.  Each node stores one ``trail_id``
into a shared :class:`Trail` of ``(parent_slot, job)`` pairs, and the full
permutation is materialized lazily — only for incumbents and trace events.

A node's one id is its trail slot: nodes join the trail in creation
order, so the slot is also the per-search creation index.  The selection
key ``(lower_bound, depth, trail_id)`` makes every tie-break
deterministic, so each engine explores bit-for-bit the same tree on every
run (pinned by the golden fixtures of ``tests/test_driver.py``).

All block/frontier integer columns are stored as **int32**: Taillard-class
magnitudes (release times, bounds, depths, trail slots) sit far below
``2**31``, and halving the frontier's memory traffic raises the cache
residency of the selection scans.  Kernel v2 takes the int32 ``release``
column as it is and casts it inside a body, to the dtype its value guard
picks, one chunk or tile at a time; :func:`bound_block` writes the
kernel's int64 results back into the int32 ``lower_bound`` column in
place, which is the one explicit int32↔int64 boundary of the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flowshop.bounds import (
    LowerBoundData,
    get_batch_kernel,
    job_bit_table,
    lower_bound,
    pack_mask,
    unpack_mask,
)
from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.schedule import job_cumulative_times, machine_scan

__all__ = [
    "NO_BOUND",
    "Trail",
    "NodeBlock",
    "root_block",
    "seed_block",
    "branch_block",
    "bound_block",
    "eliminate_block",
    "BlockFrontier",
    "SELECTION_STRATEGIES",
    "check_selection",
]

#: Sentinel stored in :attr:`NodeBlock.lower_bound` until a node is bounded.
#: Bounds are always non-negative, so ``-1`` can never collide with a real
#: value — and it still satisfies ``NO_BOUND < upper_bound``, so un-bounded
#: nodes survive :meth:`BlockFrontier.prune_to`.
NO_BOUND = -1

#: Segment width of the segmented min-key index, as a shift: segments hold
#: ``2**12 == 4096`` rows.  Small enough that the one in-segment rescan a
#: refresh pays stays cache-resident, large enough that a million-node
#: frontier has only ~244 segment minima to reduce over.
_SEG_SHIFT = 12

#: Cache value of a segment with no valid cached minimum, and the key of a
#: tombstoned row (popped, awaiting compaction): the sentinel loses every
#: ``argmin`` and every tie-threshold test.
_KEY_SENTINEL = np.iinfo(np.int64).max

#: Low-water fraction of the ``max_pending`` cap hysteresis: once the cap
#: trips, best-first selection stays in the depth-first-restricted regime
#: until the store drains below ``0.8 * cap`` — instead of flapping between
#: regimes one push/pop around the boundary.
CAP_LOW_WATER_FRACTION = 0.8

#: The selection strategies, each by the one name that every engine, the
#: service and snapshot headers accept.
SELECTION_STRATEGIES = ("best-first", "depth-first", "fifo")

#: Rows per chunk of :func:`branch_block`'s writes and of
#: :meth:`BlockFrontier.push_block`'s copy.  Their temporaries stay within
#: one chunk (about 1.5 MB at 100x20) however large the block is.
_ROW_CHUNK = 1 << 12

#: Ceiling on the children of one tie batch (members times their
#: unscheduled jobs; one member always goes):
#: :meth:`BlockFrontier.pop_min_tie_batch` cuts a larger batch to a
#: key-ordered prefix, so one step's branch and bounding launch stay small
#: however wide the tie grows, and budgets are checked between steps that
#: short.  Measured on one CPU of a 2-vCPU AMD EPYC against ``1 << 18``:
#: exact-small's wall is the same (3 of its steps pass ``1 << 16``);
#: ``SequentialBranchAndBound(taillard_instance(20, 5, index=i),
#: max_time_s=3)`` returns in 3.00-3.02 s at 0.75-0.97 GB peak RSS for
#: i = 1, 2, 5 (``1 << 18``: 3.00-3.04 s at 1.09-1.68 GB, as it explores
#: up to 1.9x more nodes in the 3 s); under a 3,000,000-node budget
#: ``1 << 18`` runs 1.3x faster (0.50-0.52 s against 0.66-0.68 s) in
#: steps up to four times longer.  The smaller steps and the slower
#: memory growth of a time-budgeted run win.
_STEP_CHILD_ROWS = 1 << 16


def _whole_rows(array: np.ndarray) -> np.ndarray:
    """A C-contiguous store array as one element per row.

    A 2-D array's rows become single void elements, so a fancy scatter
    moves each row as one item (about 3x faster than 2-D fancy indexing
    at a few hundred rows); a 1-D array is returned as it is.
    """
    if array.ndim == 1:
        return array
    return array.view(np.dtype((np.void, array.shape[1] * array.itemsize))).reshape(-1)


#: int32 node-id ceiling of the block layout (trail slots).
#: A search would need >2**31 nodes — hundreds of GB of frontier — to reach
#: it, but growing past it must fail loudly, not wrap.
_INT32_ID_LIMIT = np.iinfo(np.int32).max


class Trail:
    """Compact ancestry store: one ``(parent_slot, job)`` pair per node.

    Every node ever created appends one entry; the scheduled prefix of a
    node is materialized lazily by walking parent slots up to the root
    (``parent == -1``).  Two int32 cells per node replace a per-node
    Python tuple.  Slots are handed out in creation order, so a node's
    slot is its id and its creation index; creating more than
    ``2**31 - 1`` nodes raises :class:`OverflowError` (ids would
    otherwise wrap).
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
                "the int32 node ids (trail slots); split "
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


@dataclass
class NodeBlock:
    """A batch of B&B nodes stored as parallel arrays (structure of arrays).

    The ``(mask_bits, release)`` pair is byte-for-byte the layout kernel v2
    consumes, so bounding a block never re-packs anything.  ``lower_bound``
    holds :data:`NO_BOUND` until the node is bounded.  ``trail_id`` is the
    node's id: its creation index, which makes selection tie-breaks
    deterministic.
    """

    #: ``(B, ceil(n_jobs / 8))`` uint8 scheduled sets, one bit per job: job
    #: ``j`` is bit ``j % 8`` of byte ``j // 8`` (see
    #: :func:`~repro.flowshop.bounds.pack_mask`); padding bits are zero
    mask_bits: np.ndarray
    #: ``(B, n_machines)`` per-machine release times (the ``RM`` vectors)
    release: np.ndarray
    #: ``(B,)`` lower bounds (:data:`NO_BOUND` until evaluated)
    lower_bound: np.ndarray
    #: ``(B,)`` number of scheduled jobs
    depth: np.ndarray
    #: ``(B,)`` ids into :attr:`trail`: lazy prefix materialization, and
    #: creation indices (the deterministic tie-break)
    trail_id: np.ndarray
    #: shared ancestry store of the search
    trail: Trail
    #: number of jobs of the instance (the packed width does not give it)
    n_jobs: int
    #: ``(B,)`` int32 job scheduled last by each row (set by
    #: :func:`branch_block`; lets kernel v2 bound the rows from their
    #: parents' sets)
    jobs: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.mask_bits.shape[0])

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
            mask_bits=self.mask_bits.take(rows, axis=0),
            release=self.release.take(rows, axis=0),
            lower_bound=self.lower_bound[rows],
            depth=self.depth[rows],
            trail_id=self.trail_id[rows],
            trail=self.trail,
            n_jobs=self.n_jobs,
            jobs=self.jobs[rows] if self.jobs is not None else None,
        )

    @classmethod
    def empty(cls, n_jobs: int, n_machines: int, trail: Trail, rows: int = 0) -> "NodeBlock":
        """A block of ``rows`` unwritten rows (none by default) with correctly
        shaped/typed columns."""
        return cls(
            mask_bits=np.empty((rows, (n_jobs + 7) >> 3), dtype=np.uint8),
            release=np.empty((rows, n_machines), dtype=np.int32),
            lower_bound=np.empty(rows, dtype=np.int32),
            depth=np.empty(rows, dtype=np.int32),
            trail_id=np.empty(rows, dtype=np.int32),
            trail=trail,
            n_jobs=n_jobs,
        )


def root_block(instance: FlowShopInstance, trail: Trail) -> NodeBlock:
    """A one-row block holding the root (empty schedule), the trail's next node."""
    return NodeBlock(
        mask_bits=np.zeros((1, (instance.n_jobs + 7) >> 3), dtype=np.uint8),
        release=np.zeros((1, instance.n_machines), dtype=np.int32),
        lower_bound=np.full(1, NO_BOUND, dtype=np.int32),
        depth=np.zeros(1, dtype=np.int32),
        trail_id=np.array([trail.append_root()], dtype=np.int32),
        trail=trail,
        n_jobs=instance.n_jobs,
    )


def seed_block(
    instance: FlowShopInstance,
    prefix: tuple[int, ...],
    trail: Trail,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> NodeBlock:
    """A one-row block for the node reached by scheduling ``prefix``.

    The root-to-seed chain nodes are registered on the trail (so the
    seed's prefix materializes); on a fresh trail the seed's id is
    ``len(prefix)``, as if the chain had been created one child at a
    time.  ``tables`` are the instance's per-job cumulative times, as
    :func:`branch_block` takes them.
    """
    n, m = instance.n_jobs, instance.n_machines
    after, before = tables or job_cumulative_times(instance.processing_times)
    mask = np.zeros((1, n), dtype=bool)
    release = np.zeros(m, dtype=np.int32)
    trail_id = trail.append_root()
    for job in prefix:
        job = int(job)
        if not 0 <= job < n:
            raise ValueError(f"job index {job} out of range")
        if mask[0, job]:
            raise ValueError(f"job {job} scheduled twice in the prefix")
        machine_scan(release, job, after, before, out=release)
        mask[0, job] = True
        trail_id = trail.append(trail_id, job)
    depth = len(prefix)
    lower = release[-1] if depth == n else NO_BOUND
    return NodeBlock(
        mask_bits=pack_mask(mask),
        release=release[None, :],
        lower_bound=np.array([lower], dtype=np.int32),
        depth=np.array([depth], dtype=np.int32),
        trail_id=np.array([trail_id], dtype=np.int32),
        trail=trail,
        n_jobs=n,
    )


def branch_block(
    parents: NodeBlock,
    processing_times: np.ndarray,
    out: NodeBlock | None = None,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> NodeBlock:
    """Branching operator: all one-job extensions of every parent row.

    Children are produced parent-major, jobs in increasing index order,
    and join the trail in that order, so their ids are consecutive.  Leaf
    rows contribute no children; complete-child rows get their makespan
    as an exact bound immediately.

    The children are written into ``out`` when it is given: a block of
    exactly as many rows, such as the free rows past a frontier's end
    that :meth:`BlockFrontier.reserve` hands out, where they are bounded
    and admitted without moving.  Otherwise a new block is allocated and
    written by the same code.  Either way the returned block is that
    destination with its int32 ``jobs`` column set.  The parents'
    unscheduled jobs come from one unpack of their packed rows; a child's
    row is its parent's row OR its job's bit, gathered by job from
    :func:`~repro.flowshop.bounds.job_bit_table`.  Rows and release times
    are written :data:`_ROW_CHUNK` rows at a time, the release times by
    one machine scan per chunk from int32 per-job cumulative times, so no
    temporary spans the whole child set.

    ``tables`` are those cumulative times, ``(after, before)`` of
    :func:`~repro.flowshop.schedule.job_cumulative_times` over
    ``processing_times``: a search builds them once and passes them to
    every branching call; without them each call builds its own.
    """
    n_jobs = parents.n_jobs
    bits = parents.mask_bits
    unscheduled = np.unpackbits(~bits, axis=1, count=n_jobs, bitorder="little")
    # one flat scan, split by division: half the cost of a 2-D nonzero
    flat = np.flatnonzero(unscheduled)
    parent_rows = flat // n_jobs
    jobs = (flat - parent_rows * n_jobs).astype(np.int32)
    count = jobs.shape[0]
    if out is None:
        out = NodeBlock.empty(n_jobs, parents.n_machines, parents.trail, count)
    elif len(out) != count:
        raise ValueError(f"destination block has {len(out)} rows for {count} children")
    after, before = tables or job_cumulative_times(processing_times)
    job_bits = job_bit_table(n_jobs)
    for lo in range(0, count, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, count)
        rows, chunk_jobs = parent_rows[lo:hi], jobs[lo:hi]
        np.bitwise_or(
            bits.take(rows, axis=0), job_bits.take(chunk_jobs, axis=0), out=out.mask_bits[lo:hi]
        )
        # gather the parents' fronts straight into the children's rows
        # (mode "clip" writes without a buffer; every row is in range) and
        # scan them there
        release = out.release[lo:hi]
        np.take(parents.release, rows, axis=0, out=release, mode="clip")
        machine_scan(release, chunk_jobs, after, before, out=release)

    np.add(parents.depth[parent_rows], 1, out=out.depth)
    out.lower_bound[:] = NO_BOUND
    leaves = out.depth == n_jobs
    if leaves.any():
        out.lower_bound[leaves] = out.release[leaves, -1]
    out.trail_id[:] = parents.trail.append_batch(parents.trail_id[parent_rows], jobs)
    out.jobs = jobs
    return out


def branch_row(
    mask_row: np.ndarray,
    release_row: np.ndarray,
    depth: int,
    trail_id: int,
    trail: Trail,
    processing_times: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> NodeBlock:
    """All one-job extensions of a single node given as raw rows.

    The one-parent variant of :func:`branch_block` (same children, same
    order, same ``tables``): it takes (views of) the node's packed mask
    row and its release row directly, so no intermediate one-row block is
    materialized.  The rows are fully consumed before this function
    returns.
    """
    n_jobs = processing_times.shape[0]
    unscheduled = np.unpackbits(~mask_row, count=n_jobs, bitorder="little")
    jobs = np.nonzero(unscheduled)[0].astype(np.int32)
    count = jobs.shape[0]
    if count == 0:
        return NodeBlock.empty(n_jobs, release_row.shape[0], trail)

    after, before = tables or job_cumulative_times(processing_times)
    release = machine_scan(release_row, jobs, after, before)

    child_bits = job_bit_table(n_jobs).take(jobs, axis=0)
    child_bits |= mask_row

    child_depth = depth + 1
    lower = (
        release[:, -1].copy()
        if child_depth == n_jobs
        else np.full(count, NO_BOUND, dtype=np.int32)
    )
    return NodeBlock(
        mask_bits=child_bits,
        release=release,
        lower_bound=lower,
        depth=np.full(count, child_depth, dtype=np.int32),
        trail_id=trail.append_batch(trail_id, jobs),
        trail=trail,
        n_jobs=n_jobs,
        jobs=jobs,
    )


def bound_block(data: LowerBoundData, block: NodeBlock, kernel: str = "v2") -> np.ndarray:
    """Bounding operator: evaluate a block in place, with zero re-packing.

    The block's ``(mask_bits, release)`` arrays and its ``jobs`` column
    go to kernel v2 (``get_batch_kernel("v2")``) as they are, in one
    call: below 40 jobs its GEMM body bounds every row from its own mask,
    and from 40 jobs its incremental body bounds the rows from their
    parents' sets.  ``kernel="scalar"`` instead calls
    :func:`repro.flowshop.bounds.lower_bound` once per row — the paper's
    serial baseline.  Values are bit-identical to that scalar bound on
    every row, whatever the kernel, and are also written back into
    ``block.lower_bound``.  A complete row's bound is its makespan, which
    the branching operators already wrote, so the single-step loop never
    bounds a sibling set of complete schedules.
    """
    if kernel not in ("v2", "scalar"):
        raise ValueError(f"kernel must be 'v2' or 'scalar', got {kernel!r}")
    batch = len(block)
    if batch == 0:
        return np.zeros(0, dtype=np.int64)

    bits, release = block.mask_bits, block.release
    if kernel == "scalar":
        # the paper's serial baseline: one scalar bound call per sub-problem
        # and no batch array (the bounding-fraction experiment measures it)
        for row in range(batch):
            block.lower_bound[row] = lower_bound(
                data, np.flatnonzero(unpack_mask(bits[row], block.n_jobs)), release=release[row]
            )
        return block.lower_bound

    # kernel v2 takes the int32 ``release`` column as it is and casts it
    # inside a body; writing through the slice casts the int64 results back
    # into the block's int32 column — the explicit dtype boundary
    block.lower_bound[:] = get_batch_kernel("v2")(data, bits, release, jobs=block.jobs)
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


def check_selection(selection: str) -> str:
    """Return ``selection`` when it is one of :data:`SELECTION_STRATEGIES`.

    Raises ``ValueError`` for any other value; engines and the service
    call it where a selection is given, at construction.
    """
    if selection not in SELECTION_STRATEGIES:
        raise ValueError(
            f"unknown selection strategy {selection!r}; "
            f"choose from {', '.join(SELECTION_STRATEGIES)}"
        )
    return selection


class BlockFrontier:
    """The pending pool as growable parallel arrays.

    Selection works on the classic pool keys — best-first by
    ``(lower_bound, depth, trail_id)``, depth-first by most recent
    ``trail_id``, FIFO by earliest — but pops are array reductions and
    batch selection uses ``argpartition`` / one sort, not per-node heap
    operations.  When the key fields fit their bit budgets (bounds below
    ``2**22``, depths below ``2**9``; trail ids stay below ``2**31`` —
    true for every realistic search), the triple collapses into one
    packed int64 whose numeric order IS the lexicographic pop order, so a
    best-first pop is a single ``argmin`` scan.  Removal is
    swap-compaction (tail rows move into the holes), which is valid
    because selection never depends on storage order.  Columns are stored
    int32 (the packed key stays int64), halving the scan traffic; the two
    2-D columns move as whole rows.

    A tie-batch pop moves nothing: it tombstones its rows (their keys
    become :data:`_KEY_SENTINEL`, which loses every selection) and records
    them, and ``len`` counts live rows only.  One swap-compaction removes
    every recorded row, in O(dead rows), once they outnumber the live rows
    or fill one segment, before the store would grow, and at the top of
    every other method that reads rows by position (the other pops,
    pruning, :meth:`best_lower_bound`, :meth:`reserve`, snapshot capture).

    Selection runs through a segmented min-key index: the store is
    partitioned into fixed ``2**segment_shift``-row segments (4096 by
    default) and each segment's minimum packed key + its row (plus the
    largest trail id, for depth-first/restricted pops) is cached.
    Mutations only *mark* the touched segments dirty; the next selection
    query refreshes the dirty segments and then reduces over ~n/4096
    cached minima instead of scanning all n rows.  Because the packed
    keys are unique (the trail id is), the indexed argmin is
    exactly the linear-scan argmin — selection stays bit-identical, which
    the golden fixtures and ``tests/test_frontier_index.py`` property
    tests pin.  Stores within one segment always scan the key column
    directly, so ``segment_shift=24`` (one segment spans every store) is
    the full-scan oracle the tests and the benchmark compare against.

    The store's rows past ``len(frontier)`` are free.  :meth:`reserve`
    hands them out as a block of views that a batch iteration branches
    into and bounds in place; :meth:`push_block` then admits that block's
    survivors without moving them out of the store.  Until then the
    reserved rows are not part of the frontier.

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

    def __init__(
        self,
        n_jobs: int,
        n_machines: int,
        trail: Trail,
        strategy: str = "best-first",
        capacity: int = 64,
        max_pending: int | None = None,
        segment_shift: int = _SEG_SHIFT,
    ):
        check_selection(strategy)
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 when given")
        if not 1 <= segment_shift <= 24:
            raise ValueError("segment_shift must be in [1, 24]")
        self.strategy = strategy
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
        self._n_jobs = n_jobs
        #: packed scheduled sets, one bit per job (``NodeBlock.mask_bits``)
        self._bits = np.zeros((capacity, (n_jobs + 7) >> 3), dtype=np.uint8)
        self._release = np.zeros((capacity, n_machines), dtype=np.int32)
        self._lb = np.zeros(capacity, dtype=np.int32)
        self._depth = np.zeros(capacity, dtype=np.int32)
        self._tid = np.zeros(capacity, dtype=np.int32)
        #: packed ``(lb << 41) | (depth << 32) | trail_id`` selection key
        self._key = np.zeros(capacity, dtype=np.int64)
        self._packed = n_jobs < (1 << 9)
        #: the store's end: rows ``[0, _size)`` are live or tombstoned
        self._size = 0
        #: tombstoned rows awaiting compaction, one index array per pop
        self._dead: list[np.ndarray] = []
        self._n_dead = 0
        self._max_size = 0
        self._seg_shift = segment_shift
        self._seg_size = 1 << segment_shift
        self._seg_mask = self._seg_size - 1
        #: maintain the trail-id caches only when a depth-ordered pop
        #: is reachable (depth strategy, or best-first under a cap whose
        #: restricted regime pops deepest) — best-first without a cap never
        #: consults them, and skipping them halves the refresh scans
        self._seg_track_order = strategy == "depth-first" or (
            strategy == "best-first" and max_pending is not None
        )
        seg_cap = max(1, (capacity + self._seg_mask) >> segment_shift)
        #: per-segment minimum packed key (int64, like the key column)
        self._seg_key = np.full(seg_cap, _KEY_SENTINEL, dtype=np.int64)
        #: row holding each segment's minimum key (int32 row ids)
        self._seg_krow = np.zeros(seg_cap, dtype=np.int32)
        #: per-segment largest trail id (depth/restricted pops)
        self._seg_omax = np.zeros(seg_cap, dtype=np.int32)
        #: row holding each segment's largest trail id
        self._seg_orow = np.zeros(seg_cap, dtype=np.int32)
        #: segments whose caches must be recomputed before the next query
        self._seg_dirty = np.ones(seg_cap, dtype=bool)
        self._seg_any_dirty = True

    _ARRAYS = ("_bits", "_release", "_lb", "_depth", "_tid", "_key")
    #: the store array behind each :class:`NodeBlock` column
    _COLUMNS = (
        ("_bits", "mask_bits"),
        ("_release", "release"),
        ("_lb", "lower_bound"),
        ("_depth", "depth"),
        ("_tid", "trail_id"),
    )
    _SEG_ARRAYS = ("_seg_key", "_seg_krow", "_seg_omax", "_seg_orow", "_seg_dirty")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size - self._n_dead

    def __bool__(self) -> bool:
        return self._size > self._n_dead

    @property
    def max_size_seen(self) -> int:
        """Largest number of pending nodes observed (memory high-water mark)."""
        return self._max_size

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
        if self._cap is None or self.strategy != "best-first":
            return False
        if self._restricted_now:
            if len(self) < self._low_water:
                self._restricted_now = False
                self.regime_switches += 1
        elif len(self) >= self._cap:
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
        if self._size + extra > self._lb.shape[0]:
            self._compact()
        need = self._size + extra
        if need > self._lb.shape[0]:
            capacity = max(need, 2 * self._lb.shape[0])
            for name in self._ARRAYS:
                old = getattr(self, name)
                new = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
                new[: self._size] = old[: self._size]
                setattr(self, name, new)
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
    def reserve(self, count: int) -> NodeBlock:
        """The ``count`` free rows past the store's end, as a block of views.

        The store grows as a push of ``count`` rows would grow it.  The
        rows stay outside the frontier (selection, pruning, snapshots and
        ``len`` do not see them) until :meth:`push_block` admits the
        block's survivors where they lie.  The views are valid until the
        next call that changes the store.
        """
        self._compact()
        self._ensure(count)
        lo, hi = self._size, self._size + count
        views = {column: getattr(self, store)[lo:hi] for store, column in self._COLUMNS}
        return NodeBlock(**views, trail=self._trail, n_jobs=self._n_jobs)

    def _is_reserved(self, block: NodeBlock) -> bool:
        """True when every column of ``block`` is the store's rows from its end on."""
        lo = self._size
        for store_name, column_name in self._COLUMNS:
            store, column = getattr(self, store_name), getattr(block, column_name)
            if column.base is not store or column.ctypes.data != store[lo:].ctypes.data:
                return False
        return True

    def push_block(self, block: NodeBlock, keep: np.ndarray | None = None) -> None:
        """Insert a block of nodes (bulk append).

        ``keep`` optionally selects a boolean subset of the block's rows —
        a fused elimination + insertion that avoids materializing the
        survivor block.

        A block may live anywhere: in its own arrays (copied in), or in
        the store's free rows that :meth:`reserve` handed out, where its
        survivors are kept as they lie.  Either way they move by one
        forward copy, :data:`_ROW_CHUNK` survivors at a time through
        bounded temporaries.  In the store a survivor only moves toward
        the store's start, so a chunk never overwrites the sources of a
        later one, and chunks already in place are skipped.
        """
        in_place = self._is_reserved(block)
        if keep is None:
            rows = None
            count = len(block)
        else:
            rows = np.flatnonzero(keep)
            count = rows.shape[0]
        if count == 0:
            return
        if not in_place:
            self._ensure(count)
        lo, hi = self._size, self._size + count
        columns = [(getattr(self, name), getattr(block, column)) for name, column in self._COLUMNS]
        for start in range(0, count, _ROW_CHUNK):
            stop = min(start + _ROW_CHUNK, count)
            if rows is None:
                if in_place:
                    break
                for store, column in columns:
                    store[lo + start : lo + stop] = column[start:stop]
            elif in_place and rows[stop - 1] == stop - 1:
                continue  # survivors 0..stop-1 all kept: already in their rows
            else:
                src = rows[start:stop]
                for store, column in columns:
                    store[lo + start : lo + stop] = column.take(src, axis=0)
        if self._packed:
            # trail ids need no check: the Trail refuses ids from 2**31 - 1
            lb = self._lb[lo:hi]
            if int(lb.min()) < 0 or int(lb.max()) >= (1 << 22):
                self._packed = False
            else:
                for start in range(lo, hi, _ROW_CHUNK):
                    stop = min(start + _ROW_CHUNK, hi)
                    key = self._key[start:stop]
                    key[:] = self._lb[start:stop]
                    key <<= 41
                    key |= self._depth[start:stop].astype(np.int64) << 32
                    key |= self._tid[start:stop]
        shift = self._seg_shift
        self._seg_dirty[lo >> shift : ((hi - 1) >> shift) + 1] = True
        self._seg_any_dirty = True
        self._size = hi
        if hi - self._n_dead > self._max_size:
            self._max_size = hi - self._n_dead

    # ------------------------------------------------------------------ #
    # Segmented min-key index.  Mutations mark touched segments dirty (see
    # push_block/discard/_remove/prune_to); queries call _seg_refresh()
    # first and then reduce over the per-segment caches.  Key caches are
    # only maintained while the packed key is valid; the trail-id caches
    # are maintained whenever a depth-ordered pop is reachable.

    def _n_segments(self) -> int:
        return (self._size + self._seg_mask) >> self._seg_shift

    def _seg_active(self) -> bool:
        """True when selection should consult the segment caches.

        Stores within a single segment scan directly: the cache reduces
        nothing there, and skipping it keeps tiny searches on the exact
        legacy code path.
        """
        return self._size > self._seg_size

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
                packed, key, tid = self._packed, self._key, self._tid
                track = self._seg_track_order
                seg_key, seg_krow = self._seg_key, self._seg_krow
                seg_omax, seg_orow = self._seg_omax, self._seg_orow
                for s in dirty.tolist():
                    lo = s << shift
                    hi = lo + seg_size
                    if hi > size:
                        hi = size
                    if track:
                        oseg = tid[lo:hi]
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
                oview = self._tid[:span].reshape(nf, seg_size)
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
                oseg = self._tid[lo:size]
                j = int(np.argmax(oseg))
                self._seg_omax[nf] = oseg[j]
                self._seg_orow[nf] = lo + j
            if self._packed:
                kseg = self._key[lo:size]
                i = int(np.argmin(kseg))
                self._seg_key[nf] = kseg[i]
                self._seg_krow[nf] = lo + i

    def _seg_slices(self, segs: np.ndarray) -> list[tuple[int, int]]:
        """``(lo, hi)`` row ranges of the given segments.

        Each is clipped to the store's end: rows past it hold stale keys.
        """
        size, seg_size = self._size, self._seg_size
        return [(lo, min(lo + seg_size, size)) for lo in (segs << self._seg_shift).tolist()]

    def _rows_below(self, segs: np.ndarray, bound: int) -> np.ndarray:
        """Rows of the given segments whose key is below ``bound``, read
        through one contiguous key slice per segment."""
        key = self._key
        parts = [np.flatnonzero(key[lo:hi] < bound) + lo for lo, hi in self._seg_slices(segs)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # ------------------------------------------------------------------ #
    def _pop_one_index(self) -> int:
        """Row index of the single next node according to the strategy."""
        size = self._size
        if self.strategy == "depth-first" or self.restricted:
            if self._seg_active():
                self._seg_refresh()
                s = int(self._seg_omax[: self._n_segments()].argmax())
                return int(self._seg_orow[s])
            return int(np.argmax(self._tid[:size]))
        if self.strategy == "fifo":
            return int(np.argmin(self._tid[:size]))
        if self._packed:
            # the packed key's numeric order IS the heap's lexicographic
            # (lb, depth, trail_id) order: one argmin — over ~n/4096 cached
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
        # resolve ties by (depth, trail_id), exactly like the heap key
        sub = np.lexsort((self._tid[candidates], self._depth[candidates]))
        return int(candidates[sub[0]])

    def _pop_order(self) -> np.ndarray:
        """All pending rows, sorted in the strategy's pop order."""
        size = self._size
        if self.strategy == "depth-first" or self.restricted:
            return np.argsort(self._tid[:size], kind="stable")[::-1]
        if self.strategy == "fifo":
            return np.argsort(self._tid[:size], kind="stable")
        if self._packed:
            return np.argsort(self._key[:size])
        return np.lexsort((self._tid[:size], self._depth[:size], self._lb[:size]))

    def _best_prefix(self, count: int) -> np.ndarray:
        """The first ``count`` rows in best-first pop order.

        Packed stores use ``argpartition`` over the key column; with the
        segmented index live, only the segments that can contribute to the
        ``count`` smallest keys are read: the ``count``-th smallest key of
        the segments that first hold ``count`` rows in cached-minimum
        order bounds the answer (a segment whose cached minimum exceeds it
        cannot hold any of the ``count`` smallest), and the partition runs
        over the rows at or below it only.  Keys are unique, so the result
        is bit-identical to partitioning the whole store.  Callers compact
        first: every row below the store's end is live.
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
                take = int(np.searchsorted(np.cumsum(sizes[by_min]), count)) + 1
                keys = np.concatenate(
                    [self._key[lo:hi] for lo, hi in self._seg_slices(by_min[:take])]
                )
                kth = int(np.partition(keys, count - 1)[count - 1])
                reach = int(np.searchsorted(seg_min[by_min], kth, side="right"))
                rows = self._rows_below(by_min[:reach], kth + 1)
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

        The batch is cut to a key-ordered prefix, which is again the
        one-at-a-time pop sequence, in three cases, one node always going:

        * ``budget_remaining`` is the caller's ``max_nodes`` headroom: a
          processed node can add up to ``1 + n_unscheduled`` to the
          explored count (itself plus all of its children pruned), so the
          batch stops at the size that provably cannot cross the budget
          between member pops (the one-at-a-time engine also re-checks its
          budget only between pops);
        * the members' children stay within :data:`_STEP_CHILD_ROWS`, so
          one step's launch and the budget checks between steps keep
          their pace however wide the tie grows;
        * under a ``max_pending`` cap, at most ``(cap - len) //
          (n_unscheduled - 1)`` members go, so the store cannot reach the
          cap between member pops, where one-at-a-time pops would turn
          depth-first.

        The popped rows are tombstoned in place (see the class docstring).

        Only valid for the best-first strategy with packed keys; returns
        ``None`` when unavailable (caller falls back to single pops) —
        including while a ``max_pending`` cap holds selection in its
        depth-first-restricted regime (check :attr:`restricted` first to
        distinguish a pause from permanent unavailability).
        """
        if self.strategy != "best-first" or not self._packed or not self or self.restricted:
            return None
        if self._seg_active():
            # only segments whose cached minimum sits below the tie
            # threshold can hold tie members — read those segments only
            self._seg_refresh()
            seg_min = self._seg_key[: self._n_segments()]
            min_key = int(seg_min.min())
            threshold = ((min_key >> 32) + 1) << 32
            candidates = self._rows_below(np.flatnonzero(seg_min < threshold), threshold)
        else:
            keys = self._key[: self._size]
            min_key = int(keys.min())
            candidates = np.flatnonzero(keys < ((min_key >> 32) + 1) << 32)
        if candidates.shape[0] > 1:
            children = max(1, self._n_jobs - ((min_key >> 32) & 0x1FF))
            limit = _STEP_CHILD_ROWS // children
            if budget_remaining is not None:
                limit = min(limit, budget_remaining // (1 + children))
            if self._cap is not None and children > 1:
                limit = min(limit, (self._cap - len(self)) // (children - 1))
            limit = max(1, limit)
            keys = self._key[candidates]
            if candidates.shape[0] > limit:
                # the prefix's members only, not the whole tie, are sorted
                part = np.argpartition(keys, limit - 1)[:limit]
                candidates, keys = candidates[part], keys[part]
            candidates = candidates[np.argsort(keys)]
        block = self._extract(candidates)
        self._key[candidates] = _KEY_SENTINEL
        self._seg_dirty[candidates >> self._seg_shift] = True
        self._seg_any_dirty = True
        self._dead.append(candidates)
        self._n_dead += candidates.shape[0]
        if self._n_dead > len(self) or self._n_dead >= self._seg_size:
            self._compact()
        return block

    def peek_best(self) -> int:
        """Row index of the next node to pop (no removal).

        With :meth:`row_view` and :meth:`discard` this forms a zero-copy
        pop: read the row in place, branch from the views, then discard
        the row — no one-row block is ever materialized (the paper
        protocol's loop in :mod:`repro.experiments.protocol` pops this way;
        the driver's one-node pops are ``pop_batch(1)``).
        """
        self._compact()
        if self._size == 0:
            raise IndexError("peek at an empty frontier")
        return self._pop_one_index()

    def row_view(self, row: int) -> tuple[int, int, int, np.ndarray, np.ndarray]:
        """``(lb, depth, trail_id, mask_view, release_view)`` of a row.

        ``mask_view`` is the row's packed scheduled set (what
        :func:`branch_row` takes).  The two array views alias the
        frontier's storage: they are valid only until the next
        :meth:`discard` / :meth:`push_block` call.
        """
        self._compact()
        return (
            int(self._lb[row]),
            int(self._depth[row]),
            int(self._tid[row]),
            self._bits[row],
            self._release[row],
        )

    def discard(self, row: int) -> None:
        """Remove one row (swap-compaction with the last row)."""
        self._compact()
        last = self._size - 1
        if row != last:
            for name in self._ARRAYS:
                array = getattr(self, name)
                array[row] = array[last]
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
            mask_bits=self._bits.take(rows, axis=0),
            release=self._release.take(rows, axis=0),
            lower_bound=self._lb[rows],
            depth=self._depth[rows],
            trail_id=self._tid[rows],
            trail=self._trail,
            n_jobs=self._n_jobs,
        )

    def _compact(self) -> None:
        """Swap-compact every tombstoned row out of the store, in one pass."""
        if self._n_dead:
            dead = self._dead[0] if len(self._dead) == 1 else np.concatenate(self._dead)
            self._dead, self._n_dead = [], 0
            self._remove(dead)

    def _remove(self, rows: np.ndarray) -> None:
        """Swap-compact the given (distinct) rows out of the store.

        The surviving tail rows fill the holes, whole rows at a time; a
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
                array = _whole_rows(getattr(self, name))
                array[holes] = array[tail_keep]
        if count:
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
        self._compact()
        size = self._size
        if size == 0:
            return (
                NodeBlock.empty(self._n_jobs, self._release.shape[1], self._trail),
                0,
            )
        if max_nodes == 1 and upper_bound is None:
            # one row: slice copies and one swap-compaction, no index gathers
            row = self._pop_one_index()
            rows = slice(row, row + 1)
            block = NodeBlock(
                mask_bits=self._bits[rows].copy(),
                release=self._release[rows].copy(),
                lower_bound=self._lb[rows].copy(),
                depth=self._depth[rows].copy(),
                trail_id=self._tid[rows].copy(),
                trail=self._trail,
                n_jobs=self._n_jobs,
            )
            self.discard(row)
            return block, 0

        if self.strategy == "best-first" and not self.restricted:
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
                            (self._tid[fresh_rows], self._depth[fresh_rows], self._lb[fresh_rows])
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
        self._remove(popped)
        return block, int(popped.shape[0] - selected.shape[0])

    def prune_to(self, upper_bound: float) -> int:
        """Drop pending nodes whose bound cannot improve ``upper_bound``.

        Mask compaction over the whole store; returns the number removed.
        """
        self._compact()
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
                array[:kept] = array.take(rows, axis=0)
            self._size = kept
            # mask compaction moves every surviving row: rebuild the
            # caches of all surviving segments on the next query
            self._seg_dirty[: ((size - 1) >> self._seg_shift) + 1] = True
            self._seg_any_dirty = True
        return removed

    def best_lower_bound(self) -> int | None:
        """Smallest pending lower bound (``None`` when empty)."""
        self._compact()
        if self._size == 0:
            return None
        if self._packed and self._seg_active():
            self._seg_refresh()
            # lb occupies the key's top bits, so the minimal key carries it
            return int(self._seg_key[: self._n_segments()].min() >> 41)
        return int(self._lb[: self._size].min())

