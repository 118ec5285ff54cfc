"""Deterministic data-motion plans shared by master and workers.

SPMD execution only works if every process derives *the same* plan
from the same distribution metadata: the sender enumerates the
elements it ships to each peer in exactly the order the receiver
expects them.  This module holds those pure planning functions:

- :class:`RedistributionPlan` — the DISTRIBUTE plan both backends
  execute and the master accounts: the transfer matrix and, per
  (source, destination) processor pair, the selectors of the moved
  rectangle in the old and the new local segment, composed from
  per-dimension tables (a redistribution is a product of per-dimension
  index sets);
- :func:`transfer_plan` — its per-element oracle: the same pairs as
  ascending global flat indices, read off the flattened rank maps
  (tests, ``repro.perf``'s reference column and experiment E4 only);
- :func:`shift_plan` / :func:`halo_dest_slice` — the halo-exchange
  plan :func:`~repro.runtime.communication.post_shift` accounts, as
  data so both the in-process path and the worker op can execute it;
- :class:`PlanCache` — the store that keeps all of the above
  ("inspector once, executor many", §3.2.1); every machine has one.

The planning functions are metadata-only: no numpy payload moves, no
machine state is touched, and all outputs are picklable.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..core.interning import LRUCache, owners_cache_stats
from ..obs import metrics as _obs

if TYPE_CHECKING:  # avoid importing upper layers at run time
    from ..core.distribution import Distribution

__all__ = [
    "PlanCache",
    "RedistributionPlan",
    "transfer_plan",
    "oracle_matrix",
    "shift_plan",
    "halo_dest_slice",
    "SweepPlan",
    "sweep_plan",
]


def transfer_plan(
    old: "Distribution", new: "Distribution", nprocs: int
) -> list[tuple[int, int, np.ndarray]]:
    """Per-pair element index sets of a redistribution.

    Returns ``[(src, dst, gflat_indices), ...]`` where data is sourced
    from the *old primary* owner and delivered to *every* new owner
    (one entry group per replica rank map, matching
    :func:`~repro.runtime.redistribute.transfer_matrix`); ``src ==
    dst`` entries are the elements a processor keeps locally.  Index
    arrays are ascending; entry order is deterministic, so sender and
    receiver agree on message order by construction.
    """
    if old.domain != new.domain:
        raise ValueError(
            f"redistribution must preserve the index domain: "
            f"{old.domain!r} vs {new.domain!r}"
        )
    src = np.asarray(old.rank_map()).ravel().astype(np.int64)
    entries: list[tuple[int, int, np.ndarray]] = []
    for new_rm in new.owner_rank_maps():
        dst = np.asarray(new_rm).ravel().astype(np.int64)
        pair = src * nprocs + dst
        order = np.argsort(pair, kind="stable")
        sorted_pair = pair[order]
        cuts = np.nonzero(np.diff(sorted_pair))[0] + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [len(pair)]))
        for st, en in zip(starts, ends):
            s, d = divmod(int(sorted_pair[st]), nprocs)
            entries.append((s, d, np.sort(order[st:en])))
    return entries


def oracle_matrix(old: "Distribution", new: "Distribution", nprocs: int) -> np.ndarray:
    """The reference transfer matrix: :func:`transfer_plan`'s entry
    lengths for ``src != dst``."""
    T = np.zeros((nprocs, nprocs), dtype=np.int64)
    for s, d, gidx in transfer_plan(old, new, nprocs):
        if s != d:
            T[s, d] += len(gidx)
    return T


def _local_positions(owners: np.ndarray, nslots: int) -> np.ndarray:
    """Where each index of a dimension sits in its owner slot's sorted
    index list (the per-dimension ``loc_map``)."""
    order = np.argsort(owners, kind="stable")
    sizes = np.bincount(owners, minlength=nslots)
    starts = np.cumsum(sizes) - sizes
    positions = np.empty(len(owners), dtype=np.int64)
    positions[order] = np.arange(len(owners)) - starts[owners[order]]
    return positions


def selector(positions: list) -> slice | np.ndarray:
    """Ascending ``positions`` as a slice if they are an arithmetic
    progression (an empty list included), as an index array otherwise."""
    if not positions:
        return slice(0, 0, 1)
    first, last = positions[0], positions[-1]
    step = positions[1] - first if len(positions) > 1 else 1
    if positions == list(range(first, last + 1, step)):
        return slice(first, last + 1, step)
    return np.array(positions)


def subscript(selectors: tuple) -> tuple:
    """One subscript from per-dimension selectors: basic slicing when
    all are slices, an open mesh of index arrays otherwise (never a
    slice beside an array: numpy would transpose the result)."""
    for sel in selectors:
        if type(sel) is not slice:
            return np.ix_(*(
                np.arange(sel.start, sel.stop, sel.step) if type(sel) is slice else sel
                for sel in selectors
            ))
    return selectors


class RedistributionPlan:
    """The plan of one ``(old, new, nprocs)`` redistribution — what the
    master accounts and what either backend executes.

    Every intrinsic distributes dimensions independently, so what one
    processor sends another is the Cartesian product of per-dimension
    index sets and its size the product of per-dimension counts.  The
    plan is composed from per-dimension slot-pair tables through each
    rank's slots: O(sum of extents + nprocs^2), never O(elements).
    :func:`transfer_plan` is the per-element oracle it is tested
    against.

    Attributes
    ----------
    matrix:
        ``(nprocs, nprocs)`` int64 element counts, ``matrix[s, d]`` what
        ``s`` sends ``d``; the diagonal is zero.  Data is sourced from
        the old *primary* owner; every replica of a replicated target
        receives a copy.
    moved / kept:
        ``matrix.sum()`` and the number of elements whose primary owner
        does not change.
    moves:
        ``[(src, dst, old_selectors, new_selectors), ...]`` in
        :func:`transfer_plan`'s entry order, ``src == dst`` for what a
        rank keeps: ``new_segment[new_selectors] =
        old_segment[old_selectors]``.  A selector tuple subscripts the
        *shaped* local segment — one ``slice`` per dimension, or an
        ``np.ix_`` mesh when any dimension needs an index array — and
        both enumerate the same elements in ascending global order, so
        sender and receiver agree by construction.  Built on first use:
        cost models read only the matrix.
    """

    def __init__(self, old: "Distribution", new: "Distribution", nprocs: int):
        if old.domain != new.domain:
            raise ValueError(
                f"redistribution must preserve the index domain: "
                f"{old.domain!r} vs {new.domain!r}"
            )
        self.old, self.new = old, new
        self._owners = list(zip(old.owner_maps(), new.owner_maps()))
        # one row per sending / column per receiving rank of the sections
        senders, receivers = old.ranks(), new.ranks()
        src_slots = np.array([old.slots_of(r) for r in senders])
        dst_slots = np.array([new.slots_of(r) for r in receivers])
        senders, receivers = np.array(senders)[:, None], np.array(receivers)
        full = np.ones((len(senders), len(receivers)), dtype=np.int64)
        primary = np.ones_like(full)
        for dim, (src, dst) in enumerate(self._owners):
            po, pn = old.slots_along(dim), new.slots_along(dim)
            # a replicated source sends from its primary slot only;
            # every slot of a replicated target gets what slot 0 gets
            counts = np.bincount(src * pn + dst, minlength=po * pn).reshape(po, pn)
            pairs = src_slots[:, dim, None], dst_slots[:, dim]
            primary *= counts[pairs]
            if not new.dtype.dims[dim].exclusive:
                counts = np.repeat(counts[:, :1], pn, axis=1)
            full *= counts[pairs]
        self.kept = int(primary[senders == receivers].sum())
        self.matrix = np.zeros((nprocs, nprocs), dtype=np.int64)
        self.matrix[senders, receivers] = full
        #: non-empty (src, dst) pairs, kept ones included
        self._pairs = np.argwhere(self.matrix).tolist()
        np.fill_diagonal(self.matrix, 0)
        self.moved = int(self.matrix.sum())

    def _selectors(self, dim: int, src: np.ndarray, dst: np.ndarray) -> dict:
        """``(old slot, new slot) -> (old, new)`` local selectors of the
        non-empty slot pairs along ``dim``, from its two owner vectors;
        O(n log n) in its extent."""
        n = len(src)
        po, pn = self.old.slots_along(dim), self.new.slots_along(dim)
        if po == pn == 1:  # ':' on both sides, the commonest dimension:
            # it stays whole (and a cold plan skips three sorts)
            return {(0, 0): (slice(0, n, 1), slice(0, n, 1))}
        src_pos = _local_positions(src, po)
        if self.new.dtype.dims[dim].exclusive:
            targets = [(dst, _local_positions(dst, pn))]
        else:  # every slot holds the whole dimension
            everything = np.arange(n)
            targets = [(np.full(n, b), everything) for b in range(pn)]
        selectors = {}
        for dst, dst_pos in targets:
            pair = src * pn + dst
            order = np.argsort(pair, kind="stable")  # global indices ascend
            pair = pair[order]
            cuts = [0, *(np.flatnonzero(np.diff(pair)) + 1).tolist(), n]
            slots = pair.tolist()
            old_pos, new_pos = src_pos[order].tolist(), dst_pos[order].tolist()
            for lo, hi in zip(cuts, cuts[1:]):
                selectors[divmod(slots[lo], pn)] = (
                    selector(old_pos[lo:hi]), selector(new_pos[lo:hi])
                )
        return selectors

    @cached_property
    def moves(self) -> list:
        old, new = self.old, self.new
        tables = [self._selectors(dim, *vecs) for dim, vecs in enumerate(self._owners)]
        # transfer_plan's order: one group of ascending (src, dst) per
        # combination of replica slots of the target
        replicated = [
            dim for dim, dd in enumerate(new.dtype.dims) if not dd.exclusive
        ]
        entries = sorted(
            ([new.slots_of(d)[dim] for dim in replicated], s, d)
            for s, d in self._pairs
        )
        moves = []
        for _, s, d in entries:
            old_sel, new_sel = zip(*(
                table[a, b]
                for table, a, b in zip(tables, old.slots_of(s), new.slots_of(d))
            ))
            moves.append((s, d, subscript(old_sel), subscript(new_sel)))
        return moves


# -- halo exchange planning ------------------------------------------------

def shift_plan(
    dist: "Distribution", dim: int, width: int
) -> list[tuple[int, int, str, tuple[slice, ...], int]]:
    """The slab-exchange plan of one boundary shift along ``dim``.

    Returns ``[(src, dst, key, src_slices, count), ...]``: ``src``
    sends the ``src_slices`` slab of its local segment to ``dst``,
    which stores it as its ``key`` (``"lo"``/``"hi"``) halo; ``count``
    is the slab's element count.
    """
    if width < 1:
        raise ValueError("exchange width must be >= 1")
    segs: dict[int, tuple[tuple[int, int], ...]] = {}
    for rank in dist.owning_ranks:  # parent ranks, not range(section size)
        seg = dist.segment(rank)
        if seg is None:
            raise ValueError(
                f"not contiguously distributed on processor {rank}; "
                f"shift exchange requires BLOCK-family distributions"
            )
        segs[rank] = seg

    ndim = len(dist.shape)
    entries: list[tuple[int, int, str, tuple[slice, ...], int]] = []
    for rank, seg in segs.items():
        lo, hi = seg[dim]
        n = hi - lo  # > 0: the rank owns elements
        cross = dist.local_size(rank) // n
        w = min(width, n)
        for other, oseg in segs.items():
            olo, ohi = oseg[dim]
            if other == rank:
                continue
            if any(
                seg[d] != oseg[d] for d in range(ndim) if d != dim
            ):
                continue
            if ohi == lo:
                # other is the lower neighbour: our low slab is its "hi"
                key, slab = "hi", slice(0, w)
            elif olo == hi:
                # other is the upper neighbour: our high slab is its "lo"
                key, slab = "lo", slice(n - w, n)
            else:
                continue
            sl = [slice(None)] * ndim
            sl[dim] = slab
            entries.append((rank, other, key, tuple(sl), w * cross))
    return entries


class SweepPlan:
    """Grouped line-ownership plan of one distributed line sweep.

    A line sweep along array dimension ``dim`` touches one line per
    index combination of the *other* dimensions.  Because every
    intrinsic distributes dimensions independently, two lines whose
    other-dimension indices land on the same processor slots have
    *identical* ownership structure — so instead of slicing the rank
    map and running ``np.unique`` per line (the per-element reference),
    the plan computes head, piece counts and message templates once per
    *group* (at most ``prod(slots)`` groups) and maps each line to its
    group.

    Attributes
    ----------
    group_of_line:
        int64 array, one entry per line in row-major (product) order
        over the other dimensions — the group index of that line.
    head:
        per group, the rank owning the line's first element (where the
        solve runs).
    remote:
        per group, whether the line spans more than one owner.
    gather / scatter:
        per group, the ``(src, dst, element_count)`` message template
        of one line's gather-to-head / scatter-back (ascending peer
        rank — the ``np.unique`` order of the reference).
    """

    __slots__ = ("dim", "n_line", "group_of_line", "head", "remote",
                 "gather", "scatter")

    def __init__(self, dim, n_line, group_of_line, head, remote, gather, scatter):
        self.dim = dim
        self.n_line = n_line
        self.group_of_line = group_of_line
        self.head = head
        self.remote = remote
        self.gather = gather
        self.scatter = scatter



def sweep_plan(dist: "Distribution", dim: int) -> SweepPlan:
    """Build the :class:`SweepPlan` of sweeping ``dist`` along ``dim``.

    Requires array dimension ``dim`` to consume a processor dimension
    (a sweep along an undistributed dimension is communication-free
    and needs no plan).
    """
    shape = dist.shape
    ndim = len(shape)
    if not dist.dtype.dims[dim].consumes_proc_dim:
        raise ValueError(f"dimension {dim} is not distributed")
    other_dims = [d for d in range(ndim) if d != dim]
    maps = dist.owner_maps()  # per-dim primary slot vectors (read-only)
    slots = [dist.slots_along(d) for d in range(ndim)]

    # group id per line, row-major over the other dimensions
    group_shape = tuple(slots[d] for d in other_dims)
    if other_dims:
        grids = np.meshgrid(*(maps[d] for d in other_dims), indexing="ij")
        group_of_line = np.ravel_multi_index(
            tuple(g.ravel() for g in grids), group_shape
        ).astype(np.int64)
    else:
        group_of_line = np.zeros(1, dtype=np.int64)
        group_shape = ()

    # per-group line-rank vectors: the group's other-dim slots (a
    # column each) broadcast against dim's owner vector (a row)
    ngroups = int(np.prod(group_shape, dtype=np.int64)) if group_shape else 1
    group_mi = np.unravel_index(np.arange(ngroups), group_shape or (1,))
    line_slots: list = [None] * ndim
    line_slots[dim] = maps[dim].reshape(1, -1)
    for pos, d in enumerate(other_dims):
        line_slots[d] = group_mi[pos].reshape(-1, 1)
    line_ranks = dist.slot_ranks(line_slots)

    head = np.ascontiguousarray(line_ranks[:, 0]).astype(np.int64)
    remote = np.zeros(ngroups, dtype=bool)
    gather: list[list[tuple[int, int, int]]] = []
    scatter: list[list[tuple[int, int, int]]] = []
    for g in range(ngroups):
        qs, counts = np.unique(line_ranks[g], return_counts=True)
        h = int(head[g])
        remote[g] = len(qs) > 1
        gather.append(
            [(int(q), h, int(c)) for q, c in zip(qs, counts) if int(q) != h]
        )
        scatter.append(
            [(h, int(q), int(c)) for q, c in zip(qs, counts) if int(q) != h]
        )
    return SweepPlan(
        dim, shape[dim], group_of_line, head, remote, gather, scatter
    )


def halo_dest_slice(
    local_shape: tuple[int, ...],
    widths: tuple[int, ...],
    dim: int,
    key: str,
) -> tuple[slice, ...]:
    """Where a received slab lands inside the halo-padded buffer."""
    sl = [
        slice(w, w + s) for s, w in zip(local_shape, widths)
    ]
    w = widths[dim]
    if key == "lo":
        sl[dim] = slice(0, w)
    elif key == "hi":
        n = local_shape[dim]
        sl[dim] = slice(w + n, 2 * w + n)
    else:
        raise ValueError(f"halo key must be 'lo' or 'hi', got {key!r}")
    return tuple(sl)


# -- the plan store ----------------------------------------------------------

_PLAN_CACHE_LOOKUPS = _obs.counter(
    "repro_plan_cache_lookups_total",
    "PlanCache lookups across every plan family, by outcome.",
    ("result",),
)

#: entries per plan family of a store
PLAN_CACHE_CAPACITY = 256


class PlanCache:
    """Memoized redistribution plans (§3.2: "run time optimization of
    communication related to dynamic array references").

    A phase-alternating program (the ADI outer loop, PIC with a small
    set of recurring BOUNDS) redistributes between the *same* pairs of
    distributions over and over; the transfer matrix depends only on
    the (old, new) pair, so the run time caches it instead of
    recomputing the owner maps each time.  The cache is keyed by the
    bound distributions (hashable by construction); each plan family
    (redistribution plans, halo shift plans, sweep plans) lives in its
    own ``capacity``-bounded LRU store.

    Which store a lookup reaches: the one on its machine,
    :attr:`Machine.plans <repro.machine.machine.Machine.plans>` — a
    fresh one per machine unless a :class:`~repro.api.Session` (or the
    ``repro.serve`` pool, across sessions) assigned its own.  A shared
    store is looked up from many threads, so lookups and the hit/miss
    totals are guarded by a lock.  Plan computation runs
    outside the lock (plans are pure functions of the key, so a racing
    duplicate compute is benign and cannot corrupt the cache).
    """

    def __init__(self, capacity: int = PLAN_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._plans = LRUCache(capacity)
        self._shifts = LRUCache(capacity)
        self._sweeps = LRUCache(capacity)
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def _memo(self, store: LRUCache, key, compute) -> tuple:
        """One lookup against a plan store, counted on the cache-wide
        hit/miss totals (the per-store LRU counters are not used):
        the plan, and whether the store already held it."""
        with self._lock:
            value = store.get(key)
            if value is not None:
                self.hits += 1
                _PLAN_CACHE_LOOKUPS.inc(result="hit")
                return value, True
            self.misses += 1
        _PLAN_CACHE_LOOKUPS.inc(result="miss")
        value = compute()
        store.put(key, value)
        return value, False

    def lookup(
        self, old: "Distribution", new: "Distribution", nprocs: int
    ) -> tuple[RedistributionPlan, bool]:
        """One lookup of a DISTRIBUTE plan — what the master accounts
        and what either backend executes — and whether it was a hit."""
        return self._memo(
            self._plans,
            (old, new, nprocs),
            lambda: RedistributionPlan(old, new, nprocs),
        )

    def redistribution(
        self, old: "Distribution", new: "Distribution", nprocs: int
    ) -> RedistributionPlan:
        """Memoized DISTRIBUTE plan."""
        return self.lookup(old, new, nprocs)[0]

    def transfer_matrix(
        self, old: "Distribution", new: "Distribution", nprocs: int
    ) -> np.ndarray:
        return self.redistribution(old, new, nprocs).matrix

    def shift_plan(self, dist: "Distribution", dim: int, width: int) -> list:
        """Memoized halo slab-exchange plan, keyed by (distribution,
        dimension, width) — the slice plan every stencil step reuses
        instead of re-deriving neighbour slabs (see :func:`shift_plan`)."""
        return self._memo(
            self._shifts,
            (dist, int(dim), int(width)),
            lambda: shift_plan(dist, dim, width),
        )[0]

    def sweep_plan(self, dist: "Distribution", dim: int) -> SweepPlan:
        """Memoized grouped line-sweep plan, keyed by (distribution,
        dimension) (see :func:`sweep_plan`)."""
        return self._memo(
            self._sweeps,
            (dist, int(dim)),
            lambda: sweep_plan(dist, dim),
        )[0]

    def stats(self) -> dict[str, int]:
        """Hit/miss counters, cache populations, and the shared
        owner-map LRU counters (``owners_vec_*`` / ``rank_map_*`` —
        process-wide, see :mod:`repro.core.interning`)."""
        with self._lock:
            out = {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": sum(
                    store.evictions
                    for store in (self._plans, self._shifts, self._sweeps)),
                "plans": len(self._plans),
                "shift_plans": len(self._shifts),
                "sweep_plans": len(self._sweeps),
            }
        out.update(owners_cache_stats())
        return out

    def clear(self) -> None:
        with self._lock:
            for store in (self._plans, self._shifts, self._sweeps):
                store.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)
