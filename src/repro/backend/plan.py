"""Deterministic data-motion plans shared by master and workers.

SPMD execution only works if every process derives *the same* plan
from the same distribution metadata: the sender enumerates the
elements it ships to each peer in exactly the order the receiver
expects them.  This module holds those pure planning functions:

- :func:`transfer_plan` — the redistribution plan: for each (source,
  destination) processor pair, the ascending global flat indices of
  the elements the old primary owner sends to each new owner (the
  per-pair expansion of the run time's transfer matrix — summing the
  index counts for ``s != d`` reproduces ``transfer_matrix`` exactly);
- :func:`segment_moves` — the same plan lowered to per-processor
  *local segment positions* (what a worker actually indexes);
- :func:`shift_plan` / :func:`halo_dest_slice` — the halo-exchange
  plan of :func:`~repro.runtime.communication.shift_exchange`, as
  data so both the in-process path and the worker op can execute it.

Everything here is metadata-only: no numpy payload moves, no machine
state is touched, and all outputs are picklable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid importing upper layers at run time
    from ..core.distribution import Distribution

__all__ = [
    "segment_gflat",
    "transfer_plan",
    "segment_moves",
    "SegmentMoves",
    "shift_plan",
    "halo_dest_slice",
    "SweepPlan",
    "sweep_plan",
]


def segment_gflat(dist: "Distribution", rank: int) -> np.ndarray:
    """Global flat (C-order) indices of ``rank``'s segment, in the
    segment's own C storage order.

    This is the bridge between a worker's local buffer and global
    index space: position ``i`` of the flattened local segment holds
    global element ``segment_gflat(dist, rank)[i]``.
    """
    if dist.local_size(rank) == 0:  # owns nothing, or outside the section
        return np.empty(0, dtype=np.int64)
    idx = np.ix_(*dist.local_index_arrays(rank))
    return np.ravel_multi_index(idx, dist.shape).ravel().astype(np.int64)


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


class SegmentMoves:
    """One processor's share of a redistribution, in local positions.

    ``sends``/``recvs`` are ``(peer, positions)`` lists in plan order —
    positions index the *flattened* old/new local segment; ``keeps``
    are ``(old_positions, new_positions)`` pairs copied locally.
    """

    __slots__ = ("rank", "sends", "recvs", "keeps")

    def __init__(self, rank: int):
        self.rank = rank
        self.sends: list[tuple[int, np.ndarray]] = []
        self.recvs: list[tuple[int, np.ndarray]] = []
        self.keeps: list[tuple[np.ndarray, np.ndarray]] = []


def _positions(
    dist: "Distribution",
    rank: int,
    gidx: np.ndarray,
    cache: dict[int, tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Local flat positions of the global flat indices ``gidx`` inside
    ``rank``'s segment (robust to any segment storage order)."""
    entry = cache.get(rank)
    if entry is None:
        gflat = segment_gflat(dist, rank)
        order = np.argsort(gflat, kind="stable")
        entry = (gflat[order], order)
        cache[rank] = entry
    sorted_gflat, order = entry
    where = np.searchsorted(sorted_gflat, gidx)
    if where.size and (
        where.max(initial=0) >= len(order)
        or not np.array_equal(sorted_gflat[where], gidx)
    ):
        raise AssertionError(
            f"transfer plan references elements outside processor "
            f"{rank}'s segment"
        )
    return order[where]


def segment_moves(
    old: "Distribution", new: "Distribution", nprocs: int
) -> dict[int, SegmentMoves]:
    """Lower :func:`transfer_plan` to per-rank local segment moves
    (one entry per rank; an idle rank's is empty)."""
    plan = transfer_plan(old, new, nprocs)
    old_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    new_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    moves = {rank: SegmentMoves(rank) for rank in range(nprocs)}
    for s, d, gidx in plan:
        opos = _positions(old, s, gidx, old_cache)
        npos = _positions(new, d, gidx, new_cache)
        if s == d:
            moves[s].keeps.append((opos, npos))
        else:
            moves[s].sends.append((d, opos))
            moves[d].recvs.append((s, npos))
    return moves


# -- halo exchange planning ------------------------------------------------

def shift_plan(
    dist: "Distribution", dim: int, width: int
) -> list[tuple[int, int, str, tuple[slice, ...], int]]:
    """The slab-exchange plan of one boundary shift along ``dim``.

    Returns ``[(src, dst, key, src_slices, count), ...]``: ``src``
    sends the ``src_slices`` slab of its local segment to ``dst``,
    which stores it as its ``key`` (``"lo"``/``"hi"``) halo; ``count``
    is the slab's element count.  Mirrors the neighbour discovery of
    :func:`~repro.runtime.communication.shift_exchange` exactly.
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

    @property
    def nlines(self) -> int:
        return len(self.group_of_line)


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
