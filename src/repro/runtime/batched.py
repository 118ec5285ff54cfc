"""Vectorized owner-computes FORALL — the inspector-backed hot path.

:func:`repro.runtime.forall.forall` is the semantic reference: it
walks every owned index in Python, resolving each global read through
a per-element :class:`~repro.runtime.forall.ReadAccessor`.  This
module is the production lowering the paper's §4 argument licenses —
the iteration and transfer sets of a forall are known up front, so the
executor can precompute them once and execute in bulk:

- the iteration set of each processor is materialized as per-dimension
  index columns (one ``meshgrid``, row-major — the same order the
  reference's ``itertools.product`` walks);
- every global read the body performs is resolved for *all* iterations
  at once: ownership and local offsets come from the PARTI-style
  :class:`~repro.runtime.translation.TranslationTable`, and the values
  arrive with **one fancy-indexed gather per (owner rank, array)
  pair** instead of per-element ``read_remote`` calls;
- owned elements are written back with a single reshaped assignment.

Accounting is *identical to the reference by construction*: the same
per-element messages (owner → reader, one element each, same tags) are
recorded in the same order — iteration-major, then read-call order
within an iteration — so remote-read counts, network statistics,
per-processor clocks and recorded event logs all match the per-element
path bitwise (property-tested in
``tests/properties/test_vectorized_props.py``).

The body contract mirrors the scalar one, lifted to arrays: where a
scalar body computes ``func(i, read)`` for one index tuple, a batched
body computes ``body(cols, read)`` for *all* indices at once —
``cols`` is a tuple of per-dimension int64 arrays and ``read(name,
index_cols)`` returns the referenced values as an array.  A scalar
body and a batched body correspond when they perform the same reads in
the same order and compute the same function elementwise.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .darray import DistributedArray
from .translation import TranslationTable

__all__ = ["BatchedReadAccessor", "forall_batched"]


class BatchedReadAccessor:
    """Vectorized global-read proxy handed to batched forall bodies.

    ``read(name, index_cols)`` returns the values of
    ``name(index_cols)`` for every iteration at once; ``index_cols``
    is a tuple of per-dimension integer arrays (a single array is
    accepted for 1-D arrays).  Remote elements are fetched with one
    gather per owning rank; the per-element message *accounting* is
    deferred and replayed in reference order by :meth:`emit`.
    """

    def __init__(self, arrays: dict[str, DistributedArray], rank: int):
        self._arrays = arrays
        self._rank = rank
        self.remote_reads = 0
        #: one entry per read call: (tag, itemsize, remote iteration
        #: indices, remote source ranks) — replayed by :meth:`emit`
        self._pending: list[tuple[str, int, np.ndarray, np.ndarray]] = []
        self._tables: dict[str, TranslationTable] = {}

    # -- index plumbing ---------------------------------------------------
    def _table(self, arr: DistributedArray) -> TranslationTable:
        table = self._tables.get(arr.name)
        if table is None:
            table = TranslationTable(arr.dist)
            self._tables[arr.name] = table
        return table

    @staticmethod
    def _normalize(arr: DistributedArray, index_cols) -> np.ndarray:
        """``(niter, ndim)`` int64 index matrix from per-dim columns."""
        if isinstance(index_cols, np.ndarray) and index_cols.ndim == 2:
            idx = np.ascontiguousarray(index_cols, dtype=np.int64)
        else:
            if isinstance(index_cols, (np.ndarray, list)) and arr.ndim == 1:
                index_cols = (index_cols,)
            if len(index_cols) != arr.ndim:
                raise ValueError(
                    f"{arr.name!r} needs {arr.ndim} index columns, "
                    f"got {len(index_cols)}"
                )
            idx = np.stack(
                [np.asarray(c, dtype=np.int64) for c in index_cols], axis=1
            )
        lo_ok = idx.size == 0 or idx.min() >= 0
        hi_ok = idx.size == 0 or bool((idx.max(axis=0) < arr.shape).all())
        if not (lo_ok and hi_ok):
            raise IndexError(
                f"index out of range for {arr.name!r} of shape {arr.shape}"
            )
        return idx

    def _local_mask(
        self, arr: DistributedArray, owner_slots: np.ndarray
    ) -> np.ndarray:
        """Which referenced elements the reading processor owns."""
        slots = arr.dist.slots_of(self._rank)
        n = len(owner_slots)
        if slots is None:  # reader outside the target section
            return np.zeros(n, dtype=bool)
        mask = np.ones(n, dtype=bool)
        for d, dd in enumerate(arr.dist.dtype.dims):
            if dd.consumes_proc_dim and dd.exclusive:
                mask &= owner_slots[:, d] == slots[d]
            # replicated / undistributed dimensions never exclude
        return mask

    # -- the read ---------------------------------------------------------
    def __call__(self, name: str, index_cols) -> np.ndarray:
        """Batched read: one gather per (owner rank, array) pair."""
        arr = self._arrays[name]
        idx = self._normalize(arr, index_cols)
        table = self._table(arr)
        owner_slots, offsets = table.lookup(idx)
        local = self._local_mask(arr, owner_slots)
        src = table.owner_ranks(idx)  # primary owners (reference's src)
        src[local] = self._rank
        vals = np.empty(len(idx), dtype=arr.np_dtype)
        for q in np.unique(src):
            sel = src == q
            seg = arr.local(int(q))
            vals[sel] = seg[tuple(offsets[sel, d] for d in range(arr.ndim))]
        remote = np.flatnonzero(~local)
        self.remote_reads += len(remote)
        self._pending.append(
            (f"elem:{arr.name}", arr.itemsize, remote, src[remote])
        )
        return vals

    def local(self, name: str, index_cols) -> np.ndarray:
        """Assert-local batched read (communication-free bodies)."""
        arr = self._arrays[name]
        idx = self._normalize(arr, index_cols)
        owner_slots, offsets = self._table(arr).lookup(idx)
        local = self._local_mask(arr, owner_slots)
        if not local.all():
            bad = idx[np.argmin(local)]
            raise RuntimeError(
                f"forall body read non-local element {name}{tuple(bad)} on "
                f"processor {self._rank} but was declared local-only"
            )
        seg = arr.local(self._rank)
        return seg[tuple(offsets[:, d] for d in range(arr.ndim))]

    # -- deferred accounting ----------------------------------------------
    def emit(self, network) -> None:
        """Replay the recorded remote reads as per-element messages in
        reference order: iteration-major, read-call order within one
        iteration — exactly the sequence the per-element path sends."""
        if not any(len(p[2]) for p in self._pending):
            return
        iters = np.concatenate([p[2] for p in self._pending])
        calls = np.concatenate(
            [np.full(len(p[2]), ci, dtype=np.int64)
             for ci, p in enumerate(self._pending)]
        )
        srcs = np.concatenate([p[3] for p in self._pending])
        order = np.lexsort((calls, iters))
        tags = [p[0] for p in self._pending]
        sizes = [p[1] for p in self._pending]
        rank = self._rank
        for k in order:
            c = calls[k]
            network.send(int(srcs[k]), rank, sizes[c], tag=tags[c])


def forall_batched(
    lhs: DistributedArray,
    body: Callable[[tuple[np.ndarray, ...], BatchedReadAccessor], np.ndarray],
    reads: dict[str, DistributedArray] | None = None,
    flops_per_element: float = 1.0,
) -> dict[int, int]:
    """Execute ``lhs(i) = body(i, read)`` vectorized, owner-computes.

    The drop-in production counterpart of
    :func:`repro.runtime.forall.forall`: ``body`` receives the full
    iteration set of one processor as per-dimension index columns and
    a :class:`BatchedReadAccessor`, and returns the staged values as a
    flat array in iteration order.  Returns per-processor remote-read
    counts; all accounting (messages, events, clocks) matches the
    per-element reference bitwise for corresponding bodies.
    """
    from .forall import FORALL_CALLS

    FORALL_CALLS.inc(path="batched")
    reads = dict(reads or {})
    reads.setdefault(lhs.name, lhs)
    machine = lhs.machine
    remote_counts: dict[int, int] = {}

    # two-phase execution: stage every processor's results against
    # pre-loop state, then commit all writes (forall semantics)
    staged_by_rank: dict[int, np.ndarray] = {}
    for rank in lhs.owning_ranks():
        idx_arrays = lhs.local_indices(rank)
        grids = np.meshgrid(*idx_arrays, indexing="ij")
        cols = tuple(g.ravel() for g in grids)  # row-major == reference
        accessor = BatchedReadAccessor(reads, rank)
        staged = np.asarray(body(cols, accessor), dtype=lhs.np_dtype)
        shape = lhs.local(rank).shape
        if staged.shape != shape:
            staged = staged.reshape(shape)
        staged_by_rank[rank] = staged
        # reference order per processor: element messages, then the
        # kernel charge
        accessor.emit(machine.network)
        machine.network.compute(
            rank, flops_per_element * staged.size, tag=f"forall:{lhs.name}"
        )
        remote_counts[rank] = accessor.remote_reads
    for rank, staged in staged_by_rank.items():
        lhs.local(rank)[...] = staged
    machine.network.synchronize()
    return remote_counts
