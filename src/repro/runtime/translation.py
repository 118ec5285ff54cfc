"""Translation tables for irregular distributions (paper §3.2.1).

"For certain complex distributions, a pointer to a translation table
is required."  In PARTI-style run-time systems the translation table
maps a global index to its (owner, local offset) pair; regular
distributions compute this closed-form, but indirect/general-block
distributions need the table.

We build the table per *dimension* (distributions factor per
dimension) and compose lookups.  The table is replicated here — each
simulated processor would hold a copy; the distributed-table variant
of PARTI (pages of the table spread across processors, lookups costing
a message) is modeled by :meth:`DimTranslationTable.lookup_cost`.
"""

from __future__ import annotations

import numpy as np

from ..core.dimdist import DimDist
from ..core.distribution import Distribution
from ..core.interning import owners_vec_cached

__all__ = ["DimTranslationTable", "TranslationTable"]


class DimTranslationTable:
    """Owner and local-offset maps along one array dimension."""

    def __init__(self, dimdist: DimDist, extent: int, slots: int):
        self.extent = int(extent)
        self.slots = int(slots)
        #: owner slot of each global index (primary owner)
        self.owner = owners_vec_cached(dimdist, self.extent, self.slots)
        #: local offset of each global index within its owner's segment
        self.offset = np.empty(self.extent, dtype=np.int64)
        for s in range(self.slots):
            idx = dimdist.indices_of(s, self.extent, self.slots)
            self.offset[idx] = np.arange(len(idx), dtype=np.int64)
        self.offset.setflags(write=False)

    def lookup(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (owner_slot, local_offset) for global indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.extent):
            raise IndexError("translation lookup out of range")
        return self.owner[indices], self.offset[indices]

    def lookup_cost(self, nqueries: int, page_size: int = 1024) -> int:
        """Messages a *distributed* table variant would need.

        With the table paged across processors (page ``i`` on processor
        ``i % slots``), each off-processor page touched costs one
        request/response exchange; we return the page count as a
        conservative message estimate (PARTI's dereference step).
        """
        if nqueries <= 0:
            return 0
        pages = -(-self.extent // page_size)
        return min(int(nqueries), pages)

    @property
    def nbytes(self) -> int:
        return self.owner.nbytes + self.offset.nbytes


class TranslationTable:
    """Full-array translation table: one per-dimension table composed.

    ``lookup`` maps an ``(n, ndim)`` batch of global indices to owner
    *slot tuples* and per-dimension local offsets.  The distribution's
    section then converts slot tuples to parent ranks.
    """

    def __init__(self, dist: Distribution):
        self.dist = dist
        self.dim_tables = [
            DimTranslationTable(dd, dist.shape[d], dist.slots_along(d))
            for d, dd in enumerate(dist.dtype.dims)
        ]

    def lookup(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(owners, offsets): each of shape ``(n, ndim)``.

        ``owners[i]`` is the per-dimension slot tuple of query ``i``;
        ``offsets[i]`` its per-dimension local offsets.
        """
        indices = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        if indices.shape[1] != self.dist.ndim:
            raise ValueError(
                f"queries have {indices.shape[1]} dims, array has {self.dist.ndim}"
            )
        owners = np.empty_like(indices)
        offsets = np.empty_like(indices)
        for d, table in enumerate(self.dim_tables):
            owners[:, d], offsets[:, d] = table.lookup(indices[:, d])
        return owners, offsets

    def owner_ranks(self, indices: np.ndarray) -> np.ndarray:
        """Primary-owner parent ranks for a batch of global indices."""
        owners, _ = self.lookup(indices)
        return self.dist.slot_ranks(owners.T).copy()  # callers overwrite

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.dim_tables)
