"""Overlap (ghost) areas (paper §3.1, §3.2.1).

The compiler "generates code to create and maintain data structures
describing the distributions and other attributes of arrays, such as
the associated overlap areas".  An overlap area widens each local
segment by a halo of remote elements so a stencil sweep can run on
purely local data after one boundary exchange per step.

:class:`OverlapManager` allocates the padded buffers in each
processor's local memory (kind ``"overlap"`` — the storage shows up in
the memory accounting), fills the interior from the distributed array,
and refreshes halos with :func:`~repro.runtime.communication.shift_exchange`.
Only contiguous (BLOCK-family) distributions carry overlap areas,
matching the paper's ``segment`` descriptor applicability.
"""

from __future__ import annotations

import numpy as np

from ..backend.plan import halo_dest_slice
from .communication import shift_exchange
from .darray import DistributedArray

__all__ = ["OverlapManager"]


class OverlapManager:
    """Halo management for one distributed array.

    Parameters
    ----------
    array:
        The distributed array (BLOCK-family distribution required).
    widths:
        Halo width per dimension (0 = no halo along that dimension).
    boundary:
        Value used outside the global domain (Dirichlet pad).
    """

    def __init__(
        self,
        array: DistributedArray,
        widths: tuple[int, ...],
        boundary: float = 0.0,
    ):
        if len(widths) != array.ndim:
            raise ValueError(f"need one width per dimension ({array.ndim})")
        if any(w < 0 for w in widths):
            raise ValueError("halo widths must be non-negative")
        self.array = array
        self.widths = tuple(int(w) for w in widths)
        self.boundary = float(boundary)
        self._version = array.version
        for rank in array.owning_ranks():
            if array.dist.segment(rank) is None:
                raise ValueError(
                    f"{array.name!r} is not contiguously distributed on "
                    f"processor {rank}; overlap areas require BLOCK-family "
                    f"distributions"
                )
        self._allocate()

    def _buf_name(self) -> str:
        return f"overlap:{self.array.name}"

    def _allocate(self) -> None:
        for rank in self.array.owning_ranks():
            local = self.array.local(rank)
            padded_shape = tuple(
                s + 2 * w for s, w in zip(local.shape, self.widths)
            )
            self.array.machine.memory(rank).allocate(
                self._buf_name(),
                padded_shape,
                self.array.np_dtype,
                kind="overlap",
                fill=self.boundary,
            )
        self._version = self.array.version

    def invalidated(self) -> bool:
        """True if the array was redistributed since allocation."""
        return self.array.version != self._version

    def refresh(self) -> None:
        """Re-allocate after a redistribution."""
        self._allocate()

    # -- access ----------------------------------------------------------
    def padded(self, rank: int) -> np.ndarray:
        """The halo-padded local buffer of ``rank``."""
        return self.array.machine.memory(rank)[self._buf_name()]

    def interior(self, rank: int) -> np.ndarray:
        """View of the owned region inside the padded buffer."""
        pad = self.padded(rank)
        sl = tuple(
            slice(w, pad.shape[d] - w) for d, w in enumerate(self.widths)
        )
        return pad[sl]

    # -- exchange ------------------------------------------------------------
    def load_interior(self) -> None:
        """Copy current array values into each padded buffer's interior."""
        if self.invalidated():
            self.refresh()
        for rank in self.array.owning_ranks():
            self.interior(rank)[...] = self.array.local(rank)

    def store_interior(self) -> None:
        """Copy each padded buffer's interior back into the array."""
        for rank in self.array.owning_ranks():
            self.array.local(rank)[...] = self.interior(rank)

    def exchange(self) -> int:
        """One halo refresh: boundary exchange along every haloed dim.

        Returns the number of messages sent.  This is the per-step
        communication of the paper's smoothing example.
        """
        if self.invalidated():
            raise RuntimeError(
                f"overlap area of {self.array.name!r} is stale after a "
                f"redistribution; call refresh()/load_interior() first"
            )
        net = self.array.machine.network
        before = net.stats().messages
        for dim, w in enumerate(self.widths):
            if w == 0:
                continue
            recv = shift_exchange(self.array, dim, width=w)
            for rank, slabs in recv.items():
                pad = self.padded(rank)
                shape = self.array.local(rank).shape
                for key, slab in slabs.items():
                    pad[halo_dest_slice(shape, self.widths, dim, key)] = slab
        return net.stats().messages - before
