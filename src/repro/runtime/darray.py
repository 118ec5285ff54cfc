"""Distributed arrays: global addressing over per-processor segments.

The central run-time object of the Vienna Fortran Engine.  A
:class:`DistributedArray` owns an :class:`~repro.core.descriptor.ArrayDescriptor`
and one numpy segment per owning processor, allocated in that
processor's simulated :class:`~repro.machine.memory.LocalMemory`.
Programs address it with **global** indices — the defining property of
Vienna Fortran ("allows the user to write programs ... using global
addresses") — and the array translates through the descriptor's
``loc_map`` access functions.

Two access styles are provided:

- *oracle* access (:meth:`get` / :meth:`set`, :meth:`to_global` /
  :meth:`from_global`): reads and writes without communication
  accounting.  This is the simulation-harness view, used to set up
  inputs and check results.
- *SPMD* access (:meth:`read_remote`): processor ``p`` reads a global
  element; if ``p`` does not own it, a single-element message from the
  owner is recorded, mirroring §3.2.1's "access in processor p to a
  non-local array element A(i) is performed by determining a processor
  q owning A(i) from dist(A), and inserting message passing operations".
  Bulk SPMD patterns live in :mod:`repro.runtime.communication` and
  :mod:`repro.runtime.inspector`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backend.plan import selector, subscript
from ..core.descriptor import ArrayDescriptor
from ..core.distribution import Distribution
from ..machine.machine import Machine

__all__ = ["DistributedArray"]


class DistributedArray:
    """A globally addressed array with per-processor local segments.

    Construct through :class:`repro.runtime.engine.Engine.declare` in
    normal use; direct construction requires an already-distributed
    descriptor or none-yet (segments allocated on first distribution).
    """

    def __init__(
        self,
        descriptor: ArrayDescriptor,
        machine: Machine,
        dtype: np.dtype | type = np.float64,
    ):
        self.descriptor = descriptor
        self.machine = machine
        self.np_dtype = np.dtype(dtype)
        #: rank -> (index arrays, the subscript of its segment in the
        #: global array) of the current layout (kept here, not on the
        #: distribution: see its class docstring)
        self._local_index_cache: dict[int, tuple] = {}
        if descriptor.is_distributed:
            self._allocate_segments()

    # -- identity ----------------------------------------------------------
    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.descriptor.index_dom.shape

    @property
    def ndim(self) -> int:
        return self.descriptor.index_dom.ndim

    @property
    def size(self) -> int:
        return self.descriptor.index_dom.size

    @property
    def dist(self) -> Distribution:
        return self.descriptor.dist

    @property
    def itemsize(self) -> int:
        return self.np_dtype.itemsize

    @property
    def version(self) -> int:
        """Redistribution counter; schedules cache against this."""
        return self.descriptor.version

    def _block_name(self) -> str:
        return f"array:{self.name}"

    # -- segment management --------------------------------------------------
    def bind(self, dist: Distribution, fill: float | None = 0.0) -> None:
        """Associate ``dist`` with the array (values are not moved):
        the descriptor takes it, RANGE and staticness enforced, every
        segment is reallocated for it (``fill=None``: uninitialized)
        and the old layout's index arrays go — one step, so no caller
        can leave a stale :meth:`local_indices` behind."""
        self.descriptor.set_dist(dist)
        self._allocate_segments(fill)

    def _allocate_segments(self, fill: float | None = 0.0) -> None:
        """(Re)allocate each processor's local segment for current dist."""
        self._local_index_cache = {}
        dist = self.dist
        for rank in range(self.machine.nprocs):
            shape = dist.local_shape(rank)
            mem = self.machine.memory(rank)
            if all(s > 0 for s in shape):
                mem.allocate(self._block_name(), shape, self.np_dtype, fill=fill)
            elif self._block_name() in mem:
                mem.free(self._block_name())

    def local(self, rank: int) -> np.ndarray:
        """Processor ``rank``'s local segment (zero-size if it owns nothing)."""
        mem = self.machine.memory(rank)
        if self._block_name() in mem:
            return mem[self._block_name()]
        return np.empty((0,) * self.ndim, dtype=self.np_dtype)

    def _indices(self, rank: int) -> tuple:
        """``rank``'s ``(index arrays, global subscript)`` of the current
        layout: one slice per dimension when every index set is a
        progression (a rectangle copy), an ``np.ix_`` mesh otherwise."""
        entry = self._local_index_cache.get(rank)
        if entry is None:
            idx = self.dist.local_index_arrays(rank)
            entry = (idx, None if idx is None else subscript(
                tuple(selector(i.tolist()) for i in idx)))
            self._local_index_cache[rank] = entry
        return entry

    def local_indices(self, rank: int) -> tuple[np.ndarray, ...] | None:
        """Cached per-dimension global indices of ``rank``'s segment."""
        return self._indices(rank)[0]

    def owning_ranks(self) -> list[int]:
        """Ranks that own at least one element."""
        return list(self.dist.owning_ranks)

    # -- oracle access ---------------------------------------------------------
    def get(self, index: Sequence[int] | int) -> float:
        """Read a global element (no communication accounting)."""
        index = self.descriptor.index_dom.check(index)
        rank = self.dist.owner(index)
        lidx = self.dist.global_to_local(rank, index)
        return self.local(rank)[lidx]

    def set(self, index: Sequence[int] | int, value) -> None:
        """Write a global element to *every* owner (keeps replicas equal)."""
        index = self.descriptor.index_dom.check(index)
        for rank in self.dist.owners(index):
            lidx = self.dist.global_to_local(rank, index)
            self.local(rank)[lidx] = value

    def to_global(self) -> np.ndarray:
        """Assemble the full array (no comm accounting).  Owners are
        written in ascending rank order, so of a replicated element the
        last replica's copy lands — harmless, replicas are equal."""
        out = np.empty(self.shape, dtype=self.np_dtype)
        for rank in self.dist.owning_ranks:
            out[self._indices(rank)[1]] = self.local(rank)
        return out

    def from_global(self, arr: np.ndarray) -> None:
        """Scatter a full array into every owner's segment (no accounting)."""
        arr = np.asarray(arr, dtype=self.np_dtype)
        if arr.shape != self.shape:
            raise ValueError(f"shape {arr.shape} != array shape {self.shape}")
        for rank in self.dist.owning_ranks:
            self.local(rank)[...] = arr[self._indices(rank)[1]]

    # -- SPMD access -------------------------------------------------------------
    def read_remote(self, reader: int, index: Sequence[int] | int) -> float:
        """Processor ``reader`` reads global ``index`` SPMD-style.

        If ``reader`` owns the element the read is local and free;
        otherwise one element-sized message from (an) owner to
        ``reader`` is recorded on the network.
        """
        index = self.descriptor.index_dom.check(index)
        owners = self.dist.owners(index)
        src = owners[0]
        for o in owners:
            if o == reader:
                src = o
                break
        value = self.local(src)[self.dist.global_to_local(src, index)]
        if src != reader:
            self.machine.network.send(src, reader, self.itemsize, tag=f"elem:{self.name}")
        return value

    # -- numpy conveniences ---------------------------------------------------------
    def fill(self, value: float) -> None:
        for rank in self.dist.owning_ranks:
            self.local(rank).fill(value)

    def __repr__(self) -> str:
        d = (
            repr(self.descriptor.dist.dtype)
            if self.descriptor.is_distributed
            else "<undistributed>"
        )
        return (
            f"DistributedArray({self.name!r}, shape={self.shape}, dist={d}, "
            f"dtype={self.np_dtype.name})"
        )
