"""Shared-memory segment storage for SPMD worker processes.

The multiprocess backend keeps every local-memory block (array
segments, overlap buffers) in ``multiprocessing.shared_memory`` so
that the master process and the worker owning the segment see the same
bytes with zero copying.  The master allocates through
:class:`SharedSegmentAllocator` (installed into each simulated
:class:`~repro.machine.memory.LocalMemory` via the machine's
``set_segment_allocator`` hook); workers attach by :class:`BlockMeta`
shipped inside op commands and keep the mapping until the master tells
them the segment is gone (:attr:`SharedSegmentAllocator.freed`).

A segment name is never reused for a different segment: names are
unique per created segment.  What *is* reused is the segment itself,
across a DISTRIBUTE: the allocator retains, per ``(rank, block)``,
the one old segment the block's last DISTRIBUTE released, and hands it
out again under its own name when the block's next DISTRIBUTE needs
the same byte count (Figure 1's flips always do).  Workers still map
it, so the reuse costs them no ``shm_open``, ``mmap`` or page fault;
its shape may differ, which is why a worker keys its views by
:class:`BlockMeta`, not by name.

CPython < 3.13 registers *attached* segments with the resource
tracker, which then unlinks them when the attaching process exits
(bpo-38119); :func:`attach` undoes that registration so only the
creating master owns cleanup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..faults import plan as _faults

__all__ = ["BlockMeta", "SharedSegmentAllocator", "attach"]

#: Whether :func:`attach` should undo the resource-tracker
#: registration CPython < 3.13 performs on attach.  ``fork`` workers
#: share the master's tracker — there the registration is a no-op
#: re-add and must NOT be undone (the master's own registration would
#: vanish); ``spawn`` workers own a fresh tracker that would unlink
#: the segment when the worker exits, so there it must be undone.
#: Set per worker by :func:`repro.backend.worker.worker_main`.
unregister_on_attach = True


@dataclass(frozen=True)
class BlockMeta:
    """Picklable handle to one shared-memory block."""

    shm_name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.np_dtype.itemsize


def attach(shm_name: str) -> shared_memory.SharedMemory:
    """Map a segment created by another process (the caller builds its
    views on ``.buf`` and must drop them before closing the handle)."""
    shm = shared_memory.SharedMemory(name=shm_name)
    if unregister_on_attach:
        try:  # the creator owns tracking; see module docstring
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return shm


class SharedSegmentAllocator:
    """Allocates named local-memory blocks in shared memory.

    Implements the ``alloc(rank, name, shape, dtype)`` /
    ``free(rank, name)`` protocol of
    :class:`~repro.machine.memory.LocalMemory`.  A DISTRIBUTE
    re-allocates its block under the same logical name: :meth:`stash`
    first takes the *old* segments out of the registry, so the new ones
    never alias them, and :meth:`retain` keeps them, once every worker
    has read them, for the block's next re-allocation.
    """

    def __init__(self, tag: str, freed: list | None = None):
        # shm names are a global namespace: include the pid and a tag
        self._prefix = f"vfe-{os.getpid()}-{tag}"
        self._counter = 0
        #: shm names unlinked so far, for whoever must tell the workers
        #: that mapped them (pass the list in to collect them elsewhere)
        self.freed: list = [] if freed is None else freed
        # (segment, meta) by (rank, block): live blocks, the old blocks
        # of a DISTRIBUTE in flight, and the one old segment each
        # block's last DISTRIBUTE released (closed, still linked)
        self._blocks: dict[tuple[int, str], tuple] = {}
        self._stashed: dict[tuple[int, str], tuple] = {}
        self._retained: dict[tuple[int, str], tuple] = {}

    # -- LocalMemory protocol -------------------------------------------
    def alloc(
        self, rank: int, name: str, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        key = (rank, name)
        if key in self._blocks:
            self.free(rank, name)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes == 0:
            # zero-size blocks hold no worker-visible data
            return np.empty(shape, dtype=dtype)
        # a reused segment is an allocation too: fault plans count both
        self._counter += 1
        plan = _faults.active_plan()
        if plan is not None and plan.shm_failure(self._counter) is not None:
            # injected allocation failure: surface it exactly as a real
            # exhausted /dev/shm would (MemoryError keeps this module
            # free of backend-layer imports); the degradation tier in
            # repro.api.handles treats it as recoverable
            raise MemoryError(
                f"injected shm allocation failure "
                f"(allocation #{self._counter}, block {name!r} rank {rank})"
            )
        kept, old = self._retained.pop(key, (None, None))
        if kept is not None and old.nbytes == nbytes:
            shm = shared_memory.SharedMemory(name=kept.name)
        else:
            if kept is not None:
                self.unlink(kept)
            shm = shared_memory.SharedMemory(
                name=f"{self._prefix}-{self._counter}", create=True,
                size=nbytes,
            )
        self._blocks[key] = shm, BlockMeta(shm.name, tuple(shape), dtype.str)
        return np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    def free(self, rank: int, name: str) -> None:
        """Release a block and the segment retained for it.  A block
        stashed by a DISTRIBUTE in flight keeps it (the re-allocation
        frees before it allocates); unknown names are ignored (blocks
        adopted into a LocalMemory from outside this allocator)."""
        key = (rank, name)
        if key in self._stashed:
            return
        for store in (self._blocks, self._retained):
            if key in store:
                self.unlink(store.pop(key)[0])

    def unlink(self, shm: shared_memory.SharedMemory) -> None:
        """Close and unlink a segment of this allocator."""
        shm.close()
        shm.unlink()
        self.freed.append(shm.name)

    # -- backend-side access --------------------------------------------
    def meta(self, rank: int, name: str) -> BlockMeta | None:
        """Worker-shippable handle for ``rank``'s block, if it exists."""
        return self._blocks.get((rank, name), (None, None))[1]

    def view(self, rank: int, name: str) -> np.ndarray | None:
        """Master-side ndarray view of a live block (``None`` if the
        block is unknown).  The backbone of op-boundary checkpoints:
        the blocks an op may write are copied through this before it
        runs and restored through it after a fleet restart."""
        shm, meta = self._blocks.get((rank, name), (None, None))
        if shm is None:
            return None
        return np.ndarray(meta.shape, dtype=meta.np_dtype, buffer=shm.buf)

    def stash(self, name: str, nprocs: int) -> list[BlockMeta | None]:
        """Detach every rank's block ``name`` from the registry *without*
        unlinking it; returns the old metas by rank (``None``: the rank
        holds none).  The caller must :meth:`retain` them afterwards."""
        for rank in range(nprocs):
            if (rank, name) in self._blocks:
                self._stashed[rank, name] = self._blocks.pop((rank, name))
        return [self._stashed.get((rank, name), (None, None))[1]
                for rank in range(nprocs)]

    def retain(self, name: str) -> None:
        """Release the segments :meth:`stash` took, each becoming its
        block's retained segment (closing the handle, so a master view
        that outlived its block still raises ``BufferError`` here)."""
        for key in [k for k in self._stashed if k[1] == name]:
            self._stashed[key][0].close()
            if key in self._retained:  # the new block did not take it
                self.unlink(self._retained.pop(key)[0])
            self._retained[key] = self._stashed.pop(key)

    def registered(self) -> list[tuple[int, str]]:
        """(rank, block name) of every live allocation."""
        return list(self._blocks)

    def close(self) -> None:
        """Unlink every block still registered or retained."""
        for key in [*self._blocks, *self._retained]:
            self.free(*key)

    def __len__(self) -> int:
        return len(self._blocks)
