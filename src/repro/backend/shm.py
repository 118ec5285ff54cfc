"""Shared-memory segment storage for SPMD worker processes.

The multiprocess backend keeps every local-memory block (array
segments, overlap buffers) in ``multiprocessing.shared_memory`` so
that the master process and the worker owning the segment see the same
bytes with zero copying.  The master allocates through
:class:`SharedSegmentAllocator` (installed into each simulated
:class:`~repro.machine.memory.LocalMemory` via the machine's
``set_segment_allocator`` hook); workers attach by :class:`BlockMeta`
shipped inside op commands and keep the mapping until the master tells
them the block is gone (:attr:`SharedSegmentAllocator.freed`).

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


def attach(meta: BlockMeta) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a block from another process.

    Returns the (kept-alive) ``SharedMemory`` and an ndarray view; the
    caller must drop the array before closing the handle.
    """
    shm = shared_memory.SharedMemory(name=meta.shm_name)
    if unregister_on_attach:
        try:  # the creator owns tracking; see module docstring
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    arr = np.ndarray(meta.shape, dtype=meta.np_dtype, buffer=shm.buf)
    return shm, arr


class SharedSegmentAllocator:
    """Allocates named local-memory blocks in shared memory.

    Implements the ``alloc(rank, name, shape, dtype)`` /
    ``free(rank, name)`` protocol of
    :class:`~repro.machine.memory.LocalMemory`.  Shared segment names
    are unique per allocation (a monotonic counter), so a re-allocation
    under the same logical block name — the DISTRIBUTE reallocation
    path — never aliases the block it replaces; :meth:`stash` lets the
    redistribution keep the *old* physical block alive while the new
    one is filled.
    """

    def __init__(self, tag: str, freed: list | None = None):
        # shm names are a global namespace: include the pid and a tag
        self._prefix = f"vfe-{os.getpid()}-{tag}"
        self._counter = 0
        #: shm names unlinked so far, for whoever must tell the workers
        #: that mapped them (pass the list in to collect them elsewhere)
        self.freed: list = [] if freed is None else freed
        self._blocks: dict[tuple[int, str], shared_memory.SharedMemory] = {}
        self._metas: dict[tuple[int, str], BlockMeta] = {}

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
        shm_name = f"{self._prefix}-{self._counter}"
        shm = shared_memory.SharedMemory(
            name=shm_name, create=True, size=nbytes
        )
        self._blocks[key] = shm
        self._metas[key] = BlockMeta(shm_name, tuple(shape), dtype.str)
        return np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    def free(self, rank: int, name: str) -> None:
        """Release a block; unknown names are ignored (blocks adopted
        into a LocalMemory from outside this allocator)."""
        key = (rank, name)
        shm = self._blocks.pop(key, None)
        self._metas.pop(key, None)
        if shm is not None:
            self.unlink(shm)

    def unlink(self, shm: shared_memory.SharedMemory) -> None:
        """Close and unlink a block of this allocator (one it still
        holds, or one handed out by :meth:`stash`)."""
        shm.close()
        shm.unlink()
        self.freed.append(shm.name)

    # -- backend-side access --------------------------------------------
    def meta(self, rank: int, name: str) -> BlockMeta | None:
        """Worker-shippable handle for ``rank``'s block, if it exists."""
        return self._metas.get((rank, name))

    def view(self, rank: int, name: str) -> np.ndarray | None:
        """Master-side ndarray view of a live block (``None`` if the
        block is unknown).  The backbone of op-boundary checkpoints:
        the blocks an op may write are copied through this before it
        runs and restored through it after a fleet restart."""
        key = (rank, name)
        shm = self._blocks.get(key)
        meta = self._metas.get(key)
        if shm is None or meta is None:
            return None
        return np.ndarray(meta.shape, dtype=meta.np_dtype, buffer=shm.buf)

    def stash(
        self, rank: int, name: str
    ) -> tuple[shared_memory.SharedMemory, BlockMeta] | None:
        """Detach a block from the registry *without* unlinking it.

        The caller becomes responsible for :meth:`unlink`.
        Used to keep an array's old segments alive across the
        same-name reallocation a redistribution performs.
        """
        key = (rank, name)
        shm = self._blocks.pop(key, None)
        meta = self._metas.pop(key, None)
        if shm is None or meta is None:
            return None
        return shm, meta

    def registered(self) -> list[tuple[int, str]]:
        """(rank, block name) of every live allocation."""
        return list(self._blocks)

    def close(self) -> None:
        """Unlink every block still registered."""
        for key in list(self._blocks):
            self.free(*key)

    def __len__(self) -> int:
        return len(self._blocks)
