"""Owner-computes FORALL loops.

Vienna Fortran's feature set includes "explicitly parallel
asynchronous forall loops" (§2 intro); under the SPMD model the
compiler distributes forall iterations by the owner-computes rule —
"the processor performs the computation that defines data elements
owned locally" — and satisfies non-local reads with messages.

:func:`forall` executes ``lhs(i) = func(i, read)`` for every index of
the left-hand-side array: iterations are partitioned by ownership, the
``read`` accessor resolves global reads of other distributed arrays
(local reads free, remote reads accounted).  The PARTI-style
inspector/executor lowering for index sets known up front is
:class:`~repro.runtime.inspector.Inspector`, as the irregular
relaxation runs it.

The per-element path is the semantic reference; production code uses
the gather-batched :func:`repro.runtime.batched.forall_batched` (one
vectorized gather per (owner rank, array) pair, accounting identical
bitwise) or the vectorized lowerings in :mod:`repro.compiler.codegen`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs import metrics as _obs
from .darray import DistributedArray

__all__ = ["ReadAccessor", "forall"]

#: which forall implementation ran — the batched path increments
#: ``path="batched"`` in :mod:`repro.runtime.batched`
FORALL_CALLS = _obs.counter(
    "repro_forall_calls_total",
    "forall executions, by implementation path.",
    ("path",),
)


class ReadAccessor:
    """Global-read proxy handed to forall bodies.

    ``read[("B", i, j)]`` or ``read("B", (i, j))`` returns the value of
    ``B(i, j)``, charging a one-element message when the executing
    processor does not own it (§3.2.1's non-local access path).
    """

    def __init__(self, arrays: dict[str, DistributedArray], rank: int):
        self._arrays = arrays
        self._rank = rank
        self.remote_reads = 0

    def __call__(self, name: str, index) -> float:
        arr = self._arrays[name]
        owners = arr.dist.owners(arr.descriptor.index_dom.check(index))
        if self._rank not in owners:
            self.remote_reads += 1
        return arr.read_remote(self._rank, index)

    def local(self, name: str, index) -> float:
        """Assert-local read: raises if the element is remote (used by
        bodies that the compiler proved communication-free)."""
        arr = self._arrays[name]
        index = arr.descriptor.index_dom.check(index)
        if self._rank not in arr.dist.owners(index):
            raise RuntimeError(
                f"forall body read non-local element {name}{index} on "
                f"processor {self._rank} but was declared local-only"
            )
        return arr.get(index)


def forall(
    lhs: DistributedArray,
    func: Callable[[tuple[int, ...], ReadAccessor], float],
    reads: dict[str, DistributedArray] | None = None,
    flops_per_element: float = 1.0,
) -> dict[int, int]:
    """Execute ``lhs(i) = func(i, read)`` under owner-computes.

    Returns per-processor remote-read counts (the communication the
    compiler would try to hoist or batch).  Iterations run in
    processor-rank order; Vienna Fortran foralls require the iterations
    to be independent, so ordering is unobservable for legal bodies.
    """
    FORALL_CALLS.inc(path="reference")
    reads = dict(reads or {})
    reads.setdefault(lhs.name, lhs)
    machine = lhs.machine
    remote_counts: dict[int, int] = {}
    import itertools

    # two-phase execution: every iteration reads pre-loop state (the
    # defining property of forall), so all staged results are computed
    # before any processor commits its writes
    staged_by_rank: dict[int, np.ndarray] = {}
    for rank in lhs.owning_ranks():
        accessor = ReadAccessor(reads, rank)
        idx_arrays = lhs.local_indices(rank)
        local = lhs.local(rank)
        staged = np.empty_like(local)
        for lidx in itertools.product(*(range(len(a)) for a in idx_arrays)):
            gidx = tuple(int(idx_arrays[d][lidx[d]]) for d in range(lhs.ndim))
            staged[lidx] = func(gidx, accessor)
        staged_by_rank[rank] = staged
        machine.network.compute(
            rank, flops_per_element * local.size, tag=f"forall:{lhs.name}"
        )
        remote_counts[rank] = accessor.remote_reads
    for rank, staged in staged_by_rank.items():
        lhs.local(rank)[...] = staged
    machine.network.synchronize()
    return remote_counts
