"""The DISTRIBUTE implementation (paper §3.2.2).

    DISTRIBUTE B :: da [NOTRANSFER (C1, ..., Cm)]

is realized "by a run-time routine executed on each processor which is
passed the array and its current set of descriptors and returns new
descriptors.  Each processor determines the new locations of current
local data, sends it to the new locations, and receives data from
other processors."  The three steps:

1. evaluate the new distribution and access functions for ``B``;
2. derive the distribution of every connected array via CONSTRUCT;
3. ``COMMUNICATE(C, old_dist, new_dist)`` for every member not in
   NOTRANSFER.

This module implements steps 1 and 3 for a single array
(:func:`communicate`); the engine orchestrates connect classes.

Transfer sets are planned per dimension, never per element: every
intrinsic maps one array dimension onto one processor dimension, so
what a processor sends another is a Cartesian product of per-dimension
index sets.  One :class:`~repro.backend.plan.RedistributionPlan` per
``(old, new, nprocs)`` holds the per-(src, dst) message volumes the
network accounts and the rectangles the machine's backend copies;
:class:`~repro.backend.plan.PlanCache` keeps it ("inspector once,
executor many", §3.2.1) — the one on the array's machine.
The flattened rank-map form (:func:`~repro.backend.plan.transfer_plan`)
is its oracle and experiment E4's ablation baseline.  "Data motion is
suppressed where data flow analysis, or a NOTRANSFER specification,
permits": elements whose owner does not change generate no traffic, and
NOTRANSFER skips COMMUNICATE entirely.
"""

from __future__ import annotations

import numpy as np

from ..backend.plan import PlanCache, RedistributionPlan
from ..core.distribution import Distribution
from ..obs import metrics as _obs
from ..obs.tracing import span as _span
from .darray import DistributedArray

__all__ = [
    "transfer_matrix",
    "communicate",
    "RedistributionReport",
    "PlanCache",
]


class RedistributionReport:
    """What one COMMUNICATE did: messages, bytes, elements moved/kept.

    ``cache_hits``/``cache_misses`` are the outcome of the one
    :class:`PlanCache` lookup this operation performed, whoever else
    shares the store (a recurring redistribution in a steady-state
    loop should show pure hits — the §3.2 run-time optimization at
    work); ``backend`` names the execution backend that moved the
    data.
    """

    def __init__(
        self,
        array_name: str,
        messages: int,
        bytes_: int,
        elements_moved: int,
        elements_kept: int,
        time: float,
        cache_hits: int = 0,
        cache_misses: int = 0,
        backend: str = "serial",
    ):
        self.array_name = array_name
        self.messages = messages
        self.bytes = bytes_
        self.elements_moved = elements_moved
        self.elements_kept = elements_kept
        self.time = time
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.backend = backend

    def summary(self) -> str:
        """One-line human summary including plan-cache behaviour."""
        return (
            f"{self.array_name}: {self.messages} msgs, {self.bytes}B, "
            f"moved={self.elements_moved}, kept={self.elements_kept}, "
            f"t={self.time:.3e}s  [backend={self.backend}, plan cache "
            f"{self.cache_hits} hit / {self.cache_misses} miss]"
        )

    def __repr__(self) -> str:
        return (
            f"RedistributionReport({self.array_name!r}: {self.messages} msgs, "
            f"{self.bytes}B, moved={self.elements_moved}, "
            f"kept={self.elements_kept}, t={self.time:.3e}s)"
        )


def transfer_matrix(
    old: Distribution, new: Distribution, nprocs: int
) -> np.ndarray:
    """Element counts to move between processors.

    Returns an ``(nprocs, nprocs)`` matrix ``T`` with ``T[s, d]`` the
    number of elements processor ``s`` must send to processor ``d``.
    The diagonal is zero: elements staying put need no transfer.  Data
    is sourced from the old *primary* owner; if the new distribution
    replicates, every replica receives a copy.
    """
    return RedistributionPlan(old, new, nprocs).matrix


_COMM_MESSAGES = _obs.counter(
    "repro_comm_messages_total",
    "Messages posted on the machine network, by communication kind.",
    ("kind",),
)
_COMM_BYTES = _obs.counter(
    "repro_comm_bytes_total",
    "Bytes posted on the machine network, by communication kind.",
    ("kind",),
)
_REDIST_ELEMENTS = _obs.counter(
    "repro_redistribute_elements_total",
    "Elements handled by COMMUNICATE, split moved vs kept in place.",
    ("action",),
)


def communicate(
    array: DistributedArray,
    new_dist: Distribution,
    transfer: bool = True,
    tag: str | None = None,
) -> RedistributionReport:
    """COMMUNICATE(C, old_dist, new_dist): move ``array`` to ``new_dist``.

    Performs the physical data motion (unless ``transfer`` is false —
    the NOTRANSFER case, where "only the access function ... is changed
    and the elements of the array are not physically moved"), records
    one aggregated message per communicating processor pair on the
    machine network, updates the descriptor, and reallocates segments.
    The plan comes from the machine's store (``array.machine.plans``).

    Returns a :class:`RedistributionReport`.
    """
    with _span("runtime.redistribute", array=array.name,
               transfer=transfer) as sp:
        report = _communicate(array, new_dist, transfer, tag)
        if sp is not None:
            sp.attrs.update(messages=report.messages, bytes=report.bytes,
                            moved=report.elements_moved)
        if report.messages or report.bytes:
            _COMM_MESSAGES.inc(report.messages, kind="redistribute")
            _COMM_BYTES.inc(report.bytes, kind="redistribute")
        _REDIST_ELEMENTS.inc(report.elements_moved, action="moved")
        _REDIST_ELEMENTS.inc(report.elements_kept, action="kept")
        return report


def _communicate(
    array: DistributedArray,
    new_dist: Distribution,
    transfer: bool,
    tag: str | None,
) -> RedistributionReport:
    machine = array.machine
    old_dist = array.descriptor.dist
    name = array.name
    tag = tag or f"redistribute:{name}"
    backend_name = machine.backend.name

    if not transfer:
        # Descriptor/access-function update only; element values are
        # left undefined under the new distribution (paper semantics:
        # the caller asserts it will overwrite them before reading).
        array.bind(new_dist)
        return RedistributionReport(
            name, 0, 0, 0, array.size, 0.0, backend=backend_name
        )

    t0 = machine.network.time
    stats0 = machine.stats()
    plan, hit = machine.plans.lookup(old_dist, new_dist, machine.nprocs)
    T = plan.matrix
    itemsize = array.itemsize
    # One aggregated message per communicating (src, dst) pair — the
    # run time "transfers ... array sections", not single elements —
    # all posted as one concurrent all-to-all phase.
    machine.network.exchange(
        [
            (int(s), int(d), int(T[s, d]) * itemsize, tag)
            for s, d in zip(*np.nonzero(T))
        ]
    )
    machine.network.synchronize()

    # Physical data motion.  The network above *accounts* (identically
    # for every backend); the machine's execution backend *moves* the
    # same plan's rectangles — segment to segment in this process for
    # the serial reference, by send/recv between worker processes for
    # SPMD backends.
    machine.backend.move(array, new_dist, plan)

    stats1 = machine.stats()
    return RedistributionReport(
        name,
        messages=stats1.messages - stats0.messages,
        bytes_=stats1.bytes - stats0.bytes,
        elements_moved=plan.moved,
        elements_kept=plan.kept,  # primary owner did not change
        time=machine.network.time - t0,
        cache_hits=int(hit),
        cache_misses=int(not hit),
        backend=backend_name,
    )
