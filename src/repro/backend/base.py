"""The execution-backend seam: who executes a bulk op, and who owns
that executor's lifetime.

The paper's object program is SPMD — "each processor executes
essentially the same code, but on a local data set", with DISTRIBUTE
"a run-time routine executed on each processor".  A backend
**executes**; the simulated :class:`~repro.machine.network.Network`
**accounts**.  Every bulk op has one call site in the run time, and it
reads the same on either backend: post the op's messages and compute
charges on the network, bump the obs counters, then call
``machine.backend.<op>(...)`` — so messages / bytes / modeled time, the
typed event stream and the metrics are backend-independent by
construction, and only the physical execution differs:

==============  ========================  ======================  ======================
op              the master accounts       SerialBackend           MultiprocessBackend
==============  ========================  ======================  ======================
move            one aggregated message    the plan's rectangles   each worker copies its
(DISTRIBUTE     per communicating pair    copied old segment ->   rectangles from the old
data motion)    (``communicate``)         new segment in place    segments, its own and
                                                                  its peers'
run_kernel      per-rank compute charges  rank-ordered loop over  one worker per owning
(owner-         (``foreach_owned``, the   the owners' segments    rank, on its shared
computes)       irregular sweep)                                  segment
stencil_step    one exchange phase per    slabs placed by the     slabs sent/received
(halo exchange  haloed dim + per-rank     overlap's one loop      between workers, then
+ update)       compute charges           (``place_halos``, as    the update on local
                (``StencilKernel.step``)  ``exchange()`` does),   data
                                          then the update rank
                                          by rank
sweep_lines     per-owner compute         global reassembly: the  one kernel op: each
(every line     charges (``LineSweep-     lines of all owners     worker solves the
along a dim,    Kernel._sweep_local``)    stacked into ONE solve  lines of its own
all local)                                (one batched TRIDIAG)   segment
==============  ========================  ======================  ======================

Both columns run the *same* kernel bodies (:mod:`repro.backend.ops`),
place halos with the same :func:`~repro.backend.plan.halo_dest_slice`
and ``move`` the same :class:`~repro.backend.plan.RedistributionPlan`,
selector for selector — what differs is only who copies (the global
``to_global`` -> ``from_global`` reassembly both are tested against
lives in the tests).  ``sweep_lines`` stays two implementations on
purpose: lines are independent ("parallelism comes from solving
many independent lines"), so in one process they are one batch and in
a fleet one share per worker — different stacks, the same arithmetic
per line.  (A sweep whose lines cross processors accounts its gathers
and scatters and then reassembles through the serial body whatever is
attached: there the messages are the model.)  A function the workers
cannot unpickle runs through the inherited serial loop inside
``MultiprocessBackend``: call sites never branch on the backend.

Lifetime: a machine always has a backend.  A fresh
:class:`~repro.machine.machine.Machine` carries :data:`SERIAL`;
:meth:`Backend.attach` **binds** a backend to it and
:meth:`Backend.close` **releases** it (array contents intact, the
machine back on :data:`SERIAL`).  What executes for a backend may
outlive the binding: worker fleets live in :attr:`Backend.fleets`,
started by the first binding that needs one and stopped by the dict's
owner — ``close()`` of a backend constructed by hand, the session's
``close()`` for every backend the session attaches, so a session forks
its workers once however many stages it runs.
:func:`attached_backend` is the one place a backend *name* becomes an
attached backend — the session calls it, nothing below the session
does.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable

import numpy as np

from .ops import solve_lines, stencil_apply

if TYPE_CHECKING:
    from ..machine.machine import Machine
    from ..runtime.darray import DistributedArray
    from ..runtime.overlap import OverlapManager

__all__ = [
    "Backend",
    "BackendError",
    "SerialBackend",
    "SERIAL",
    "resolve_backend",
    "attached_backend",
]


class BackendError(RuntimeError):
    """A worker failed or did not respond.

    ``retryable`` marks fleet-level faults (dead/hung workers) that a
    fleet restart plus op replay can recover from, as opposed to
    deterministic op errors that would fail identically on replay.
    ``dead_ranks``/``hung_ranks`` name the detected culprits.
    """

    def __init__(
        self,
        message: str,
        *,
        retryable: bool = False,
        dead_ranks: tuple = (),
        hung_ranks: tuple = (),
    ):
        super().__init__(message)
        self.retryable = bool(retryable)
        self.dead_ranks = tuple(dead_ranks)
        self.hung_ranks = tuple(hung_ranks)


class Backend:
    """Abstract SPMD execution backend.

    Lifecycle: construct, :meth:`attach` to one machine, run, and
    :meth:`close` (:func:`attached_backend` does all four).
    """

    #: short name used by CLIs and reports
    name = "abstract"

    def __init__(self) -> None:
        self.machine: "Machine | None" = None
        #: worker fleets by processor count that bindings run on (see
        #: the module docstring for who stops them)
        self.fleets: dict = {}

    # -- lifecycle -------------------------------------------------------
    def attach(self, machine: "Machine") -> "Backend":
        """Bind to ``machine`` (idempotent; one machine per backend)."""
        if self.machine is machine:
            return self
        if self.machine is not None:
            raise RuntimeError(
                f"{self.name} backend is already attached to a machine"
            )
        if machine.backend is not SERIAL:
            raise RuntimeError(
                f"machine already has a {machine.backend.name} backend"
            )
        self.machine = machine
        machine.backend = self
        try:
            self._on_attach(machine)
        except BaseException:
            # roll back completely: a machine must never be left
            # pointing at a half-initialized backend (and a partially
            # spawned worker fleet must not leak)
            self.close()
            raise
        return self

    def _on_attach(self, machine: "Machine") -> None:
        """Subclass hook: spawn workers, install allocators, ..."""

    def close(self) -> None:
        """Release the machine (shared segments included) and whatever
        executors this backend owns; the machine goes back to the
        serial default."""
        machine, self.machine = self.machine, None
        if machine is not None and machine.backend is self:
            machine.backend = SERIAL
            machine.set_segment_allocator(None)

    # -- operations (network accounting is the caller's job) -------------
    def move(self, array: "DistributedArray", new_dist, plan) -> None:
        """Physically move ``array`` to ``new_dist`` (descriptor update
        and segment reallocation included) by executing ``plan``, the
        :class:`~repro.backend.plan.RedistributionPlan` of the layout
        pair the caller has just accounted."""
        raise NotImplementedError

    def run_kernel(
        self, array: "DistributedArray", fn: Callable,
    ) -> None:
        """Owner-computes kernel: ``fn(rank, local, idx)`` mutates each
        owning rank's local segment in place (``idx`` = per-dimension
        global index arrays)."""
        raise NotImplementedError

    def stencil_step(
        self,
        array: "DistributedArray",
        overlap: "OverlapManager",
        func: Callable,
        dim_entries: list,
    ) -> None:
        """One halo-exchanged stencil sweep: load each segment into its
        padded ``overlap`` buffer, deliver the boundary slabs of
        ``dim_entries`` (``[(dim, shift_plan entries), ...]`` — the
        plan the caller has just accounted), then
        ``func(padded, out, widths)`` per owner, stored back into the
        segment."""
        raise NotImplementedError

    def sweep_lines(
        self,
        array: "DistributedArray",
        dim: int,
        line_func: Callable,
        batched: Callable | None = None,
    ) -> None:
        """Solve every line of ``array`` along ``dim`` in place:
        ``line_func(values) -> values`` per line, or its whole-batch
        form ``batched`` (``(nlines, n)`` in and out, see
        :func:`~repro.backend.ops.solve_lines`) when the caller
        resolved one.  A backend that splits the work needs every line
        local to its owner; :class:`SerialBackend`'s body does not."""
        raise NotImplementedError

    def __repr__(self) -> str:
        state = "attached" if self.machine is not None else "detached"
        return f"{type(self).__name__}({state})"


class SerialBackend(Backend):
    """The in-process reference backend.

    Redistribution copies the plan's rectangles segment to segment,
    kernels run as a rank-ordered loop in the master process.  This is
    the behaviour every other backend is conformance-tested against,
    bit for bit.
    It keeps no per-machine state, so one instance (:data:`SERIAL`)
    serves every machine nothing else is attached to.
    """

    name = "serial"

    def move(self, array: "DistributedArray", new_dist, plan) -> None:
        old = {rank: array.local(rank) for rank in array.owning_ranks()}
        array.bind(new_dist, fill=None)
        new = {rank: array.local(rank) for rank in array.owning_ranks()}
        for src, dst, old_sel, new_sel in plan.moves:
            new[dst][new_sel] = old[src][old_sel]

    def run_kernel(self, array: "DistributedArray", fn: Callable) -> None:
        for rank in array.owning_ranks():
            fn(rank, array.local(rank), array.local_indices(rank))

    def stencil_step(self, array, overlap, func, dim_entries) -> None:
        overlap.load_interior()
        for dim, entries in dim_entries:
            overlap.place_halos(dim, entries)
        for rank in array.owning_ranks():
            stencil_apply(
                array.local(rank), overlap.padded(rank), overlap.widths, func)

    def sweep_lines(self, array, dim, line_func, batched=None) -> None:
        gvals = array.to_global()
        solve_lines(np.moveaxis(gvals, dim, -1), line_func, batched)
        array.from_global(gvals)


#: the backend of every machine nothing else is attached to
SERIAL = SerialBackend()


def resolve_backend(spec) -> Backend:
    """Turn a backend spec into a backend the caller owns.

    ``None`` and ``"serial"`` give a fresh :class:`SerialBackend`;
    ``"multiprocess"`` a fresh
    :class:`~repro.backend.multiprocess.MultiprocessBackend`; a
    :class:`Backend` subclass is constructed; an instance passes
    through.
    """
    if spec is None or spec == "serial":
        return SerialBackend()
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, type) and issubclass(spec, Backend):
        return spec()
    if spec == "multiprocess":
        from .multiprocess import MultiprocessBackend

        return MultiprocessBackend()
    raise ValueError(
        f"unknown backend {spec!r} (expected 'serial', 'multiprocess', "
        f"a Backend subclass or a Backend instance)"
    )


@contextmanager
def attached_backend(machine: "Machine", spec, fleets: dict | None = None):
    """Run a block with backend ``spec`` attached to ``machine``.

    ``None`` leaves the machine on what it carries (the serial default
    unless the caller attached something); a name or a
    :class:`Backend` subclass constructs a fresh backend and closes it
    on exit (shared segments released, the machine back on the serial
    default); an already-constructed :class:`Backend` is attached but
    its lifetime stays with the caller.  ``fleets`` is a dict the
    caller owns: the backend runs on the worker fleets in it, adds the
    one it has to start, and leaves stopping them to the caller.
    """
    if spec is None:
        yield machine.backend
        return
    owns = not isinstance(spec, Backend)
    backend = resolve_backend(spec)
    if fleets is not None:
        backend.fleets = fleets
    backend.attach(machine)
    try:
        yield backend
    finally:
        if owns:
            backend.close()
