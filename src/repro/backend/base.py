"""The execution-backend seam.

The paper's object programs "execute on distributed-memory machines in
SPMD mode"; the reproduction historically executed everything in one
Python process against the simulated machine.  A :class:`Backend`
makes that execution tier pluggable:

- :class:`SerialBackend` — today's in-process semantics, unchanged;
  it is the bitwise *reference* every other backend must match;
- :class:`~repro.backend.multiprocess.MultiprocessBackend` — one real
  OS process per simulated processor, segments in shared memory,
  transfer plans / halo exchanges / kernels executed through an
  explicit message-passing transport.

A backend **executes**; the simulated :class:`~repro.machine.network.Network`
still **accounts**.  Both backends drive the same accounting code, so
messages/bytes/modeled-time reports are identical by construction and
only the physical execution differs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from ..machine.machine import Machine
    from ..runtime.darray import DistributedArray

__all__ = [
    "Backend",
    "BackendError",
    "SerialBackend",
    "serial_move",
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


def serial_move(array: "DistributedArray", new_dist) -> None:
    """The reference data motion of a redistribution: global
    reassembly, descriptor update, reallocation, scatter.

    This single implementation IS the bitwise baseline — both the
    run time's in-process path (:func:`repro.runtime.redistribute.communicate`
    without an SPMD backend) and :class:`SerialBackend` call it, so
    the conformance oracle cannot drift from the executed semantics.
    """
    gvals = array.to_global()
    array.descriptor.set_dist(new_dist)
    array._allocate_segments(fill=None)
    array.from_global(gvals)


class Backend:
    """Abstract SPMD execution backend.

    Lifecycle: construct, :meth:`attach` to one machine (the
    :class:`~repro.runtime.engine.Engine` does this), run, and
    :meth:`close`.  Backends are context managers.
    """

    #: short name used by CLIs and reports
    name = "abstract"
    #: True if operations execute in per-processor workers (and the
    #: run time must route bulk data motion through the backend).
    executes_spmd = False

    def __init__(self) -> None:
        self.machine: "Machine | None" = None

    # -- lifecycle -------------------------------------------------------
    def attach(self, machine: "Machine") -> "Backend":
        """Bind to ``machine`` (idempotent; one machine per backend)."""
        if self.machine is machine:
            return self
        if self.machine is not None:
            raise RuntimeError(
                f"{self.name} backend is already attached to a machine"
            )
        if machine.backend is not None and machine.backend is not self:
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
        """Release workers and shared resources; detach the machine."""
        machine, self.machine = self.machine, None
        if machine is not None and machine.backend is self:
            machine.backend = None
            machine.set_segment_allocator(None)

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- event recording ---------------------------------------------------
    @property
    def recorder(self):
        """The event recorder of the attached machine's network.

        Every backend drives the same master-side accounting code the
        serial reference does, so an installed
        :class:`repro.sim.events.EventLog` captures an identical
        typed-event stream regardless of which backend physically
        moves the data — the simulator's backend seam.
        """
        return self.machine.network.recorder if self.machine is not None else None

    def record_events(self, log=None):
        """Record this backend's execution as typed events (context
        manager; requires an attached machine).  See
        :func:`repro.sim.record`."""
        if self.machine is None:
            raise RuntimeError("backend is not attached to a machine")
        from ..sim.events import record

        return record(self.machine, log)

    # -- operations ------------------------------------------------------
    def move(self, array: "DistributedArray", new_dist, plan_cache=None) -> None:
        """Physically move ``array`` to ``new_dist`` (descriptor update
        and segment reallocation included).  Network accounting is the
        caller's job; ``plan_cache`` lets backends share memoized
        transfer plans with the run time."""
        raise NotImplementedError

    def run_kernel(
        self, array: "DistributedArray", fn: Callable,
    ) -> None:
        """Owner-computes kernel: ``fn(rank, local, idx)`` mutates each
        owning rank's local segment in place (``idx`` = per-dimension
        global index arrays)."""
        raise NotImplementedError

    @staticmethod
    def can_ship(fn) -> bool:
        """True if ``fn`` can be dispatched to this backend's workers
        (serial execution can run anything in-process)."""
        return True

    def __repr__(self) -> str:
        state = "attached" if self.machine is not None else "detached"
        return f"{type(self).__name__}({state})"


class SerialBackend(Backend):
    """The in-process reference backend — today's semantics, verbatim.

    Redistribution moves data by global reassembly, kernels run as a
    rank-ordered loop in the master process.  This is the behaviour
    every other backend is conformance-tested against, bit for bit.
    """

    name = "serial"
    executes_spmd = False

    def move(self, array: "DistributedArray", new_dist, plan_cache=None) -> None:
        serial_move(array, new_dist)

    def run_kernel(self, array: "DistributedArray", fn: Callable) -> None:
        for rank in array.owning_ranks():
            idx = array.local_indices(rank)
            fn(rank, array.local(rank), idx)


@contextmanager
def attached_backend(machine: "Machine", spec):
    """Attach a backend spec to ``machine`` for the duration of a run.

    ``None`` reuses whatever is already attached (possibly nothing);
    an already-constructed :class:`Backend` is attached but its
    lifecycle stays with the caller; a *name* (``"serial"``,
    ``"multiprocess"``) constructs a fresh backend and closes it on
    exit — the convenience path of the apps' ``backend=`` parameters.
    """
    if spec is None:
        yield machine.backend
        return
    owns = not isinstance(spec, Backend)
    backend = resolve_backend(spec)
    backend.attach(machine)
    try:
        yield backend
    finally:
        if owns:
            backend.close()


def resolve_backend(spec) -> Backend:
    """Turn a backend spec (instance, name, or ``None``) into a backend.

    ``None`` and ``"serial"`` give a fresh :class:`SerialBackend`;
    ``"multiprocess"`` gives a fresh
    :class:`~repro.backend.multiprocess.MultiprocessBackend` (the
    caller owns its lifecycle); an instance passes through.
    """
    if spec is None or spec == "serial":
        return SerialBackend()
    if isinstance(spec, Backend):
        return spec
    if spec == "multiprocess":
        from .multiprocess import MultiprocessBackend

        return MultiprocessBackend()
    raise ValueError(
        f"unknown backend {spec!r} (expected 'serial', 'multiprocess', "
        f"or a Backend instance)"
    )
