"""Typed execution events and the recording seam.

The machine's :class:`~repro.machine.network.Network` *accounts* every
operation as scalar clock arithmetic; the discrete-event simulator
needs the operations themselves.  An :class:`EventLog` taps the
network (install it with :func:`record` or
``Engine.record_events()``): every call to ``send`` / ``exchange`` /
``compute`` / ``synchronize`` — whichever layer issued it, including
the SPMD backends' master-side accounting — appends typed events in
program order:

- :attr:`EventKind.KERNEL` — local computation on one processor;
- :attr:`EventKind.SEND` / :attr:`EventKind.RECV` — the two endpoints
  of one message (paired by :attr:`Event.msg`; concurrent
  exchange-phase messages share an :attr:`Event.phase` id, sequential
  ``send`` traffic carries ``phase == -1``);
- :attr:`EventKind.BARRIER` — a global synchronize;
- :attr:`EventKind.ALLGATHER` / :attr:`EventKind.REDIST` — collective
  *phase markers* emitted ahead of an exchange phase whose message
  tags identify it as a gather/scatter/reduction collective or a
  DISTRIBUTE transfer; the per-message SEND/RECV events follow.

The log is the single input of :func:`repro.sim.simulate.simulate`;
replaying it in blocking mode reproduces the network's clock
arithmetic bit for bit (property-tested).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from ..machine.machine import Machine

__all__ = [
    "EventKind",
    "Event",
    "EventArrays",
    "EventLog",
    "record",
    "classify_tag",
    "KIND_CODES",
]


class EventKind(Enum):
    """The event vocabulary of the execution simulator."""

    KERNEL = "kernel"
    SEND = "send"
    RECV = "recv"
    BARRIER = "barrier"
    ALLGATHER = "allgather"
    REDIST = "redistribute-transfer"


#: tag prefixes marking an exchange phase as a DISTRIBUTE transfer
_REDIST_PREFIXES = ("redistribute", "assign", "pic:reassign")
#: tag prefixes marking an exchange phase as a gather-class collective
_COLLECTIVE_PREFIXES = ("gather", "scatter", "reduce", "bcast", "allgather")


def classify_tag(tag: str) -> EventKind | None:
    """Collective classification of a message tag.

    Returns :attr:`EventKind.REDIST` for DISTRIBUTE / array-assignment
    transfers, :attr:`EventKind.ALLGATHER` for gather/scatter/reduce
    collectives, and ``None`` for plain point-to-point traffic (halo
    shifts, line-sweep pieces, single-element reads).
    """
    if tag.startswith(_REDIST_PREFIXES):
        return EventKind.REDIST
    if tag.startswith(_COLLECTIVE_PREFIXES):
        return EventKind.ALLGATHER
    return None


@dataclass(frozen=True)
class Event:
    """One typed execution event.

    ``rank`` is the processor the event occupies (the source for SEND,
    the destination for RECV, ``-1`` for global events); ``peer`` the
    other endpoint of a message; ``phase`` groups the messages of one
    concurrent exchange phase (``-1``: a sequential blocking send);
    ``msg`` pairs a SEND with its RECV.
    """

    seq: int
    kind: EventKind
    rank: int
    peer: int = -1
    nbytes: int = 0
    flops: float = 0.0
    tag: str = ""
    phase: int = -1
    msg: int = -1

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind.value,
            "rank": self.rank,
            "peer": self.peer,
            "nbytes": self.nbytes,
            "flops": self.flops,
            "tag": self.tag,
            "phase": self.phase,
            "msg": self.msg,
        }


#: integer codes of each :class:`EventKind` in structure-of-arrays form
KIND_CODES: dict[EventKind, int] = {
    EventKind.KERNEL: 0,
    EventKind.SEND: 1,
    EventKind.RECV: 2,
    EventKind.BARRIER: 3,
    EventKind.ALLGATHER: 4,
    EventKind.REDIST: 5,
}


class EventArrays:
    """Structure-of-arrays event storage for the vectorized replayer.

    One parallel numpy array per :class:`Event` field the replay
    arithmetic touches (``kind`` as the integer :data:`KIND_CODES`,
    ``rank``/``peer``/``phase`` as int64, ``nbytes`` int64, ``flops``
    float64).  Tags and message pairing are dropped — they label
    timelines but never move a clock, so the fast blocking replay of
    :func:`repro.sim.replay.replay_blocking` does not need them.

    Build from a log with :meth:`EventLog.to_arrays` (cached), or
    directly with :meth:`exchange` for synthetic single-phase traces
    (the planner's transition pricing).
    """

    __slots__ = ("kind", "rank", "peer", "nbytes", "flops", "phase")

    def __init__(
        self,
        kind: np.ndarray,
        rank: np.ndarray,
        peer: np.ndarray,
        nbytes: np.ndarray,
        flops: np.ndarray,
        phase: np.ndarray,
    ):
        self.kind = kind
        self.rank = rank
        self.peer = peer
        self.nbytes = nbytes
        self.flops = flops
        self.phase = phase

    def __len__(self) -> int:
        return len(self.kind)

    @classmethod
    def from_events(cls, events: "list[Event]") -> "EventArrays":
        """Pack a program-ordered event list into parallel arrays."""
        n = len(events)
        kind = np.empty(n, dtype=np.int8)
        rank = np.empty(n, dtype=np.int64)
        peer = np.empty(n, dtype=np.int64)
        nbytes = np.empty(n, dtype=np.int64)
        flops = np.empty(n, dtype=np.float64)
        phase = np.empty(n, dtype=np.int64)
        for i, ev in enumerate(events):
            kind[i] = KIND_CODES[ev.kind]
            rank[i] = ev.rank
            peer[i] = ev.peer
            nbytes[i] = ev.nbytes
            flops[i] = ev.flops
            phase[i] = ev.phase
        return cls(kind, rank, peer, nbytes, flops, phase)

    @classmethod
    def exchange(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        barrier: bool = True,
    ) -> "EventArrays":
        """One concurrent exchange phase (plus closing barrier) as
        arrays — the trace shape of a DISTRIBUTE all-to-all, built
        without materializing per-message :class:`Event` objects."""
        m = len(src)
        n = m + (1 if barrier else 0)
        kind = np.full(n, KIND_CODES[EventKind.SEND], dtype=np.int8)
        rank = np.empty(n, dtype=np.int64)
        peer = np.full(n, -1, dtype=np.int64)
        nb = np.zeros(n, dtype=np.int64)
        phase = np.full(n, 0, dtype=np.int64)
        rank[:m] = src
        peer[:m] = dst
        nb[:m] = nbytes
        if barrier:
            kind[m] = KIND_CODES[EventKind.BARRIER]
            rank[m] = -1
            phase[m] = -1
        return cls(kind, rank, peer, nb, np.zeros(n, dtype=np.float64), phase)


class EventLog:
    """An append-only, program-ordered log of typed events.

    Instances implement the recorder protocol the network calls
    (:meth:`kernel`, :meth:`message`, :meth:`begin_phase`,
    :meth:`barrier`, :meth:`clear`); everything else is inspection.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._next_phase = 0
        self._next_msg = 0
        self._arrays: EventArrays | None = None

    # -- the recorder protocol (called by Network) -----------------------
    def kernel(self, rank: int, flops: float, tag: str = "") -> None:
        """Record local computation charged to ``rank``."""
        self.events.append(
            Event(len(self.events), EventKind.KERNEL, rank, flops=flops, tag=tag)
        )

    def begin_phase(self, tag: str = "") -> int:
        """Open a concurrent exchange phase; returns its id.

        If ``tag`` classifies as a collective, a typed marker event
        (ALLGATHER or REDIST) is emitted ahead of the phase's
        SEND/RECV events.
        """
        phase = self._next_phase
        self._next_phase += 1
        kind = classify_tag(tag)
        if kind is not None:
            self.events.append(
                Event(len(self.events), kind, -1, tag=tag, phase=phase)
            )
        return phase

    def message(
        self, src: int, dst: int, nbytes: int, tag: str = "", phase: int = -1
    ) -> None:
        """Record one message: a SEND at ``src`` paired with a RECV at
        ``dst`` (shared ``msg`` id)."""
        msg = self._next_msg
        self._next_msg += 1
        self.events.append(
            Event(
                len(self.events), EventKind.SEND, src, peer=dst,
                nbytes=nbytes, tag=tag, phase=phase, msg=msg,
            )
        )
        self.events.append(
            Event(
                len(self.events), EventKind.RECV, dst, peer=src,
                nbytes=nbytes, tag=tag, phase=phase, msg=msg,
            )
        )

    def barrier(self, tag: str = "") -> None:
        """Record a global synchronize."""
        self.events.append(
            Event(len(self.events), EventKind.BARRIER, -1, tag=tag)
        )

    def clear(self) -> None:
        """Drop all events (the network calls this from ``reset()``)."""
        self.events.clear()
        self._next_phase = 0
        self._next_msg = 0
        self._arrays = None

    def to_arrays(self) -> EventArrays:
        """Structure-of-arrays view of the log (built once, cached).

        The log is append-only between ``clear()`` calls, so the cache
        is valid exactly when its length matches the event count.
        """
        if self._arrays is None or len(self._arrays) != len(self.events):
            self._arrays = EventArrays.from_events(self.events)
        return self._arrays

    # -- inspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def counts(self) -> dict[str, int]:
        """Event counts by kind (keys are the kind values)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind.value] = out.get(ev.kind.value, 0) + 1
        return out

    def messages(self) -> list[Event]:
        """The SEND side of every recorded message, in program order."""
        return [ev for ev in self.events if ev.kind is EventKind.SEND]

    def __repr__(self) -> str:
        return f"EventLog({len(self.events)} events, {self.counts()})"


@contextmanager
def record(machine: "Machine", log: EventLog | None = None):
    """Record every network operation of ``machine`` into an event log.

    The previous recorder (usually none) is restored on exit, so
    recording sessions nest cleanly::

        log = EventLog()
        with record(machine, log):
            execute_adi(machine, 32, 32, 2, "dynamic")
        timeline = simulate(log, machine.cost_model, machine.nprocs)

    Note that a workload which calls ``machine.reset_network()``
    internally (ADI, PIC) also clears the log at that point — clocks
    and events stay consistent by construction.
    """
    if log is None:
        log = EventLog()
    network = machine.network
    previous = network.recorder
    network.recorder = log
    try:
        yield log
    finally:
        network.recorder = previous
