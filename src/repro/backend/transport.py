"""Message-passing transport between SPMD workers.

The explicit communication layer of the multiprocess backend: each
worker owns an inbox queue; point-to-point :meth:`Transport.send`
posts ``(channel, src, tag, payload)`` into the destination's inbox,
and :meth:`Transport.recv` pulls from the own inbox, stashing messages
that arrive ahead of the one being waited for (queues preserve
per-sender order, so a matching ``(src, tag)`` stream is FIFO).  A
worker holds one transport per binding of its fleet, all on the same
inbox; the channel (the binding's id) keeps what a failed op of one
binding left behind from ever matching a receive of another.
Collectives — :meth:`barrier` and :meth:`allgather` — are built from a
``multiprocessing.Barrier`` and point-to-point exchange.

Failure taxonomy (ISSUE 9): a barrier can end two ways and they mean
different things to the fleet supervisor.  A **timeout** (nobody
aborted, the full wait elapsed) means a peer is *hung*; a **break**
(some rank aborted, or the master tore the barrier down) means a peer
*died or errored*.  The former raises :class:`TransportTimeout`, the
latter the sharper :class:`TransportBroken` carrying the aborting
ranks read off the shared *abort board* — a ``nprocs``-slot shared
array each worker stamps before calling ``Barrier.abort()``.

This is the layer the :mod:`~repro.backend.calibrate` microbenchmarks
measure: a ``send``/``recv`` round trip *is* the machine's alpha/beta
for this backend.  DISTRIBUTE bytes no longer cross it (workers read
them out of their peers' segments), so the fitted beta prices halos
only.  Fault injection (:mod:`repro.faults`) hooks :meth:`send` and
:meth:`pull`, the by-reference read: an active plan can delay or drop
the nth message on a specific ``(src, dst)`` link.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from queue import Empty
from typing import Any

__all__ = ["TransportTimeout", "TransportBroken", "Transport"]

#: default seconds to wait on a receive/barrier before giving up — a
#: wedged peer fails loudly instead of hanging the suite.
DEFAULT_TIMEOUT = 120.0


class TransportTimeout(RuntimeError):
    """A receive or barrier did not complete within the timeout."""


class TransportBroken(TransportTimeout):
    """A collective was *aborted* — a peer died or errored, as opposed
    to silently running long.  ``aborted_ranks`` lists the ranks that
    stamped the abort board before breaking the barrier (empty when
    the break came from outside, e.g. a master-side teardown)."""

    def __init__(self, message: str, aborted_ranks: tuple[int, ...] = ()):
        super().__init__(message)
        self.aborted_ranks = tuple(aborted_ranks)


class Transport:
    """One worker's endpoint of the backend interconnect.

    Parameters
    ----------
    rank, nprocs:
        This endpoint's identity.
    inbox:
        ``multiprocessing.Queue`` this worker receives on.
    outboxes:
        Inbox queues of every worker, indexed by rank.
    barrier_obj:
        ``multiprocessing.Barrier`` over all ``nprocs`` workers.
    timeout:
        Seconds each :meth:`recv`/:meth:`barrier` waits (or ``deadline``).
    abort_board:
        Optional shared ``nprocs``-slot int array; a worker stamps its
        slot before aborting the barrier so peers can name the culprit.
    faults:
        Optional :class:`~repro.faults.FaultPlan` applied to outgoing
        messages (link delay/drop).  ``None`` disables injection.
    channel:
        Stamped on every message sent; messages of any other channel
        are discarded on receipt.
    """

    def __init__(
        self,
        rank: int,
        nprocs: int,
        inbox,
        outboxes,
        barrier_obj,
        timeout: float = DEFAULT_TIMEOUT,
        *,
        abort_board=None,
        faults=None,
        channel: int = 0,
    ):
        self.rank = rank
        self.nprocs = nprocs
        self._inbox = inbox
        self._outboxes = outboxes
        self._barrier = barrier_obj
        self.timeout = timeout
        #: monotonic time all waits end at (set per op), else None
        self.deadline: float | None = None
        self._abort_board = abort_board
        self.faults = faults
        self.channel = channel
        self._stash: dict[tuple[int, Any], list[Any]] = {}
        #: messages so far per (src, dst) link this rank is an end of
        #: (1-based ordinals — the coordinate fault plans address)
        self._links: Counter = Counter()
        self.sent_messages = 0
        self.received_messages = 0
        self.dropped_messages = 0

    # -- failure signalling ----------------------------------------------
    def mark_aborted(self) -> None:
        """Stamp this rank on the abort board (call before
        ``barrier.abort()`` so peers can tell who broke the collective)."""
        if self._abort_board is not None:
            self._abort_board[self.rank] = 1

    def aborted_ranks(self) -> tuple[int, ...]:
        if self._abort_board is None:
            return ()
        return tuple(
            r for r in range(self.nprocs) if self._abort_board[r]
        )

    # -- point to point --------------------------------------------------
    def send(self, dst: int, tag: Any, payload: Any) -> None:
        """Post ``payload`` to worker ``dst`` under ``tag``."""
        if not 0 <= dst < self.nprocs:
            raise IndexError(f"destination rank {dst} out of range")
        if self._in_flight(self.rank, dst):
            # vanishes in flight: the sender believes it was sent
            self.dropped_messages += 1
            self.sent_messages += 1
            return
        if dst == self.rank:
            # local delivery without touching the queue
            self._stash.setdefault((dst, tag), []).append(payload)
        else:
            self._outboxes[dst].put((self.channel, self.rank, tag, payload))
        self.sent_messages += 1

    def recv(self, src: int, tag: Any) -> Any:
        """Receive the next ``(src, tag)`` message (FIFO per sender)."""
        key = (src, tag)
        while not self._stash.get(key):
            wait = self._wait()
            try:
                channel, msg_src, msg_tag, payload = self._inbox.get(
                    timeout=wait
                )
            except Empty:
                raise TransportTimeout(
                    f"worker {self.rank}: no message from {src} tagged "
                    f"{tag!r} within {wait:.3g}s"
                ) from None
            # other channels' messages were left behind by a failed op
            # of another binding: dropped
            if channel == self.channel:
                self._stash.setdefault((msg_src, msg_tag), []).append(payload)
        self._links[src, self.rank] += 1
        self.received_messages += 1
        return self._stash[key].pop(0)

    # -- by reference ----------------------------------------------------
    def pull(self, src: int) -> None:
        """Count a read out of ``src``'s segment as the next message of
        link ``src -> rank``, delayed or lost like a sent one (a lost
        one fails at once, as its receive would have timed out)."""
        if self._in_flight(src, self.rank):
            raise TransportTimeout(
                f"worker {self.rank}: a message from {src} was lost in flight"
            )

    def pulled(self, counts: dict[int, int]) -> None:
        """The sender's half: peers pulled ``counts[dst]`` messages of
        link ``rank -> dst``, so later sends keep their ordinals."""
        for dst, n in counts.items():
            self._links[self.rank, dst] += n

    def _in_flight(self, src: int, dst: int) -> bool:
        """Count one more message of link ``src -> dst`` and apply the
        fault plan to it: sleep its delay; True if it is dropped."""
        self._links[src, dst] += 1
        nth = self._links[src, dst]
        if self.faults is None:
            return False
        if (delay := self.faults.link_delay(src, dst, nth)) > 0:
            time.sleep(delay)
        return self.faults.drops_message(src, dst, nth)

    # -- collectives -----------------------------------------------------
    def barrier(self) -> None:
        """Block until every worker reaches the barrier.

        Raises :class:`TransportBroken` when a peer aborted the
        collective (died or errored — retryable by a fleet restart)
        and :class:`TransportTimeout` when the full wait genuinely
        elapsed with nobody aborting (a hung peer).
        """
        start, wait = time.monotonic(), self._wait()
        try:
            self._barrier.wait(timeout=wait)
        except threading.BrokenBarrierError as exc:
            elapsed = time.monotonic() - start
            aborted = self.aborted_ranks()
            if aborted or elapsed < wait - 0.05:
                # broken from within (peer aborted) or torn down from
                # outside well before the deadline — not a slow peer
                who = (f"aborted by rank(s) {list(aborted)}"
                       if aborted else "aborted by a peer or the master")
                raise TransportBroken(
                    f"worker {self.rank}: barrier broken after "
                    f"{elapsed:.3f}s ({who})",
                    aborted_ranks=aborted,
                ) from exc
            raise TransportTimeout(
                f"worker {self.rank}: barrier timed out after "
                f"{wait:.3g}s (no peer aborted — a rank is hung)"
            ) from exc

    def _wait(self) -> float:
        """Seconds the next receive or barrier may wait."""
        end = self.deadline
        return self.timeout if end is None else max(end - time.monotonic(), 0.0)

    def allgather(self, value: Any, tag: Any = "allgather") -> list[Any]:
        """Every worker contributes ``value``; all receive all, by rank."""
        for peer in range(self.nprocs):
            if peer != self.rank:
                self.send(peer, tag, value)
        out = []
        for peer in range(self.nprocs):
            out.append(
                value if peer == self.rank else self.recv(peer, tag)
            )
        return out
