"""The split-phase (nonblocking post/wait) transformation.

The run time's communication routines are *blocking*: every exchange
phase is followed by a ``synchronize()`` before any dependent kernel
runs (see e.g. :func:`repro.runtime.communication.post_shift`).
Split-phase communication — post the sends/recvs, compute, wait — is
the classic compiler transformation for hiding communication latency
behind independent computation; the Vienna Fortran performance
companion tools evaluated exactly this kind of restructuring from
traces rather than by rewriting the program.

This module performs that transformation *on the event trace*:
:func:`relaxed_barriers` identifies every barrier that only closes a
communication phase (messages but no kernels since the previous
barrier).  In split-phase mode the simulator skips those barriers —
the transfers stay in flight while subsequent kernels execute, and the
wait migrates to the next *computation* barrier (or the end of the
trace).  Message posts cost the startup latency ``alpha`` on each
endpoint; the ``beta * nbytes`` transfer proceeds in the background,
serialized per directed link (in-order delivery).

The result is the *maximal legal overlap* bound: all computation
between post and wait is treated as independent of the in-flight data
(a real split-phase lowering would only overlap the interior part of a
stencil, say).  Blocking mode is exact; split-phase mode is the
optimistic envelope a restructuring compiler could approach.
"""

from __future__ import annotations

from typing import Iterable

from .events import Event, EventKind

__all__ = ["relaxed_barriers", "overlappable_phases"]


def relaxed_barriers(events: Iterable[Event]) -> frozenset[int]:
    """Barrier ordinals the split-phase transform removes.

    A barrier is *relaxed* when the segment since the previous barrier
    contains at least one message but no kernel: it exists only to
    complete the communication it follows, which is precisely the wait
    a split-phase lowering defers.  Barriers guarding computation (a
    kernel ran in the segment) are kept — they are where the deferred
    waits land.

    Returns the set of barrier ordinals (0 for the first BARRIER event
    in the trace, 1 for the second, ...).
    """
    relaxed: set[int] = set()
    ordinal = 0
    seen_msg = False
    seen_kernel = False
    for ev in events:
        if ev.kind is EventKind.BARRIER:
            if seen_msg and not seen_kernel:
                relaxed.add(ordinal)
            ordinal += 1
            seen_msg = False
            seen_kernel = False
        elif ev.kind is EventKind.KERNEL:
            seen_kernel = True
        elif ev.kind is EventKind.SEND:
            seen_msg = True
    return frozenset(relaxed)


def overlappable_phases(events: Iterable[Event]) -> dict[int, bool]:
    """Which exchange phases the transform can overlap with compute.

    Returns ``{phase_id: True/False}``: a phase is overlappable when
    the barrier that closes its segment is relaxed — i.e. kernels
    follow before the next kept barrier.  Purely diagnostic (the
    benches report how much of the traffic is hideable).
    """
    relaxed = relaxed_barriers(events)
    out: dict[int, bool] = {}
    ordinal = 0
    open_phases: set[int] = set()
    for ev in events:
        if ev.kind is EventKind.BARRIER:
            for p in open_phases:
                out[p] = ordinal in relaxed
            open_phases.clear()
            ordinal += 1
        elif ev.kind is EventKind.SEND and ev.phase >= 0:
            open_phases.add(ev.phase)
    for p in open_phases:  # trailing phases never closed by a barrier
        out[p] = True
    return out
