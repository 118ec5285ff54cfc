"""The SPMD worker process of the multiprocess backend.

One worker per processor of the :class:`~repro.machine.topology.ProcessorArray`.
Each worker runs :func:`worker_main`: an endless command loop that
receives ``(binding, seq, op, kwargs, freed)`` from the master over its
own duplex pipe, executes the op against its rank's shared-memory
segments and the binding's message-passing
:class:`~repro.backend.transport.Transport`, and acknowledges on the
same pipe.  Ops are module-level functions from
:mod:`~repro.backend.ops` (picklable by reference), so the command
stream works under both ``fork`` and ``spawn`` start methods.

A worker outlives the machines its fleet is bound to, so what it
remembers is keyed by handles the master issued and dropped when the
master says so (``freed``, piggy-backed on the next command): segment
mappings by shm name (views of them by :class:`~repro.backend.shm.BlockMeta`:
a reused segment may come back in another shape), transports by id.

Liveness and fault hooks (ISSUE 9): the worker stamps a shared
*heartbeat* slot at every command receipt and completion, which is
what lets the master tell a hung worker (stale heartbeat, process
alive) from a dead one (process sentinel).  A binding's
:class:`~repro.faults.FaultPlan` arrives with its bind op and is
consulted before each of its ops: a matching
:class:`~repro.faults.WorkerCrash` hard-exits the process
(``os._exit`` — no goodbye, exactly like a segfaulted node), a
matching :class:`~repro.faults.KernelStall` sleeps before executing
(a slow node).  With no plan, the hooks are a ``None`` check.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import Callable

import numpy as np

from . import shm as _shm
from .shm import BlockMeta, attach
from .transport import Transport

__all__ = ["WorkerContext", "worker_main"]


class WorkerContext:
    """What an op sees: its rank, the transport, and segment access."""

    def __init__(self, rank: int, nprocs: int, make_transport: Callable):
        self.rank = rank
        self.nprocs = nprocs
        #: id of the binding whose op is executing, and its transport
        #: (``None`` only while the binding's own bind op runs)
        self.binding = 0
        self.transport: Transport | None = None
        #: the master's command sequence number of the op currently
        #: executing — identical on every worker, so ops can scope
        #: their transport tags to the op (a failed op's unconsumed
        #: messages then never match a later op's receives)
        self.seq = 0
        #: monotonic time the executing op's waits end at
        self.deadline: float | None = None
        self.transports: dict[int, Transport] = {}
        self._maps: dict[str, tuple] = {}
        self._make_transport = make_transport

    def bind(self, faults) -> None:
        """Start the executing binding: a fresh transport, so message
        ordinals, the stash and the latched fault plan all restart."""
        self.transport = self.transports[self.binding] = (
            self._make_transport(self.binding, faults)
        )
        self.transport.deadline = self.deadline

    def attach(self, meta: BlockMeta | None, writable: bool = True):
        """A view of a shared block (read-only for a peer's), its segment
        mapped on first use and kept until the master frees it (shm
        names are unique per segment: a cached mapping is never wrong)."""
        if meta is None:
            return None
        mapping = self._maps.get(meta.shm_name)
        if mapping is None:
            mapping = self._maps[meta.shm_name] = (attach(meta.shm_name), {})
        shm, views = mapping
        view = views.get((meta, writable))
        if view is None:
            view = views[meta, writable] = np.ndarray(
                meta.shape, dtype=meta.np_dtype, buffer=shm.buf)
            view.flags.writeable = writable
        return view

    def forget(self, freed) -> None:
        """Drop what the master freed since its last command: segment
        mappings (by shm name) and bindings (by id)."""
        for key in freed:
            self.transports.pop(key, None)
            if key in self._maps:
                shm, views = self._maps.pop(key)
                views.clear()  # the views must go before the handle closes
                shm.close()


def worker_main(
    rank: int,
    nprocs: int,
    conn,
    inbox,
    outboxes,
    barrier_obj,
    timeout: float,
    unregister_on_attach: bool,
    heartbeat,
    abort_board,
) -> None:
    """Command loop body of one worker process."""
    # a forked worker inherits the master's handlers; one that raises
    # (SIGTERM -> SystemExit) would be caught below and survive
    # terminate(), so take the default dispositions back
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    _shm.unregister_on_attach = unregister_on_attach
    ctx = WorkerContext(
        rank, nprocs,
        lambda channel, faults: Transport(
            rank, nprocs, inbox, outboxes, barrier_obj, timeout=timeout,
            abort_board=abort_board, faults=faults, channel=channel,
        ),
    )
    while True:
        cmd = conn.recv()
        if cmd is None:  # shutdown
            break
        ctx.binding, ctx.seq, op, kwargs, freed = cmd
        ctx.forget(freed)
        transport = ctx.transport = ctx.transports.get(ctx.binding)
        faults = transport.faults if transport is not None else None
        heartbeat[rank] = received = time.monotonic()
        # half a timeout: a lost message fails here, not at the master
        ctx.deadline = received + timeout / 2
        if transport is not None:
            transport.deadline = ctx.deadline
        if faults is not None:
            crash = faults.crash_for(rank, ctx.seq)
            if crash is not None:
                # a hard node failure: no ack, no barrier abort, no
                # cleanup — the master finds out from the sentinel
                os._exit(crash.exit_code)
            stall = faults.stall_for(rank, ctx.seq)
            if stall is not None:
                time.sleep(stall.seconds)
        try:
            conn.send(("ok", op(ctx, **kwargs)))
        except BaseException as exc:  # report, never wedge the master
            # break the collective barrier so peers waiting on this
            # worker fail fast instead of riding out their timeout;
            # stamp the abort board first so their TransportBroken
            # names this rank (the master resets both after acks)
            if transport is not None:
                transport.mark_aborted()
            try:
                barrier_obj.abort()
            except Exception:  # pragma: no cover
                pass
            conn.send((
                "error",
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            ))
        finally:
            heartbeat[rank] = time.monotonic()
    for q in outboxes:  # exit now: nobody will read what is unflushed
        q.cancel_join_thread()
