"""The SPMD worker process of the multiprocess backend.

One worker per processor of the :class:`~repro.machine.topology.ProcessorArray`.
Each worker runs :func:`worker_main`: an endless command loop that
receives ``(op, kwargs)`` pairs from the master, executes the op
against its rank's shared-memory segments and the message-passing
:class:`~repro.backend.transport.Transport`, and acknowledges on the
shared result queue.  Ops are module-level functions from
:mod:`~repro.backend.ops` (picklable by reference), so the command
stream works under both ``fork`` and ``spawn`` start methods.

Liveness and fault hooks (ISSUE 9): the worker stamps a shared
*heartbeat* slot at every command receipt and completion, which is
what lets the master's :class:`~repro.backend.multiprocess.FleetSupervisor`
tell a hung worker (stale heartbeat, process alive) from a dead one
(exitcode set).  When a :class:`~repro.faults.FaultPlan` is threaded
in, the loop consults it before each op: a matching
:class:`~repro.faults.WorkerCrash` hard-exits the process
(``os._exit`` — no goodbye, exactly like a segfaulted node), a
matching :class:`~repro.faults.KernelStall` sleeps before executing
(a slow node).  With no plan, the hooks are a ``None`` check.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any

import numpy as np

from . import shm as _shm
from .shm import BlockMeta, attach
from .transport import Transport

__all__ = ["WorkerContext", "worker_main"]


class WorkerContext:
    """What an op sees: its rank, the transport, and segment access."""

    def __init__(self, rank: int, nprocs: int, transport: Transport):
        self.rank = rank
        self.nprocs = nprocs
        self.transport = transport
        #: the master's command sequence number of the op currently
        #: executing — identical on every worker, so ops can scope
        #: their transport tags to the op (a failed op's unconsumed
        #: messages then never match a later op's receives)
        self.seq = 0
        self._attached: list = []

    def attach(self, meta: BlockMeta | None) -> np.ndarray | None:
        """Map a shared block; the view is valid until :meth:`release`."""
        if meta is None:
            return None
        shm, arr = attach(meta)
        self._attached.append((shm, arr))
        return arr

    def release(self) -> None:
        """Drop every mapping taken since the last release."""
        views = self._attached
        self._attached = []
        while views:
            shm, arr = views.pop()
            del arr
            shm.close()


def worker_main(
    rank: int,
    nprocs: int,
    cmd_queue,
    result_queue,
    inbox,
    outboxes,
    barrier_obj,
    timeout: float,
    unregister_on_attach: bool = True,
    heartbeat=None,
    abort_board=None,
    faults=None,
) -> None:
    """Command loop body of one worker process."""
    _shm.unregister_on_attach = unregister_on_attach
    transport = Transport(
        rank, nprocs, inbox, outboxes, barrier_obj, timeout=timeout,
        abort_board=abort_board, faults=faults,
    )
    ctx = WorkerContext(rank, nprocs, transport)
    while True:
        cmd = cmd_queue.get()
        if cmd is None:  # shutdown
            break
        op, kwargs, seq = cmd
        ctx.seq = seq
        if heartbeat is not None:
            heartbeat[rank] = time.monotonic()
        if faults is not None:
            crash = faults.crash_for(rank, seq)
            if crash is not None:
                # a hard node failure: no ack, no barrier abort, no
                # cleanup — the master finds out from the exitcode
                os._exit(crash.exit_code)
            stall = faults.stall_for(rank, seq)
            if stall is not None:
                time.sleep(stall.seconds)
        try:
            payload: Any = op(ctx, **kwargs)
            result_queue.put((rank, seq, "ok", payload))
        except BaseException as exc:  # report, never wedge the master
            # break the collective barrier so peers waiting on this
            # worker fail fast instead of riding out their timeout;
            # stamp the abort board first so their TransportBroken
            # names this rank (the master resets both after acks)
            transport.mark_aborted()
            try:
                barrier_obj.abort()
            except Exception:  # pragma: no cover
                pass
            result_queue.put(
                (
                    rank,
                    seq,
                    "error",
                    f"{type(exc).__name__}: {exc}\n"
                    f"{traceback.format_exc()}",
                )
            )
        finally:
            if heartbeat is not None:
                heartbeat[rank] = time.monotonic()
            ctx.release()
