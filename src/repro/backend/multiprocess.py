"""Real SPMD execution: one worker process per simulated processor.

The :class:`MultiprocessBackend` is the "object program" tier the
paper's abstract machine compiles to, realized with the Python
standard library: per-processor worker processes, local segments in
``multiprocessing.shared_memory`` (see :mod:`~repro.backend.shm`),
and an explicit message-passing transport with point-to-point
send/recv and barrier/allgather collectives
(:mod:`~repro.backend.transport`).  Transfer plans, halo exchanges
and owner-computes kernels execute *in the workers*
(:mod:`~repro.backend.ops`); the master only plans, accounts on the
simulated network, and reads results back through shared memory.  A
kernel function the workers cannot unpickle runs through the
inherited serial loops instead — same contents, different process.

Bind / release / close.  The processors of a running SPMD program
outlive the phases it redistributes between, and so does a
:class:`Fleet`: ``nprocs`` workers on one duplex pipe each, started by
the first binding that needs them, restarted *in place* when one dies.
A :class:`MultiprocessBackend` is one **binding** of a fleet to one
machine.  ``attach`` binds: a fresh segment allocator, a fresh id, and
``op_bind`` as op 1 — the fleet health check, which also starts the
binding's transport on every worker, so op sequence numbers, per-link
message ordinals, the latched fault plan and the allocation counter
are all relative to the attach.  ``close`` releases: the machine's
arrays move to ordinary memory, *its* segments are unlinked (workers
drop their mappings with the next command they get), the machine is
back on the serial default.  The fleet stops with whoever owns
:attr:`~repro.backend.base.Backend.fleets` — a session, or the backend
itself when it was constructed by hand.  Bindings that share a fleet
(a session's engine and the stage running beside it) take turns, one
op at a time; snapshots are per binding.

Barriers: ``op_bind``'s *is* the check that the collective works, and
the calibration microbenchmarks fence their timings with one.  No
other op ends in one.  Halo slabs travel between workers by copy
through the transport.  A DISTRIBUTE's rectangles are read straight
out of the peers' *old* segments, which the master keeps alive and
nobody writes during the op, while each rank writes only its new one.
So all an op needs is "every rank is done before the master moves on"
(e.g. before it retains or unlinks a redistribution's old segments) —
which collecting the acks already establishes.

Fault tolerance (ISSUE 9): every op boundary is a consistent cut —
workers are quiescent between acks, and all array state lives in the
master-owned shared segments.  :meth:`MultiprocessBackend.run_op`
therefore copies the blocks the op may write before dispatch, and the
master waits on the pipes *and* the process sentinels: a dead worker
is seen the moment it dies, a hung one (stale heartbeat) within
``hang_timeout``.  Either way the fleet is killed, the
:class:`FleetSupervisor` starts fresh workers and restores the copy,
and the op is bound again and replayed under fresh sequence numbers —
bitwise-identical to an uninterrupted run, because the replayed op
starts from the same bytes and ops themselves are deterministic.
Deterministic worker errors (an op raising) are **not** retried: they
would fail identically, so they surface as a non-retryable
:class:`BackendError` and the session layer degrades to the serial
backend instead.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import pickle
import sys
import threading
import time
from collections import defaultdict
from functools import partial
from multiprocessing import connection, resource_tracker
from typing import TYPE_CHECKING, Callable

from ..faults import plan as _faults
from ..obs import flight as _flight
from ..obs import metrics as _obs
from .base import BackendError, SerialBackend
from .ops import (
    line_sweep_kernel, op_bind, op_local_kernel, op_move, op_stencil_step,
)
from .plan import halo_dest_slice
from .shm import SharedSegmentAllocator
from .worker import worker_main

if TYPE_CHECKING:
    from ..machine.machine import Machine
    from ..runtime.darray import DistributedArray

__all__ = ["FleetSupervisor", "MultiprocessBackend"]


_BACKEND_OPS = _obs.counter(
    "repro_backend_ops_total",
    "SPMD ops broadcast by the master, by op name and outcome.",
    ("op", "status"),
)
_BACKEND_COMMANDS = _obs.counter(
    "repro_backend_commands_total",
    "Per-worker command sends and acknowledgements at the master.",
    ("direction",),
)
_FLEET_STARTS = _obs.counter(
    "repro_backend_fleet_starts_total",
    "Worker fleets started: a binding's first use, or a recovery.",
    ("cause",),
)
_FLEET_RESTARTS = _obs.counter(
    "repro_backend_fleet_restarts_total",
    "Worker-fleet teardown/respawn recoveries at the master, by cause.",
    ("cause",),
)
_SNAPSHOT_BYTES = _obs.counter(
    "repro_backend_snapshot_bytes_total",
    "Bytes copied into op-boundary checkpoints before dispatch.",
)

#: binding ids, process-wide: an id names one binding on every fleet
#: and makes its shm names unique
_IDS = itertools.count(1)


def _can_ship(fn) -> bool:
    """True if ``fn`` can be sent to workers (pickles by value/ref)."""
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False


def _pick_start_method(requested: str | None) -> str:
    if requested is not None:
        return requested
    methods = mp.get_all_start_methods()
    # fork keeps startup fast, but is only safe on Linux (macOS's
    # Objective-C runtime and Accelerate-backed numpy can abort in
    # forked children — the reason CPython switched that platform's
    # default to spawn); everything here is spawn-safe regardless
    if sys.platform.startswith("linux") and "fork" in methods:
        return "fork"
    return mp.get_start_method(allow_none=False)


class Fleet:
    """``nprocs`` worker processes and their plumbing.

    Not running until :meth:`start`; :meth:`exchange` kills it the
    moment it finds it broken, so "running" always means "every worker
    acked its last command".  ``generation`` counts starts: a binding
    whose bind predates the current one must bind again.
    """

    def __init__(self, ctx, nprocs: int, timeout: float, hang_timeout: float):
        self.ctx = ctx
        self.nprocs = nprocs
        self.timeout = timeout
        self.hang_timeout = hang_timeout
        #: one op at a time, whichever binding issues it
        self.lock = threading.Lock()
        self.generation = 0
        self.procs: list = []
        self.conns: list = []
        self.inboxes: list = []
        self.barrier = self.heartbeat = self.abort_board = None
        #: shm names and binding ids the workers may forget, sent along
        #: with the next command
        self.freed: list = []

    def start(self, cause: str) -> None:
        """Create pipes, inboxes, barrier and liveness state and spawn
        the workers (the caller's bind op is their health check)."""
        t0 = time.perf_counter()
        ctx, n = self.ctx, self.nprocs
        # Start the master's resource tracker *before* forking so the
        # workers inherit (and share) it instead of lazily spawning
        # their own — the premise of the fork branch of
        # shm.unregister_on_attach.
        resource_tracker.ensure_running()
        self.inboxes = [ctx.Queue() for _ in range(n)]
        pipes = [ctx.Pipe() for _ in range(n)]
        self.conns = [ours for ours, _theirs in pipes]
        self.barrier = ctx.Barrier(n)
        self.heartbeat = ctx.Array("d", n, lock=False)
        self.abort_board = ctx.Array("i", n, lock=False)
        start_method = getattr(ctx, "_name", None) or mp.get_start_method()
        self.procs = [
            ctx.Process(
                target=worker_main,
                args=(
                    rank, n, pipes[rank][1], self.inboxes[rank], self.inboxes,
                    self.barrier, self.timeout, start_method != "fork",
                    self.heartbeat, self.abort_board,
                ),
                daemon=True,
                name=f"vfe-worker-{rank}",
            )
            for rank in range(n)
        ]
        for p in self.procs:
            p.start()
        for _ours, theirs in pipes:
            theirs.close()
        # fresh workers remember nothing
        self.generation += 1
        self.freed.clear()
        _FLEET_STARTS.inc(cause=cause)
        _flight.note(
            "backend.fleet_start", cause=cause, nprocs=n,
            start_ms=(time.perf_counter() - t0) * 1e3,
        )

    def stop(self, kill: bool = False) -> None:
        """Stop the workers and drop the plumbing (idempotent).

        Asked over their pipes by default; ``kill=True`` when the fleet
        is known broken — nobody listens, so no grace period either."""
        for conn, p in zip(self.conns, self.procs):
            try:
                if kill:
                    p.kill()
                else:
                    conn.send(None)
            except OSError:  # already gone
                pass
        for p in self.procs:
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - wedged worker
                p.kill()
                p.join(timeout=1.0)
        for conn in self.conns:
            conn.close()
        for q in self.inboxes:
            q.close()
            q.cancel_join_thread()
        self.procs, self.conns, self.inboxes = [], [], []
        self.barrier = self.heartbeat = self.abort_board = None

    def exchange(self, binding: int, seq: int, op: Callable, per_rank_kwargs) -> list:
        """One dispatch/collect cycle, with mid-op fault detection:
        returns per-rank payloads or raises :class:`BackendError`
        (``retryable``, with the fleet already killed, if it broke)."""
        op_name = getattr(op, "__name__", str(op))
        # popped one by one: allocators append to this very list
        freed = [self.freed.pop() for _ in range(len(self.freed))]
        for conn, kwargs in zip(self.conns, per_rank_kwargs):
            try:
                conn.send((binding, seq, op, kwargs, freed))
            except OSError:  # died since its last ack: the sentinel says so
                pass
        _BACKEND_COMMANDS.inc(self.nprocs, direction="sent")
        dispatched = time.monotonic()
        deadline = dispatched + self.timeout
        # wake before the deadline only to look for hung workers
        watch = self.hang_timeout < self.timeout
        nap = self.hang_timeout / 2 if watch else self.timeout
        pending = dict(enumerate(self.conns))
        results = [None] * self.nprocs
        errors = []
        while pending:
            remaining = deadline - time.monotonic()
            ready = connection.wait(
                [*pending.values(), *(self.procs[r].sentinel for r in pending)],
                max(min(remaining, nap), 0),
            )
            for rank in [r for r, conn in pending.items() if conn in ready]:
                try:
                    status, payload = pending[rank].recv()
                except (EOFError, OSError):
                    continue  # closed by a dying worker
                del pending[rank]
                if status == "error":
                    errors.append((rank, payload))
                else:
                    results[rank] = payload
            dead = [
                (rank, self.procs[rank].exitcode) for rank in pending
                if self.procs[rank].sentinel in ready
            ]
            now = time.monotonic()
            hung = [
                rank for rank in pending
                if watch and not dead
                and now - max(self.heartbeat[rank], dispatched) > self.hang_timeout
            ]
            if dead or hung or remaining <= 0:
                dead_desc = [
                    f"{self.procs[r].name} (exit {code})" for r, code in dead
                ]
                hung_desc = [self.procs[r].name for r in hung]
                _flight.note(
                    "backend.fleet_fault", op=op_name, seq=seq,
                    dead=dead_desc, hung=hung_desc,
                )
                self.stop(kill=True)
                raise BackendError(
                    f"worker fleet failed during {op_name} "
                    f"(dead workers: {dead_desc or 'none'}; "
                    f"hung workers: {hung_desc or 'none'}; "
                    f"{len(pending)} unacknowledged after {now - dispatched:.3f}s)",
                    retryable=bool(dead or hung),
                    dead_ranks=tuple(r for r, _ in dead),
                    hung_ranks=tuple(hung),
                )
        _BACKEND_COMMANDS.inc(self.nprocs, direction="acked")
        if errors:
            # a failing worker aborts the collective barrier so peers
            # waiting in one bail out fast; re-arm it (and the abort
            # board) for the next op.  Deterministic op errors are NOT
            # retryable: a replay would fail identically.
            self.barrier.reset()
            self.abort_board[:] = [0] * self.nprocs
            _BACKEND_OPS.inc(op=op_name, status="error")
            detail = "\n".join(
                f"-- worker {rank} --\n{msg}" for rank, msg in errors
            )
            raise BackendError(f"{len(errors)} worker(s) failed:\n{detail}")
        _BACKEND_OPS.inc(op=op_name, status="ok")
        return results


class FleetSupervisor:
    """Restarts a broken fleet under one binding's restart budget.

    Detection is :meth:`Fleet.exchange`'s: death is an OS fact (the
    process sentinel); hang is a liveness judgement (a worker sent the
    current command more than ``hang_timeout`` seconds ago that has
    neither stamped its heartbeat since nor acked).  :meth:`recover`
    is what :meth:`MultiprocessBackend.run_op` invokes between replay
    attempts: fresh workers in the same fleet, and the op-boundary
    snapshot restored.  They know no binding, so the replay binds
    again — as does the next op of every other binding of the fleet.
    """

    def __init__(self, backend: "MultiprocessBackend", max_restarts: int = 2):
        self.backend = backend
        self.max_restarts = int(max_restarts)
        #: fleet restarts performed for this binding
        self.restarts = 0

    def recover(self, *, cause: str, snapshot, detail: str = "") -> None:
        b = self.backend
        self.restarts += 1
        _FLEET_RESTARTS.inc(cause=cause)
        _flight.incident(
            "backend fleet restart",
            attrs={
                "cause": cause,
                "detail": detail,
                "restart": self.restarts,
                "nprocs": b.nprocs,
            },
        )
        b.fleet.start("recovery")
        for key, data in snapshot:
            b.allocator.view(*key)[...] = data


class MultiprocessBackend(SerialBackend):
    """SPMD execution over ``nprocs`` worker processes: one binding of
    a :class:`Fleet` to one machine (see the module docstring).

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where
        available, else the platform default).
    timeout:
        Seconds from dispatch the master waits for an op's acks before
        it kills the fleet as broken.  A worker's receives and barriers
        in the op end half a timeout after it got the op, so a lost
        message fails the op first, with the worker's non-retryable
        ``TransportTimeout``, and the fleet lives on.
    max_restarts:
        Fleet restarts the supervisor may spend *per op* recovering
        from dead/hung workers (0 disables recovery and the
        op-boundary snapshots that feed it).
    hang_timeout:
        Seconds of heartbeat silence after which a live worker is
        judged hung (default ``None`` = only the full ``timeout``
        declares it, i.e. hang detection adds nothing).  Set well
        above the longest legitimate single-op runtime.
    """

    name = "multiprocess"

    def __init__(
        self,
        start_method: str | None = None,
        timeout: float = 120.0,
        *,
        max_restarts: int = 2,
        hang_timeout: float | None = None,
    ):
        super().__init__()
        self._ctx = mp.get_context(_pick_start_method(start_method))
        self.timeout = float(timeout)
        self.hang_timeout = None if hang_timeout is None else float(hang_timeout)
        self.nprocs = 0
        self.allocator: SharedSegmentAllocator | None = None
        self.supervisor = FleetSupervisor(self, max_restarts=max_restarts)
        self.fleet: Fleet | None = None
        #: the fleets this backend started itself and stops in close()
        #: (nothing, once a longer-lived owner swapped ``fleets``)
        self._own_fleets = self.fleets
        self._id = 0
        self._bound = 0  # fleet generation of this binding's last bind
        self._fault_plan = None
        self._seq = 0  # command sequence number, 1 = the bind

    @property
    def effective_hang_timeout(self) -> float:
        return self.timeout if self.hang_timeout is None else self.hang_timeout

    # -- lifecycle -------------------------------------------------------
    def _on_attach(self, machine: "Machine") -> None:
        if machine.total_memory_used() > 0:
            raise RuntimeError(
                "attach the multiprocess backend before declaring "
                "arrays: existing segments are not in shared memory"
            )
        self.nprocs = machine.nprocs
        fleet = self.fleets.get(self.nprocs)
        if fleet is None:
            fleet = self.fleets[self.nprocs] = Fleet(
                self._ctx, self.nprocs, self.timeout,
                self.effective_hang_timeout,
            )
        self.fleet = fleet
        self._id = next(_IDS)
        self.allocator = SharedSegmentAllocator(str(self._id), fleet.freed)
        machine.set_segment_allocator(self.allocator)
        # the fault plan is latched at attach: every op of this binding
        # (including post-recovery replays) runs under the same faults
        self._fault_plan = _faults.active_plan()
        with fleet.lock:
            self._sync()

    def close(self) -> None:
        """Release the binding (and stop the fleets this backend
        started itself)."""
        fleet, self.fleet = self.fleet, None
        if self.allocator is not None:
            # Copy every still-registered block into ordinary process
            # memory BEFORE unlinking: the simulated LocalMemory still
            # holds ndarray views over the shared buffers, and reading
            # one after the unmap would be a hard segfault.  After
            # close(), arrays keep their contents with serial
            # semantics.
            if self.machine is not None:
                for rank, name in self.allocator.registered():
                    self.machine.memory(rank).materialize(name)
            self.allocator.close()
            self.allocator = None
        if fleet is not None:
            with fleet.lock:
                fleet.freed.append(self._id)
                while self._own_fleets:
                    self._own_fleets.popitem()[1].stop()
        super().close()

    # -- command dispatch ------------------------------------------------
    def _sync(self) -> None:
        """Make sure the fleet runs and its workers know this binding
        (fleet lock held).  The bind is an op like any other — op 1,
        and the next sequence number again after every restart."""
        fleet = self.fleet
        if not fleet.procs:
            fleet.start("first_use")
        if self._bound != fleet.generation:
            self._seq += 1
            fleet.exchange(
                self._id, self._seq, op_bind,
                [dict(faults=self._fault_plan)] * self.nprocs,
            )
            self._bound = fleet.generation

    def run_op(
        self,
        op: Callable,
        per_rank_kwargs: list[dict],
        writes: tuple | None = None,
    ) -> list:
        """Broadcast one SPMD op; block until every worker acks.

        ``per_rank_kwargs[r]`` is worker ``r``'s keyword arguments.
        Returns per-rank payloads; raises :class:`BackendError` if any
        worker errored or went silent.  Fleet-level faults (dead/hung
        workers) are recovered in place: snapshot → restart → replay,
        up to ``max_restarts`` times per op.  ``writes`` names the
        blocks the op may write — all a replay needs restored, so all
        the snapshot copies (``None``: every block of the binding).
        """
        if len(per_rank_kwargs) != self.nprocs:
            raise ValueError(
                f"need kwargs for every worker ({self.nprocs}), "
                f"got {len(per_rank_kwargs)}"
            )
        if self.fleet is None:
            raise BackendError("backend is not attached / already closed")
        max_restarts = self.supervisor.max_restarts
        with self.fleet.lock:
            snapshot = self._snapshot(writes) if max_restarts > 0 else []
            attempt = 0
            while True:
                try:
                    self._sync()
                    self._seq += 1
                    return self.fleet.exchange(
                        self._id, self._seq, op, per_rank_kwargs
                    )
                except BackendError as exc:
                    if not exc.retryable or attempt >= max_restarts:
                        raise
                    attempt += 1
                    self.supervisor.recover(
                        cause="dead" if exc.dead_ranks else "hung",
                        snapshot=snapshot, detail=str(exc),
                    )

    def _snapshot(self, writes: tuple | None) -> list:
        """Copy the blocks an op may write into process memory — the
        op-boundary checkpoint a replay restores from."""
        keys = self.allocator.registered() if writes is None else [
            (rank, name) for rank in range(self.nprocs) for name in writes
        ]
        snapshot = [
            (key, view.copy()) for key in keys
            if (view := self.allocator.view(*key)) is not None
        ]
        _SNAPSHOT_BYTES.inc(sum(data.nbytes for _key, data in snapshot))
        return snapshot

    # -- operations ------------------------------------------------------
    def move(self, array: "DistributedArray", new_dist, plan) -> None:
        """Execute a DISTRIBUTE plan in the worker fleet: the serial
        copy ``new[dst][new_sel] = old[src][old_sel]`` split by ``dst``,
        each worker reading its rectangles out of the old segments."""
        block = array._block_name()
        reads = [[] for _ in range(self.nprocs)]
        pulled = [{} for _ in range(self.nprocs)]
        for src, dst, old_sel, new_sel in plan.moves:
            reads[dst].append((src, old_sel, new_sel))
            if src != dst:
                pulled[src][dst] = pulled[src].get(dst, 0) + 1
        # keep the old segments alive across the reallocation
        old_metas = self.allocator.stash(block, self.nprocs)
        try:
            array.bind(new_dist, fill=None)
            # nothing to snapshot: a replay reads the stashed old
            # blocks again and overwrites every element of the new ones
            self.run_op(op_move, [
                dict(
                    old_metas=old_metas,
                    new_meta=self.allocator.meta(rank, block),
                    reads=reads[rank],
                    pulled=pulled[rank],
                )
                for rank in range(self.nprocs)
            ], ())
        finally:
            # after every ack, or a failure: the old segments become
            # the block's retained ones — never orphaned in /dev/shm
            self.allocator.retain(block)

    def run_kernel(self, array: "DistributedArray", fn: Callable) -> None:
        if not _can_ship(fn):
            return super().run_kernel(array, fn)
        # a rank that owns nothing has no block, hence no meta: its
        # worker only acknowledges
        block = array._block_name()
        per_rank = [
            dict(
                meta=self.allocator.meta(rank, block),
                fn=fn,
                idx=array.local_indices(rank),
            )
            for rank in range(self.nprocs)
        ]
        self.run_op(op_local_kernel, per_rank, (block,))

    def sweep_lines(self, array, dim, line_func, batched=None) -> None:
        """Local lines only (the distributed sweep reassembles on the
        master whatever is attached): one kernel op, each worker
        solving the lines of its own segment."""
        self.run_kernel(array, partial(
            line_sweep_kernel, dim=dim, line_func=line_func, batched=batched,
        ))

    def stencil_step(self, array, overlap, func, dim_entries) -> None:
        """One halo-exchanged stencil sweep across the worker fleet
        (``overlap``'s padded buffers are shared-memory blocks like
        any other allocation).  Only the segment is checkpointed: the
        op rewrites the padded buffer's interior from the segment and
        its in-domain halos from the receives before it reads them, and
        never writes the out-of-domain cells, so a replay rebuilds the
        buffer from the restored segment alone."""
        if not _can_ship(func):
            return super().stencil_step(array, overlap, func, dim_entries)
        widths = overlap.widths
        seg_block = array._block_name()
        pad_block = overlap._buf_name()
        dim_plans: dict[int, list] = {r: [] for r in range(self.nprocs)}
        for dim, entries in dim_entries:
            sends = defaultdict(list)
            recvs = defaultdict(list)
            for src, dst, key, src_sl, _count in entries:
                sends[src].append((dst, key, src_sl))
                dest = halo_dest_slice(array.local(dst).shape, widths, dim, key)
                recvs[dst].append((src, key, dest))
            for rank in range(self.nprocs):
                dim_plans[rank].append(
                    (dim, sends.get(rank, []), recvs.get(rank, []))
                )
        per_rank = [
            dict(
                seg_meta=self.allocator.meta(rank, seg_block),
                pad_meta=self.allocator.meta(rank, pad_block),
                widths=tuple(widths),
                dim_plans=dim_plans[rank],
                func=func,
            )
            for rank in range(self.nprocs)
        ]
        self.run_op(op_stencil_step, per_rank, (seg_block,))
