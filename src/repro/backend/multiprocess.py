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

Fault tolerance (ISSUE 9): every op boundary is a consistent cut —
workers are quiescent between acks, and all array state lives in the
master-owned shared segments.  :meth:`run_op` therefore snapshots the
segments before dispatch; if the :class:`FleetSupervisor` detects a
dead worker (exitcode) or a hung one (stale heartbeat) mid-op, it
tears the fleet down, respawns it, restores the snapshot, and replays
the op under a fresh sequence number — bitwise-identical to an
uninterrupted run, because the replayed op starts from the same bytes
and ops themselves are deterministic.  Deterministic worker errors
(an op raising) are **not** retried: they would fail identically, so
they surface as a non-retryable :class:`BackendError` and the session
layer degrades to the serial backend instead.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import sys
import time
from collections import defaultdict
from multiprocessing import resource_tracker
from queue import Empty
from typing import TYPE_CHECKING, Callable

from ..faults import plan as _faults
from ..obs import flight as _flight
from ..obs import metrics as _obs
from .base import BackendError, SerialBackend
from .ops import (
    op_local_kernel,
    op_noop,
    op_redistribute,
    op_stencil_step,
)
from .plan import halo_dest_slice, segment_moves
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
_FLEET_RESTARTS = _obs.counter(
    "repro_backend_fleet_restarts_total",
    "Worker-fleet teardown/respawn recoveries at the master, by cause.",
    ("cause",),
)


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


class FleetSupervisor:
    """Detects dead/hung workers and restarts the fleet.

    Death is an OS fact (``Process.exitcode``); hang is a liveness
    judgement (a worker that received the current command — or was
    sent it — more than ``hang_timeout`` seconds ago and has neither
    stamped its heartbeat nor acked).  :meth:`recover` is the
    restart-and-restore path :meth:`MultiprocessBackend.run_op`
    invokes between replay attempts: terminate everything, respawn
    fresh queues/barrier/processes, restore the op-boundary segment
    snapshot, and force transfer plans to re-ship (the new workers'
    plan memos are empty).
    """

    def __init__(self, backend: "MultiprocessBackend", max_restarts: int = 2):
        self.backend = backend
        self.max_restarts = int(max_restarts)
        #: lifetime fleet restarts performed by this supervisor
        self.restarts = 0

    # -- detection -------------------------------------------------------
    def fleet_health(
        self, acked_ranks=(), dispatch_time: float | None = None
    ) -> tuple[list, list]:
        """``(dead, hung)`` among ranks still owing an ack.

        ``dead`` is ``[(rank, exitcode), ...]``; ``hung`` is
        ``[rank, ...]``.  Hang detection references the later of the
        worker's heartbeat and the op dispatch time, so idle-but-
        healthy workers (stale heartbeat *between* ops) are never
        misjudged.
        """
        b = self.backend
        acked = set(acked_ranks)
        dead = [
            (rank, proc.exitcode)
            for rank, proc in enumerate(b._procs)
            if rank not in acked and not proc.is_alive()
        ]
        hung: list[int] = []
        hang_timeout = b.effective_hang_timeout
        if (
            b._heartbeat is not None
            and dispatch_time is not None
            and hang_timeout < b.timeout
        ):
            now = time.monotonic()
            for rank, proc in enumerate(b._procs):
                if rank in acked or not proc.is_alive():
                    continue
                last_sign_of_life = max(b._heartbeat[rank], dispatch_time)
                if now - last_sign_of_life > hang_timeout:
                    hung.append(rank)
        return dead, hung

    # -- recovery --------------------------------------------------------
    def recover(self, *, cause: str, snapshot, detail: str = "") -> None:
        """Terminate, respawn, restore the snapshot, re-arm plan
        shipping.  Raises (propagating) if the new fleet fails its
        health check — the caller's replay then surfaces the failure."""
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
        b._teardown_fleet(terminate=True)
        # new workers have empty plan memos: recurring transfer plans
        # must ship their index arrays again
        b._shipped_plans.clear()
        b._spawn_fleet()
        b._restore_segments(snapshot)


class MultiprocessBackend(SerialBackend):
    """SPMD execution over ``nprocs`` worker processes.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where
        available, else the platform default).
    timeout:
        Seconds the master waits for worker acknowledgements and
        workers wait on receives/barriers before failing loudly.
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
        self._procs: list = []
        self._cmd_queues: list = []
        self._inboxes: list = []
        self._result_queue = None
        self._barrier = None
        self._heartbeat = None
        self._abort_board = None
        self._fault_plan = None
        self._op_counter = 0
        self._seq = 0  # command sequence number (stale-ack fencing)
        self._shipped_plans: set[int] = set()
        self._plan_ids: dict = {}
        #: shipped transfer-plan payloads by plan id, kept master-side
        #: so a replay after a fleet restart can re-ship what the dead
        #: workers' memos knew
        self._plan_payloads: dict[int, dict] = {}

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
        self.allocator = SharedSegmentAllocator(tag=f"{id(self):x}")
        machine.set_segment_allocator(self.allocator)
        # Start the master's resource tracker *before* forking so the
        # workers inherit (and share) it instead of lazily spawning
        # their own — the premise of the fork branch of
        # shm.unregister_on_attach.
        try:
            resource_tracker.ensure_running()
        except Exception as exc:  # pragma: no cover - tracker internals vary
            _flight.note(
                "backend.swallowed",
                site="attach.resource_tracker",
                error=repr(exc),
            )
        # the fault plan is latched at attach so every spawned fleet of
        # this backend instance (including post-recovery respawns) runs
        # under the same injected faults
        self._fault_plan = _faults.active_plan()
        self._spawn_fleet()

    def _spawn_fleet(self) -> None:
        """Create queues, barrier, liveness state, and worker
        processes; health-check the fleet before returning."""
        ctx = self._ctx
        self._inboxes = [ctx.Queue() for _ in range(self.nprocs)]
        self._cmd_queues = [ctx.Queue() for _ in range(self.nprocs)]
        self._result_queue = ctx.Queue()
        barrier = ctx.Barrier(self.nprocs)
        self._barrier = barrier
        self._heartbeat = ctx.Array("d", self.nprocs, lock=False)
        self._abort_board = ctx.Array("i", self.nprocs, lock=False)
        now = time.monotonic()
        for rank in range(self.nprocs):
            self._heartbeat[rank] = now
            self._abort_board[rank] = 0
        start_method = getattr(ctx, "_name", None) or mp.get_start_method()
        self._procs = [
            ctx.Process(
                target=worker_main,
                args=(
                    rank,
                    self.nprocs,
                    self._cmd_queues[rank],
                    self._result_queue,
                    self._inboxes[rank],
                    self._inboxes,
                    barrier,
                    self.timeout,
                    start_method != "fork",
                    self._heartbeat,
                    self._abort_board,
                    self._fault_plan,
                ),
                daemon=True,
                name=f"vfe-worker-{rank}",
            )
            for rank in range(self.nprocs)
        ]
        for p in self._procs:
            p.start()
        # health check: every worker answers and the barrier works
        ranks = self._run_op_once(op_noop, [{} for _ in range(self.nprocs)])
        if sorted(ranks) != list(range(self.nprocs)):
            raise BackendError(f"worker fleet failed to start: {ranks}")

    def _teardown_fleet(self, terminate: bool = False) -> None:
        """Stop workers and drop fleet plumbing; segments stay alive.

        ``terminate=False`` asks workers to exit via the command
        queues (normal close); ``terminate=True`` kills them (the
        recovery path — the fleet is known broken, nobody listens)."""
        if not terminate:
            for q in self._cmd_queues:
                try:
                    q.put(None)
                except Exception as exc:  # pragma: no cover - queue gone
                    _flight.note(
                        "backend.swallowed",
                        site="teardown.cmd_queue.put",
                        error=repr(exc),
                    )
        for p in self._procs:
            if terminate and p.is_alive():
                p.terminate()
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - wedged worker
                p.terminate()
                p.join(timeout=1.0)
        self._procs = []
        for q in [*self._cmd_queues, *self._inboxes]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception as exc:  # pragma: no cover
                _flight.note(
                    "backend.swallowed",
                    site="teardown.queue.close",
                    error=repr(exc),
                )
        self._cmd_queues = []
        self._inboxes = []
        self._result_queue = None
        self._barrier = None
        self._heartbeat = None
        self._abort_board = None

    def close(self) -> None:
        self._teardown_fleet(terminate=False)
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
        super().close()

    # -- op-boundary checkpoints -----------------------------------------
    def _snapshot_segments(self) -> list:
        """Copy every registered shared block into process memory —
        the op-boundary checkpoint replays restore from."""
        if self.allocator is None:
            return []
        snapshot = []
        for key in self.allocator.registered():
            view = self.allocator.view(*key)
            if view is not None:
                snapshot.append((key, view.copy()))
        return snapshot

    def _restore_segments(self, snapshot: list) -> None:
        for key, data in snapshot:
            view = self.allocator.view(*key) if self.allocator else None
            if view is not None and view.shape == data.shape:
                view[...] = data

    # -- command dispatch ------------------------------------------------
    def run_op(self, op: Callable, per_rank_kwargs: list[dict]) -> list:
        """Broadcast one SPMD op; block until every worker acks.

        ``per_rank_kwargs[r]`` is worker ``r``'s keyword arguments.
        Returns per-rank payloads; raises :class:`BackendError` if any
        worker errored or went silent.  Fleet-level faults (dead/hung
        workers) are recovered in place: snapshot → restart → replay,
        up to ``max_restarts`` times per op.
        """
        if len(per_rank_kwargs) != self.nprocs:
            raise ValueError(
                f"need kwargs for every worker ({self.nprocs}), "
                f"got {len(per_rank_kwargs)}"
            )
        if not self._procs:
            raise BackendError("backend is not attached / already closed")
        max_restarts = self.supervisor.max_restarts
        snapshot = self._snapshot_segments() if max_restarts > 0 else []
        attempt = 0
        while True:
            try:
                return self._run_op_once(op, per_rank_kwargs)
            except BackendError as exc:
                if not exc.retryable or attempt >= max_restarts:
                    raise
                attempt += 1
                cause = "dead" if exc.dead_ranks else (
                    "hung" if exc.hung_ranks else "timeout"
                )
                self.supervisor.recover(
                    cause=cause, snapshot=snapshot, detail=str(exc)
                )
                per_rank_kwargs = self._rehydrated(op, per_rank_kwargs)

    def _rehydrated(self, op: Callable, per_rank_kwargs: list[dict]) -> list[dict]:
        """Fix up a replayed op for a freshly restarted fleet.

        Redistribute replays that relied on the dead workers' plan
        memos (``moves=None``) get the stored plan payload back."""
        if op is not op_redistribute:
            return per_rank_kwargs
        return [
            kwargs if kwargs["moves"] is not None
            else dict(kwargs, moves=self._plan_payloads[kwargs["plan_id"]][rank])
            for rank, kwargs in enumerate(per_rank_kwargs)
        ]

    def _run_op_once(self, op: Callable, per_rank_kwargs: list[dict]) -> list:
        """One dispatch/collect cycle, with mid-op fault detection."""
        self._seq += 1
        seq = self._seq
        for rank, kwargs in enumerate(per_rank_kwargs):
            self._cmd_queues[rank].put((op, kwargs, seq))
        _BACKEND_COMMANDS.inc(self.nprocs, direction="sent")
        op_name = getattr(op, "__name__", str(op))
        dispatched = time.monotonic()
        deadline = dispatched + self.timeout
        # poll the result queue in short slices so dead workers are
        # detected in ~poll seconds, not after the full op timeout
        poll = min(0.25, self.timeout)
        results = [None] * self.nprocs
        errors = []
        acked_ranks: set[int] = set()
        while len(acked_ranks) < self.nprocs:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._recover_barrier()
                dead = [p.name for p in self._procs if not p.is_alive()]
                raise BackendError(
                    f"worker acknowledgement timed out after "
                    f"{self.timeout}s (dead workers: {dead or 'none'})",
                    retryable=bool(dead),
                    dead_ranks=tuple(
                        r for r, p in enumerate(self._procs)
                        if not p.is_alive()
                    ),
                )
            try:
                rank, ack_seq, status, payload = self._result_queue.get(
                    timeout=min(poll, remaining)
                )
            except Empty:
                dead, hung = self.supervisor.fleet_health(
                    acked_ranks, dispatched
                )
                if dead or hung:
                    self._recover_barrier()
                    dead_desc = [
                        f"{self._procs[r].name} (exit {code})"
                        for r, code in dead
                    ]
                    hung_desc = [self._procs[r].name for r in hung]
                    _flight.note(
                        "backend.fleet_fault",
                        op=op_name,
                        seq=seq,
                        dead=dead_desc,
                        hung=hung_desc,
                    )
                    raise BackendError(
                        f"worker fleet failed during {op_name} "
                        f"(dead workers: {dead_desc or 'none'}; "
                        f"hung workers: {hung_desc or 'none'})",
                        retryable=True,
                        dead_ranks=tuple(r for r, _ in dead),
                        hung_ranks=tuple(hung),
                    )
                continue
            if ack_seq != seq:
                # stale ack from an op that previously timed out on
                # the master side — drop it, keep the streams aligned
                continue
            acked_ranks.add(rank)
            if status == "error":
                errors.append((rank, payload))
            else:
                results[rank] = payload
        _BACKEND_COMMANDS.inc(len(acked_ranks), direction="acked")
        if errors:
            # a failing worker aborts the collective barrier so its
            # peers bail out fast; re-arm it (and the abort board) for
            # the next op.  Deterministic op errors are NOT retryable:
            # a replay would fail identically.
            self._recover_barrier()
            _BACKEND_OPS.inc(op=op_name, status="error")
            detail = "\n".join(
                f"-- worker {rank} --\n{msg}" for rank, msg in errors
            )
            raise BackendError(f"{len(errors)} worker(s) failed:\n{detail}")
        _BACKEND_OPS.inc(op=op_name, status="ok")
        return results

    def _recover_barrier(self) -> None:
        if self._barrier is not None:
            try:
                self._barrier.reset()
            except Exception as exc:  # pragma: no cover - already usable
                _flight.note(
                    "backend.swallowed",
                    site="recover_barrier.reset",
                    error=repr(exc),
                )
        if self._abort_board is not None:
            for rank in range(self.nprocs):
                self._abort_board[rank] = 0

    # -- operations ------------------------------------------------------
    def move(
        self,
        array: "DistributedArray",
        new_dist,
        plan_cache=None,
    ) -> None:
        """Execute a DISTRIBUTE transfer plan in the worker fleet.

        The per-pair index plan is derived once (and shared through
        the engine's :class:`~repro.runtime.redistribute.PlanCache`
        when given); workers only ship values — both endpoints address
        them through the same deterministic plan.
        """
        machine = array.machine
        nprocs = machine.nprocs
        old_dist = array.descriptor.dist
        block = array._block_name()

        # recurring layout pairs ship their position arrays to the
        # fleet once; afterwards only the plan id crosses the queues
        # (and the cache lookup of a replay reads as the hit it is)
        plan_key = (old_dist, new_dist, nprocs)
        plan_id = self._plan_ids.setdefault(plan_key, len(self._plan_ids) + 1)
        ship = plan_id not in self._shipped_plans
        if plan_cache is not None:
            moves = plan_cache.segment_moves(old_dist, new_dist, nprocs)
        else:
            moves = segment_moves(old_dist, new_dist, nprocs) if ship else {}
        if ship:
            self._plan_payloads[plan_id] = moves

        # keep old physical segments alive across the reallocation
        stashed = {}
        for rank in range(nprocs):
            st = self.allocator.stash(rank, block)
            if st is not None:
                stashed[rank] = st
        try:
            array.descriptor.set_dist(new_dist)
            array._allocate_segments(fill=None)

            self._op_counter += 1
            tag = f"redist:{array.name}:{self._op_counter}"
            per_rank = [
                dict(
                    old_meta=stashed[rank][1] if rank in stashed else None,
                    new_meta=self.allocator.meta(rank, block),
                    plan_id=plan_id,
                    moves=moves[rank] if ship else None,
                    tag=tag,
                )
                for rank in range(nprocs)
            ]
            self.run_op(op_redistribute, per_rank)
            self._shipped_plans.add(plan_id)
        finally:
            # release the old physical segments even if reallocation
            # or the worker op failed — never orphan /dev/shm blocks
            for shm, _meta in stashed.values():
                shm.close()
                shm.unlink()

    def run_kernel(self, array: "DistributedArray", fn: Callable) -> None:
        if not _can_ship(fn):
            return super().run_kernel(array, fn)
        # a rank that owns nothing has no block, hence no meta: its
        # worker only joins the barrier
        block = array._block_name()
        per_rank = [
            dict(
                meta=self.allocator.meta(rank, block),
                fn=fn,
                idx=array.local_indices(rank),
            )
            for rank in range(self.nprocs)
        ]
        self.run_op(op_local_kernel, per_rank)

    def stencil_step(self, array, overlap, func, dim_entries) -> None:
        """One halo-exchanged stencil sweep across the worker fleet
        (``overlap``'s padded buffers are shared-memory blocks like
        any other allocation)."""
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
        self.run_op(op_stencil_step, per_rank)
