"""Deterministic, seedable fault injection — the registry.

The paper's machines (iPSC/860, Paragon) were hundreds of nodes of
real hardware, and real hardware fails: nodes die mid-collective,
links stall, allocations fail.  This module is the *controlled*
version of those failures: a :class:`FaultPlan` is an immutable,
picklable, JSON-serializable list of fault specs that the backend,
transport, shared-memory allocator, and serving tiers consult at
well-defined points — **off by default**, activated explicitly via
:func:`activate` / :func:`injected`.

Fault vocabulary
----------------

=====================  ====================================================
spec                   effect
=====================  ====================================================
:class:`WorkerCrash`   worker ``rank`` hard-exits (``os._exit``) when the
                       master's command sequence number reaches ``at_op``
:class:`KernelStall`   worker ``rank`` sleeps ``seconds`` before executing
                       op ``at_op`` (a slow/hung node)
:class:`TransportDelay` messages ``first``..``last`` on link
                       ``(src, dst)`` are delayed ``seconds`` each
:class:`TransportDrop` the ``at_message``-th message on link ``(src,
                       dst)`` vanishes in flight
:class:`ShmAllocFailure` the ``at_alloc``-th shared-memory allocation
                       raises ``MemoryError``
:class:`RequestFault`  the ``at_request``-th HTTP request on ``route``
                       is delayed, answered 500, or dropped
=====================  ====================================================

Op numbers are the master's command sequence numbers
(:class:`~repro.backend.multiprocess.MultiprocessBackend` assigns them
monotonically from each attach — the bind is op 1 — never reusing one
across fleet restarts), so a fault keyed on ``at_op`` fires **at most
once per attach** — a replayed op gets a fresh sequence number and
runs clean — and fires again in the next stage of the same session,
whose attach starts counting afresh (as do link ordinals and
``at_alloc``).  That is what makes recovery testable: inject, detect,
restart, replay, succeed.

:meth:`FaultPlan.chaos` derives a whole plan deterministically from a
seed — the chaos load test's input (``python -m repro serve
--loadtest --chaos``).
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

__all__ = [
    "WorkerCrash",
    "KernelStall",
    "TransportDelay",
    "TransportDrop",
    "ShmAllocFailure",
    "RequestFault",
    "FaultPlan",
    "activate",
    "deactivate",
    "active_plan",
    "injected",
]


@dataclass(frozen=True)
class WorkerCrash:
    """Worker ``rank`` hard-exits when executing op ``at_op``."""

    rank: int
    at_op: int
    exit_code: int = 3


@dataclass(frozen=True)
class KernelStall:
    """Worker ``rank`` sleeps ``seconds`` before executing op ``at_op``."""

    rank: int
    at_op: int
    seconds: float


@dataclass(frozen=True)
class TransportDelay:
    """Messages ``first``..``last`` (1-based, inclusive; ``last=None``
    = unbounded) on link ``(src, dst)`` are each delayed ``seconds``."""

    src: int
    dst: int
    seconds: float
    first: int = 1
    last: int | None = None

    def matches(self, nth: int) -> bool:
        return nth >= self.first and (self.last is None or nth <= self.last)


@dataclass(frozen=True)
class TransportDrop:
    """The ``at_message``-th message (1-based) on link ``(src, dst)``
    is silently dropped — the receiver times out waiting for it."""

    src: int
    dst: int
    at_message: int


@dataclass(frozen=True)
class ShmAllocFailure:
    """The ``at_alloc``-th shared-memory block allocation (1-based,
    counted per attach) raises ``MemoryError``."""

    at_alloc: int


@dataclass(frozen=True)
class RequestFault:
    """The ``at_request``-th request (1-based, counted per route) on
    ``route`` is faulted: ``kind`` is ``"delay"`` (sleep ``seconds``
    before dispatch), ``"error"`` (immediate 500 with an incident ID),
    or ``"drop"`` (connection closed without a response)."""

    route: str
    at_request: int
    kind: str = "delay"
    seconds: float = 0.0


#: JSON type tags <-> fault classes (the serialization registry)
_FAULT_TYPES = {
    "worker_crash": WorkerCrash,
    "kernel_stall": KernelStall,
    "transport_delay": TransportDelay,
    "transport_drop": TransportDrop,
    "shm_alloc_failure": ShmAllocFailure,
    "request_fault": RequestFault,
}
_TYPE_TAGS = {cls: tag for tag, cls in _FAULT_TYPES.items()}

FAULT_PLAN_SCHEMA = "repro-fault-plan/1"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of fault specs plus the seed that derived it.

    Plans are pure data: picklable (they cross the fork/spawn boundary
    into worker processes), JSON round-trippable (they land in
    ``BENCH_CHAOS.json``), and stateless — *where* in a message stream
    a link fault applies is tracked by the component applying it.
    """

    faults: tuple = field(default_factory=tuple)
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        for f in self.faults:
            if type(f) not in _TYPE_TAGS:
                raise TypeError(f"unknown fault spec {f!r}")

    # -- queries (one per injection site) ---------------------------------
    def crash_for(self, rank: int, op: int) -> WorkerCrash | None:
        for f in self.faults:
            if isinstance(f, WorkerCrash) and f.rank == rank and f.at_op == op:
                return f
        return None

    def stall_for(self, rank: int, op: int) -> KernelStall | None:
        for f in self.faults:
            if isinstance(f, KernelStall) and f.rank == rank and f.at_op == op:
                return f
        return None

    def link_delay(self, src: int, dst: int, nth: int) -> float:
        """Total injected delay (seconds) for the ``nth`` message
        (1-based) on link ``(src, dst)``."""
        return sum(
            f.seconds
            for f in self.faults
            if isinstance(f, TransportDelay)
            and f.src == src and f.dst == dst and f.matches(nth)
        )

    def drops_message(self, src: int, dst: int, nth: int) -> bool:
        return any(
            isinstance(f, TransportDrop)
            and f.src == src and f.dst == dst and f.at_message == nth
            for f in self.faults
        )

    def shm_failure(self, nth_alloc: int) -> ShmAllocFailure | None:
        for f in self.faults:
            if isinstance(f, ShmAllocFailure) and f.at_alloc == nth_alloc:
                return f
        return None

    def request_fault(self, route: str, nth: int) -> RequestFault | None:
        for f in self.faults:
            if isinstance(f, RequestFault) and f.route == route \
                    and f.at_request == nth:
                return f
        return None

    def of_type(self, cls: type) -> tuple:
        return tuple(f for f in self.faults if isinstance(f, cls))

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": FAULT_PLAN_SCHEMA,
            "seed": self.seed,
            "faults": [
                {"type": _TYPE_TAGS[type(f)], **asdict(f)}
                for f in self.faults
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        faults = []
        for spec in doc.get("faults", ()):
            spec = dict(spec)
            tag = spec.pop("type")
            try:
                fault_cls = _FAULT_TYPES[tag]
            except KeyError:
                raise ValueError(
                    f"unknown fault type {tag!r} "
                    f"(known: {sorted(_FAULT_TYPES)})"
                ) from None
            faults.append(fault_cls(**spec))
        return cls(faults=tuple(faults), seed=doc.get("seed"))

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for f in self.faults:
            counts[_TYPE_TAGS[type(f)]] = counts.get(_TYPE_TAGS[type(f)], 0) + 1
        inner = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"FaultPlan(seed={self.seed}, {inner or 'empty'})"

    # -- deterministic generation -----------------------------------------
    @classmethod
    def chaos(
        cls,
        seed: int,
        *,
        nprocs: int = 4,
        routes: tuple[str, ...] = ("/plan", "/run", "/trace"),
        worker_crashes: int = 1,
        transport_delays: int = 2,
        request_delays: int = 2,
        request_errors: int = 1,
        max_delay_ms: float = 10.0,
    ) -> "FaultPlan":
        """A whole chaos plan derived deterministically from ``seed``.

        Worker crashes land at op numbers 3-8 (past the attach health
        check, inside any real workload's op stream); link delays are
        small enough to perturb scheduling without blowing timeouts;
        request faults hit early-but-not-first request indices so both
        clean and faulted requests occur on every route.
        """
        rng = random.Random(int(seed))
        faults: list = []
        for _ in range(worker_crashes):
            faults.append(
                WorkerCrash(rank=rng.randrange(nprocs),
                            at_op=rng.randint(3, 8))
            )
        for _ in range(transport_delays):
            src = rng.randrange(nprocs)
            dst = (src + rng.randint(1, max(1, nprocs - 1))) % nprocs
            faults.append(
                TransportDelay(
                    src=src, dst=dst,
                    seconds=rng.uniform(0.0005, max_delay_ms / 1e3),
                    first=1, last=rng.randint(4, 16),
                )
            )
        for route in routes:
            for _ in range(request_delays):
                faults.append(
                    RequestFault(
                        route=route, at_request=rng.randint(2, 12),
                        kind="delay",
                        seconds=rng.uniform(0.002, max_delay_ms / 1e3),
                    )
                )
            for _ in range(request_errors):
                faults.append(
                    RequestFault(route=route, at_request=rng.randint(3, 10),
                                 kind="error")
                )
        return cls(faults=tuple(faults), seed=int(seed))


# -- activation (process-wide, off by default) ----------------------------

_lock = threading.Lock()
_active: FaultPlan | None = None


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-wide active fault plan.

    Injection sites (worker loop, transport, shm allocator, HTTP front
    end) consult :func:`active_plan` — with nothing activated, every
    check is a single ``is None`` branch.
    """
    global _active
    if not isinstance(plan, FaultPlan):
        raise TypeError(f"expected a FaultPlan, got {type(plan).__name__}")
    with _lock:
        _active = plan
    return plan


def deactivate() -> None:
    """Remove the active fault plan (idempotent)."""
    global _active
    with _lock:
        _active = None


def active_plan() -> FaultPlan | None:
    """The process-wide active plan, or ``None`` (the default)."""
    return _active


@contextmanager
def injected(plan: FaultPlan):
    """``with injected(plan): ...`` — activate for a scope, always
    deactivate on exit (test- and chaos-harness-friendly)."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()
