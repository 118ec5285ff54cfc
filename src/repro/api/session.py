"""The :class:`Session` facade — one object over machine, planner,
backends, and the simulator.

A session resolves a :class:`~repro.api.SessionConfig` once (cost
model, processor count, backend, event recording, RNG seed) and hands
out fluent workload handles::

    import repro

    with repro.session(nprocs=4, cost_model="Paragon") as sess:
        result = sess.workload("adi", size=64, iterations=4).run()
        plan = sess.workload("adi", size=64, iterations=4).plan()

Power users that need the raw Vienna Fortran Engine get it from the
same facade — :meth:`Session.engine` — with the session's plan cache
and backend already wired::

    with repro.session(nprocs=4) as sess:
        vfe = sess.engine()          # an Engine on a session machine
        V = vfe.declare("V", (100, 100), ...)
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Sequence

from ..backend.base import SERIAL, attached_backend
from ..backend.plan import PlanCache
from ..defaults import DEFAULT_SEED
from ..obs import flight as _flight
from ..machine.cost_model import CostModel
from ..machine.machine import Machine
from ..machine.topology import ProcessorArray
from ..runtime.engine import Engine
from .config import SessionConfig
from .handles import WorkloadHandle
from .registry import REGISTRY, WorkloadRegistry

__all__ = ["Session", "SessionClosedError", "session"]


class SessionClosedError(RuntimeError):
    """A closed :class:`Session` was asked to do work.

    Pools hand sessions out and reclaim them; using a handle after the
    pool (or a ``with`` block) closed it is a lifecycle bug, reported
    eagerly instead of as a confusing downstream failure.
    """


class Session:
    """One configured entry point to the whole reproduction.

    Owns the plan cache, the backend policy, the cost model and the
    RNG seed; builds machines and engines on demand; enumerates the
    workload registry.  Every backend that runs under the session is
    attached through :meth:`attach`; context-manager use closes the
    ones still attached for ad-hoc engines.

    Sessions are cheap to construct (no machine, backend, or worker is
    built until a stage runs; the first multiprocess stage starts the
    fleet the session keeps until :meth:`close`) and safe to pool:
    :meth:`close` is idempotent, any use after close raises
    :class:`SessionClosedError`, and an explicit ``plan_cache`` lets
    many sessions share one memoized plan store (the cross-session
    seam ``repro.serve`` pools are built on).
    """

    def __init__(
        self,
        config: SessionConfig | None = None,
        registry: WorkloadRegistry | None = None,
        *,
        plan_cache: PlanCache | None = None,
        degrade: bool = True,
    ):
        self.config = (config or SessionConfig()).validate()
        self.registry = registry if registry is not None else REGISTRY
        #: the cost model, resolved once
        self.cost_model: CostModel = self.config.resolved_cost_model()
        #: memoized plans shared by everything the session runs (it is
        #: ``machine.plans`` of every machine the session hands out);
        #: pass one in to share it *across* sessions
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: graceful-degradation policy: when True, a stage whose
        #: multiprocess fleet cannot be recovered falls back to the
        #: serial backend (bitwise-identical by the conformance
        #: contract) instead of raising.  A session-level knob, NOT
        #: part of SessionConfig — it must not change config
        #: fingerprints or pool keys.
        self.degrade = bool(degrade)
        #: the backends :meth:`engine` attached, closed with the session
        self._engine_backends = ExitStack()
        #: worker fleets by processor count: started by the first stage
        #: or engine that needs one, stopped only by :meth:`close`
        self._fleets: dict = {}
        self._closed = False
        self._poisoned = False
        self._poison_reason: str | None = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def poisoned(self) -> bool:
        """True once a stage hit an unrecoverable backend fault.

        A poisoned session still works (stages degrade to the serial
        backend), but a pool should retire it rather than hand it to
        the next request — see :meth:`repro.serve.pool.SessionPool.release`.
        """
        return self._poisoned

    def mark_poisoned(self, reason: str) -> None:
        """Record that this session's backend tier failed (idempotent;
        first reason wins)."""
        if not self._poisoned:
            self._poisoned = True
            self._poison_reason = str(reason)
            _flight.note(
                "session.poisoned", reason=self._poison_reason,
                backend=self.config.backend_name,
            )

    def _require_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                f"session is closed: {self!r} (sessions cannot be "
                f"reused after close(); open a new one)"
            )

    @property
    def live_fleets(self) -> int:
        """How many worker fleets this session currently keeps running."""
        return sum(1 for fleet in self._fleets.values() if fleet.procs)

    def close(self) -> None:
        """Release every engine's backend and stop the session's worker
        fleets (idempotent)."""
        self._engine_backends.close()
        while self._fleets:
            self._fleets.popitem()[1].stop()
        self._closed = True

    def __enter__(self) -> "Session":
        self._require_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- machines and engines ----------------------------------------------
    def attach(self, machine: Machine):
        """Context manager: the session's backend policy bound to
        ``machine`` for one run (see
        :func:`~repro.backend.base.attached_backend` — a fresh backend
        on the session's worker fleet, released on exit with its shared
        segments unlinked and the workers left running; ``None`` runs
        on what the machine carries).  Yields the backend that executes
        the run."""
        self._require_open()
        return attached_backend(machine, self.config.backend, self._fleets)

    def _adopt(self, machine: Machine) -> Machine:
        """``machine`` with the session's plan store as its own."""
        machine.plans = self.plan_cache
        return machine

    def machine(
        self,
        shape: Sequence[int] | None = None,
        name: str = "P",
        cost_model: CostModel | None = None,
    ) -> Machine:
        """A fresh machine with the session's cost model and plan store
        (``shape`` defaults to a 1-D array of ``config.nprocs``
        processors)."""
        self._require_open()
        procs = ProcessorArray(name, tuple(shape or (self.config.nprocs,)))
        return self._adopt(
            Machine(procs, cost_model=cost_model or self.cost_model)
        )

    def engine(
        self,
        machine: Machine | None = None,
        *,
        shape: Sequence[int] | None = None,
        name: str = "P",
    ) -> Engine:
        """A Vienna Fortran Engine on ``machine`` (or a fresh session
        machine), sharing the session's plan cache, with the session's
        backend attached until the session closes.
        """
        self._require_open()
        if machine is None:
            machine = self.machine(shape=shape, name=name)
        if machine.backend is SERIAL:  # nothing attached yet
            self._engine_backends.enter_context(self.attach(machine))
        return Engine(self._adopt(machine))

    # -- workloads ---------------------------------------------------------
    def workloads(self) -> tuple[str, ...]:
        """Names of every registered workload."""
        return self.registry.names()

    def workload(self, name: str, **params) -> WorkloadHandle:
        """A fluent handle on the named workload.

        ``params`` override the workload's registered defaults; the
        keyword-only ``seed`` overrides the session seed.  Unknown
        parameters raise ``TypeError``; unknown names raise
        ``KeyError`` listing what is registered.
        """
        self._require_open()
        return WorkloadHandle(self, self.registry.get(name), params)

    def describe(self) -> dict:
        """The session's resolved configuration (JSON-serializable)."""
        return {**self.config.to_json(), "workloads": list(self.workloads())}

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Session(nprocs={self.config.nprocs}, "
            f"cost_model={self.cost_model.name!r}, "
            f"backend={self.config.backend_name!r}, "
            f"seed={self.config.seed}, {state})"
        )


def session(
    nprocs: int = 4,
    cost_model: CostModel | str = "Paragon",
    backend: str | type | None = None,
    record_events: bool = False,
    seed: int = DEFAULT_SEED,
    registry: WorkloadRegistry | None = None,
    degrade: bool = True,
) -> Session:
    """Open a :class:`Session` — the one public entry point.

    ``degrade=False`` turns off the serial-backend fallback: an
    unrecoverable multiprocess fault then raises instead of silently
    completing on one process.

    >>> with repro.session(nprocs=4, cost_model="Paragon") as sess:
    ...     sess.workload("adi", size=64).run().summary()
    """
    return Session(
        SessionConfig(
            nprocs=nprocs,
            cost_model=cost_model,
            backend=backend,
            record_events=record_events,
            seed=seed,
        ),
        registry=registry,
        degrade=degrade,
    )
