"""Workload handles — the fluent stages of the session facade.

``sess.workload("adi", size=64)`` returns a :class:`WorkloadHandle`;
its stages execute independently on fresh machines built from the
session config, so every stage is deterministic in the config alone::

    with repro.session(nprocs=4, cost_model="Paragon") as sess:
        w = sess.workload("adi", size=64, iterations=4)
        plan = w.plan()                  # PlanResult: the schedule
        run = w.run()                    # RunResult: solution + metrics
        trace = w.trace()                # TraceResult: event timelines
        bench = w.bench(repeats=3)       # BenchResult: wall clock
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import TYPE_CHECKING

from ..obs import metrics as _obs
from ..obs.flight import flight_recorder as _flight
from ..obs.tracing import span as _span
from .params import STAGE_OPTIONS
from .registry import ExecutionOutcome, WorkloadContext, WorkloadSpec
from .results import BenchResult, PlanResult, RunResult, TraceResult

if TYPE_CHECKING:
    from ..sim.events import EventLog
    from .session import Session

__all__ = ["WorkloadHandle"]

# the stage methods below take their defaults from the parameter table
_PLAN, _TRACE, _BENCH, _ADAPT = (
    STAGE_OPTIONS[stage] for stage in ("plan", "trace", "bench", "adapt")
)

_STAGES_TOTAL = _obs.counter(
    "repro_session_stages_total",
    "Workload-handle stage executions, by stage, workload and outcome.",
    ("stage", "workload", "status"),
)
_STAGE_SECONDS = _obs.histogram(
    "repro_session_stage_seconds",
    "Wall-clock seconds per workload-handle stage.",
    ("stage",),
)
_DEGRADATIONS = _obs.counter(
    "repro_degradation_total",
    "Graceful-degradation transitions, by tier and workload.",
    ("tier", "workload"),
)


def _staged(stage: str):
    """Wrap a handle stage in a span plus count/latency instruments.

    A failed stage additionally dumps a structured incident record on
    the always-on flight recorder (metrics may be off; the recorder is
    not), carrying the stage, workload, and any request/trace IDs the
    serving tier bound to the calling context.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not _obs.enabled():
                try:
                    return fn(self, *args, **kwargs)
                except Exception as exc:
                    _flight.incident(
                        f"session.{stage} failed", error=exc,
                        attrs={"stage": stage, "workload": self.name},
                    )
                    raise
            t0 = time.perf_counter()
            with _span(f"session.{stage}", workload=self.name):
                try:
                    result = fn(self, *args, **kwargs)
                except Exception as exc:
                    _STAGES_TOTAL.inc(stage=stage, workload=self.name,
                                      status="error")
                    _flight.incident(
                        f"session.{stage} failed", error=exc,
                        attrs={"stage": stage, "workload": self.name},
                    )
                    raise
            _STAGES_TOTAL.inc(stage=stage, workload=self.name, status="ok")
            _STAGE_SECONDS.observe(time.perf_counter() - t0, stage=stage)
            return result

        return wrapper

    return decorate


class WorkloadHandle:
    """One workload bound to a session and a parameter set."""

    def __init__(self, session: "Session", spec: WorkloadSpec, params: dict):
        self._session = session
        self._spec = spec
        overrides = dict(params)
        #: per-handle seed override; defaults to the session seed
        self.seed = int(overrides.pop("seed", session.config.seed))
        self.params = spec.resolve_params(overrides)

    # -- introspection ----------------------------------------------------
    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def plannable(self) -> bool:
        return self._spec.plannable

    def __repr__(self) -> str:
        return (
            f"WorkloadHandle({self.name!r}, params={self.params}, "
            f"seed={self.seed})"
        )

    def _typed(self, rows: dict, **options) -> list:
        """``options`` checked against their table rows: a bad choice
        reads the same here as on the CLI and the service."""
        return [
            rows[name].coerce(value, name, self.name)
            for name, value in options.items()
        ]

    # -- context building --------------------------------------------------
    def _context(self, with_machine: bool = True) -> WorkloadContext:
        sess = self._session
        ctx = WorkloadContext(
            name=self.name,
            nprocs=sess.config.nprocs,
            cost_model=sess.cost_model,
            seed=self.seed,
            params=dict(self.params),
        )
        if with_machine:
            ctx.machine = sess._adopt(self._spec.make_machine(ctx))
        return ctx

    def _recorded(
        self, ctx: WorkloadContext, log: "EventLog | None"
    ) -> ExecutionOutcome:
        """Run the spec on ``ctx.machine``, recording typed events
        into ``log`` when one is given."""
        if log is None:
            return self._spec.execute(ctx)
        from ..sim.events import record

        with record(ctx.machine, log):
            return self._spec.execute(ctx)

    def _execute(
        self, ctx: WorkloadContext, log: "EventLog | None"
    ) -> tuple[ExecutionOutcome, str]:
        """Run the spec on ``ctx.machine`` under the session backend,
        optionally recording typed events into ``log``.  Returns the
        outcome and the name of the backend that executed it.

        Degradation tier 2 (ISSUE 9): if the configured backend fails
        unrecoverably — the fleet supervisor's restart budget is spent,
        or a shared-memory allocation failed — and the session allows
        degradation, rerun the stage from scratch on the serial
        backend a fresh machine carries.  The context is rebuilt
        (fresh machine, untouched seed-derived state) and any
        half-recorded events are dropped, so the rerun is
        indistinguishable from a run that was serial from the start —
        and bitwise-identical to a healthy parallel run by the
        conformance contract, so callers only notice the incident
        record, the ``repro_degradation_total`` metric and the
        result's ``backend``.
        """
        from ..backend.base import BackendError

        try:
            with self._session.attach(ctx.machine) as backend:
                return self._recorded(ctx, log), backend.name
        except (BackendError, MemoryError) as exc:
            sess = self._session
            backend_name = sess.config.backend_name
            if not sess.degrade or backend_name == "serial":
                raise
            sess.mark_poisoned(f"{type(exc).__name__}: {exc}")
            _DEGRADATIONS.inc(tier="serial_fallback", workload=self.name)
            _flight.incident(
                "degraded to serial backend", error=exc,
                attrs={
                    "tier": "serial_fallback",
                    "workload": self.name,
                    "from_backend": backend_name,
                },
            )
            ctx.machine = self._context().machine
            if log is not None:
                log.clear()
            return self._recorded(ctx, log), ctx.machine.backend.name

    # -- stages ------------------------------------------------------------
    @_staged("plan")
    def plan(
        self,
        cost_mode: str = _PLAN["cost_mode"].default,
        method: str = _PLAN["method"].default,
    ) -> PlanResult:
        """Run the automatic distribution planner on this workload.

        ``cost_mode`` is ``"model"`` (closed-form aggregates) or
        ``"simulated"`` (the discrete-event simulator's split-phase
        overlap semantics); ``method`` is ``"auto"`` | ``"dp"`` |
        ``"greedy"``.
        """
        from ..planner.costs import CostEngine, SimulatedCostEngine
        from ..planner.workloads import hand_schedule_cost, plan_workload

        cost_mode, method = self._typed(
            _PLAN, cost_mode=cost_mode, method=method
        )
        ctx = self._context(with_machine=False)
        workload = self._spec.planning_problem(ctx)
        self._session._adopt(workload.machine)
        if cost_mode == "simulated":
            engine: CostEngine = SimulatedCostEngine(workload.machine)
        else:
            engine = CostEngine(workload.machine)
        plan = plan_workload(workload, cost_engine=engine, method=method)
        hand = hand_schedule_cost(workload, cost_engine=engine)
        return PlanResult(
            workload=self.name,
            description=workload.description,
            cost_model=self._session.cost_model.name,
            cost_mode=cost_mode,
            method=method,
            nprocs=self._session.config.nprocs,
            plan=plan,
            hand_cost=hand,
        )

    @_staged("run")
    def run(self) -> RunResult:
        """Execute the workload on a fresh machine; returns the typed
        result (solution, headline metrics, per-processor clocks, and —
        when the session records events — the typed event log)."""
        from ..sim.events import EventLog

        ctx = self._context()
        log = EventLog() if self._session.config.record_events else None
        outcome, backend = self._execute(ctx, log)
        machine = ctx.machine
        stats = machine.stats()
        return RunResult(
            workload=self.name,
            backend=backend,
            nprocs=self._session.config.nprocs,
            seed=self.seed,
            cost_model=self._session.cost_model.name,
            params=dict(self.params),
            headline=dict(outcome.headline),
            solution=outcome.solution,
            clocks=tuple(machine.network.clocks),
            messages=stats.messages,
            bytes=stats.bytes,
            time=stats.time,
            result=outcome.result,
            events=log,
        )

    @_staged("trace")
    def trace(
        self,
        overlap: bool | None = _TRACE["overlap"].default,
        compact: bool = _TRACE["compact"].default,
    ) -> TraceResult:
        """Execute the workload recording typed events, then replay
        them through the discrete-event simulator.

        ``overlap=None`` simulates both semantics (blocking and
        split-phase); ``False`` or ``True`` simulates just one.
        ``compact`` makes the result's JSON metrics-only (no
        per-processor interval lists).
        """
        from ..sim.events import EventLog
        from ..sim.simulate import simulate

        ctx = self._context()
        log = EventLog()
        self._execute(ctx, log)
        machine = ctx.machine
        blocking = split = None
        matches = None
        if overlap is not True:
            blocking = simulate(
                log, machine.cost_model, machine.nprocs, overlap=False
            )
            matches = blocking.clocks == machine.network.clocks
        if overlap is not False:
            split = simulate(
                log, machine.cost_model, machine.nprocs, overlap=True
            )
        return TraceResult(
            workload=self.name,
            nprocs=self._session.config.nprocs,
            seed=self.seed,
            cost_model=self._session.cost_model.name,
            params=dict(self.params),
            events=log,
            blocking=blocking,
            split=split,
            matches_aggregate=matches,
            compact=compact,
        )

    @_staged("bench")
    def bench(self, repeats: int = _BENCH["repeats"].default) -> BenchResult:
        """Wall-clock the workload over ``repeats`` independent runs
        (fresh machine each time; modeled machine time rides along).
        On a multiprocess session only the first repeat can include a
        fleet start."""
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        wall: list[float] = []
        outcome = None
        machine = None
        for _ in range(repeats):
            ctx = self._context()
            t0 = time.perf_counter()
            outcome, backend = self._execute(ctx, None)
            wall.append(time.perf_counter() - t0)
            machine = ctx.machine
        return BenchResult(
            workload=self.name,
            backend=backend,
            nprocs=self._session.config.nprocs,
            seed=self.seed,
            cost_model=self._session.cost_model.name,
            params=dict(self.params),
            wall_times=wall,
            modeled_time=machine.time,
            headline=dict(outcome.headline),
        )

    @_staged("adapt")
    def adapt(
        self,
        mode: str = _ADAPT["mode"].default,
        window: int | None = _ADAPT["window"].default,
    ):
        """Drive the workload under the online adaptive controller.

        ``mode`` selects the layout policy (``"adaptive"`` — the
        feedback loop — or the ``"static"`` / ``"balanced"`` /
        ``"offline"`` baselines); ``window`` the monitoring window in
        steps (default: the workload's natural phase length, chosen by
        its ``.adaptive`` hook).  Only workloads registered with that
        hook support this stage; others raise ``ValueError``.
        """
        from ..adapt.controller import AdaptiveController
        from .results import AdaptResult

        mode, window = self._typed(_ADAPT, mode=mode, window=window)
        if not self._spec.adaptable:
            supported = self._session.registry.adaptable_names()
            raise ValueError(
                f"workload {self.name!r} has no adaptive driver "
                f"(supported: {list(supported)})"
            )
        model = self._spec.adaptive_model(self._context(with_machine=False))
        window = min(
            int(model.window if window is None else window), int(model.steps)
        )
        controller = AdaptiveController(
            self._spec,
            nprocs=self._session.config.nprocs,
            cost_model=self._session.cost_model,
            window=window,
            seed=self.seed,
            params=dataclasses.asdict(model),
        )
        run = controller.run(mode, machine=self._session.machine())
        return AdaptResult(
            workload=self.name,
            nprocs=self._session.config.nprocs,
            seed=self.seed,
            cost_model=self._session.cost_model.name,
            mode=mode,
            window=window,
            params=dict(self.params),
            run=run,
        )
