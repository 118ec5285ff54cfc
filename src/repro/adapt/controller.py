"""The adaptive controller — closing the loop the paper leaves open.

Vienna Fortran makes redistribution *expressible* (``DYNAMIC`` arrays,
run-time ``DISTRIBUTE``); PR 1's planner makes it *schedulable* from a
static cost model.  Neither answers what happens when the load evolves
in ways no offline model predicts — the PIC cluster diffusing apart,
an unstructured mesh's hot spot wandering.  The
:class:`AdaptiveController` answers online: it wraps a workload run,
measures per-processor busy time window by window (clock deltas taken
around each rank's compute call, *before* the equalizing barrier),
feeds a :class:`~repro.adapt.LoadMonitor`, consults a
:class:`~repro.adapt.PolicyLibrary`, and redistributes through the
engine's ordinary ``DISTRIBUTE`` path — the same transfer-plan memos
every other redistribution pays.

The controller is workload-agnostic: it names no workload and drives
whatever *adaptive model* a registered
:class:`~repro.api.WorkloadSpec`'s ``.adaptive`` hook returns.  The
model owns only the workload's physics; machine and engine set-up, the
start layout, busy accumulation, pricing, ``DISTRIBUTE`` and every
record are the one driver below.  A model is a dataclass whose fields
are its parameters — recorded verbatim in :attr:`AdaptiveRun.params`,
overridable by name through :class:`AdaptiveController`, and including
``window`` (steps per monitoring window) and ``drift`` (the knob the
coverage sweep turns) — plus:

====================== ==================================================
``steps``              how many steps a run takes
``array``              ``(name, shape)`` of the distributed array; its
                       first dimension is what gets re-blocked
``flops_per_unit``     modeled flops per unit of :meth:`weights`
``probe``              parameter overrides for a small, fast run
``begin(seed)``        build the initial state
``step(k, machine,     run step ``k`` (1-based) under the unit -> rank
owners) -> busy``      map ``owners``; return each rank's compute-clock
                       advance, measured before any barrier
``weights()``          per-unit load, now
``dist_of(sizes)``     the ``DistributionType`` giving rank ``r`` the
                       next ``sizes[r]`` units
``state``              the array that is digested at checkpoints and
                       returned as the solution
``offline_schedule(    optional: per-window sizes an offline planner
nprocs, cost_model,    would precompute (without it the offline arm is
seed)``                the t=0 balance held fixed)
====================== ==================================================

Four modes share that driver, so their runs differ *only* in
redistribution decisions (the physical state consumes an identical RNG
stream, making solutions bitwise-equal across modes — the property the
determinism gate leans on):

=========== =============================================================
mode        layout policy
=========== =============================================================
static      BLOCK at declaration, held for the whole run
balanced    B_BLOCK from the load measured at step 0, then held
offline     the model's ``offline_schedule``, applied at window
            boundaries; the t=0 balance held fixed when it has none
            (run-time data an offline tool cannot see is exactly the
            paper's gap)
adaptive    the feedback loop: monitor -> policy tiers -> DISTRIBUTE
=========== =============================================================

Every window boundary records a :class:`Checkpoint` (step, modeled
time, live block sizes, state digest) — the in-process echo of the
multiprocess backend's op-boundary segment snapshots — and every
policy consultation lands in the decision log, on the flight recorder,
and (when metrics are enabled) in ``repro_adapt_*`` instruments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ..core.generators import get_generator
from ..defaults import ADAPT_MODES as MODES
from ..machine.cost_model import PRESETS, CostModel
from ..machine.machine import Machine
from ..machine.topology import ProcessorArray
from ..obs import metrics as _obs
from ..obs.flight import flight_recorder as _flight
from ..obs.tracing import span as _span
from .monitor import LoadMonitor, WindowSample
from .policies import Decision, PolicyLibrary, TIER_NAMES

if TYPE_CHECKING:
    from ..api.registry import WorkloadSpec

__all__ = [
    "MODES",
    "Checkpoint",
    "ReplanRecord",
    "AdaptiveRun",
    "AdaptiveController",
]

_REPLANS = _obs.counter(
    "repro_adapt_replans_total",
    "Online redistributions the adaptive controller committed, "
    "by workload and policy tier.",
    ("workload", "tier"),
)
_DECISIONS = _obs.counter(
    "repro_adapt_decisions_total",
    "Policy consultations at window boundaries, by workload and verdict.",
    ("workload", "verdict"),
)
_DRIFT = _obs.gauge(
    "repro_adapt_drift",
    "EWMA-smoothed load imbalance the monitor last observed, by workload.",
    ("workload",),
)


@dataclass(frozen=True)
class Checkpoint:
    """Phase-boundary snapshot of the run's restorable state.

    The in-process analogue of the multiprocess backend's op-boundary
    segment snapshots: enough to audit (and in a fault-tolerant
    deployment, restore) the run at a window boundary — the step
    reached, the modeled clock, the live block sizes, and a digest of
    the physical state.
    """

    window: int
    step: int
    time: float
    sizes: tuple[int, ...]
    state_digest: str

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "step": self.step,
            "time": self.time,
            "sizes": list(self.sizes),
            "state_digest": self.state_digest,
        }


@dataclass(frozen=True)
class ReplanRecord:
    """One committed redistribution, with the decision that caused it."""

    window: int
    step: int
    tier: int
    rule: str
    imbalance: float
    reason: str
    plan_delta: float | None
    old_sizes: tuple[int, ...]
    new_sizes: tuple[int, ...]
    transfer_bytes: int
    time: float

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "step": self.step,
            "tier": self.tier,
            "tier_name": TIER_NAMES[self.tier],
            "rule": self.rule,
            "imbalance": self.imbalance,
            "reason": self.reason,
            "plan_delta": self.plan_delta,
            "old_sizes": list(self.old_sizes),
            "new_sizes": list(self.new_sizes),
            "transfer_bytes": self.transfer_bytes,
            "time": self.time,
        }


@dataclass
class AdaptiveRun:
    """One driven run: what happened, measured and decided."""

    workload: str
    mode: str
    nprocs: int
    window: int
    steps: int
    seed: int
    cost_model: str
    params: dict
    makespan: float
    messages: int
    bytes: int
    solution: np.ndarray
    samples: list[WindowSample] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)
    replans: list[ReplanRecord] = field(default_factory=list)
    checkpoints: list[Checkpoint] = field(default_factory=list)

    def solution_digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.solution.shape).encode())
        h.update(str(self.solution.dtype).encode())
        h.update(np.ascontiguousarray(self.solution).tobytes())
        return h.hexdigest()

    def decision_log(self) -> list[dict]:
        """The replan decisions in canonical JSON form — the payload
        the determinism gate compares across repeated runs."""
        return [d.to_json() for d in self.decisions]

    def decision_digest(self) -> str:
        payload = json.dumps(
            {
                "decisions": self.decision_log(),
                "replans": [r.to_json() for r in self.replans],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def mean_imbalance(self) -> float:
        if not self.samples:
            return 1.0
        return float(np.mean([s.imbalance for s in self.samples]))

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "nprocs": self.nprocs,
            "window": self.window,
            "steps": self.steps,
            "seed": self.seed,
            "cost_model": self.cost_model,
            "params": dict(self.params),
            "makespan": self.makespan,
            "messages": self.messages,
            "bytes": self.bytes,
            "mean_imbalance": self.mean_imbalance,
            "solution_digest": self.solution_digest(),
            "decision_digest": self.decision_digest(),
            "samples": [s.to_json() for s in self.samples],
            "decisions": self.decision_log(),
            "replans": [r.to_json() for r in self.replans],
            "checkpoints": [c.to_json() for c in self.checkpoints],
        }


def _digest_state(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _even_sizes(n: int, p: int) -> list[int]:
    from ..core.dimdist import Block

    return [int(c) for c in np.bincount(Block().owners_vec(n, p), minlength=p)]


class _WindowLoop:
    """Per-window bookkeeping: measure -> monitor -> policy ->
    (maybe) redistribute -> checkpoint.  The driver feeds it busy
    vectors and callables; it owns the records."""

    def __init__(
        self,
        run: AdaptiveRun,
        machine: Machine,
        monitor: LoadMonitor,
        policy: PolicyLibrary,
        mode: str,
        offline_schedule: Sequence[Sequence[int]] | None = None,
    ):
        self.run = run
        self.machine = machine
        self.monitor = monitor
        self.policy = policy
        self.mode = mode
        self.offline_schedule = offline_schedule
        self.windows_seen = 0

    def boundary(
        self,
        step: int,
        busy: Sequence[float],
        current_sizes: Sequence[int],
        pricing: Callable[[], float] | None,
        redistribute: Callable[[Sequence[int]], int],
        propose: Callable[[], list[int]],
        state: np.ndarray,
    ) -> list[int]:
        """One window boundary; returns the (possibly new) sizes."""
        w = self.windows_seen
        self.windows_seen += 1
        run = self.run
        sample = self.monitor.observe(busy)
        if _obs.enabled():
            _DRIFT.set(self.monitor.ewma, workload=run.workload)
        sizes = [int(s) for s in current_sizes]
        if self.mode == "adaptive":
            with _span("adapt.decide", workload=run.workload, window=w):
                decision = self.policy.decide(self.monitor, pricing=pricing)
            run.decisions.append(decision)
            if _obs.enabled():
                _DECISIONS.inc(
                    workload=run.workload,
                    verdict="replan" if decision.replan else "hold",
                )
            _flight.note(
                "adapt.decision",
                workload=run.workload,
                window=w,
                step=step,
                tier=decision.tier_name,
                replan=decision.replan,
                imbalance=round(decision.imbalance, 4),
                reason=decision.reason,
            )
            if decision.replan:
                new_sizes = [int(s) for s in propose()]
                with _span("adapt.replan", workload=run.workload, window=w):
                    moved = int(redistribute(new_sizes))
                self.monitor.notify_replanned()
                record = ReplanRecord(
                    window=w,
                    step=step,
                    tier=decision.tier,
                    rule=decision.rule,
                    imbalance=decision.imbalance,
                    reason=decision.reason,
                    plan_delta=decision.plan_delta,
                    old_sizes=tuple(sizes),
                    new_sizes=tuple(new_sizes),
                    transfer_bytes=moved,
                    time=self.machine.time,
                )
                run.replans.append(record)
                if _obs.enabled():
                    _REPLANS.inc(
                        workload=run.workload, tier=decision.tier_name
                    )
                _flight.note(
                    "adapt.replan",
                    workload=run.workload,
                    window=w,
                    step=step,
                    tier=decision.tier_name,
                    imbalance=round(decision.imbalance, 4),
                    plan_delta=decision.plan_delta,
                    sizes_delta=[
                        int(b - a) for a, b in zip(sizes, new_sizes)
                    ],
                    transfer_bytes=moved,
                )
                sizes = new_sizes
        elif self.mode == "offline" and self.offline_schedule is not None:
            nxt = w + 1
            if nxt < len(self.offline_schedule):
                planned = [int(s) for s in self.offline_schedule[nxt]]
                if planned != sizes:
                    redistribute(planned)
                    sizes = planned
        run.samples.append(sample)
        run.checkpoints.append(
            Checkpoint(
                window=w,
                step=step,
                time=self.machine.time,
                sizes=tuple(sizes),
                state_digest=_digest_state(state),
            )
        )
        return sizes


def _balanced_sizes(weights: np.ndarray, nprocs: int) -> list[int]:
    """``B_BLOCK`` sizes balancing ``weights`` — Figure 2's ``balance``."""
    block = get_generator("weighted_block")(len(weights), nprocs, weights=weights)
    return list(block.sizes)


def _drive(
    workload: str,
    model,
    mode: str,
    machine: Machine,
    seed: int,
    policy: PolicyLibrary,
    monitor_kwargs: Mapping,
) -> AdaptiveRun:
    """Run ``model`` once on ``machine`` with the layout under
    ``mode``'s control."""
    from ..planner.costs import CostEngine
    from ..planner.phases import ArrayLoad
    from ..runtime.engine import Engine

    nprocs, cost_model = machine.nprocs, machine.cost_model
    engine = Engine(machine)
    machine.reset_network()
    model.begin(seed)
    name, shape = model.array
    steps, window = int(model.steps), int(model.window)
    sizes = _even_sizes(shape[0], nprocs)
    arr = engine.declare(name, shape, dist=model.dist_of(sizes), dynamic=True)

    def redistribute(new_sizes: Sequence[int]) -> int:
        b0 = machine.stats().bytes
        engine.distribute(name, model.dist_of([int(s) for s in new_sizes]))
        return machine.stats().bytes - b0

    offline_schedule = None
    if mode == "offline" and hasattr(model, "offline_schedule"):
        offline_schedule = model.offline_schedule(nprocs, cost_model, seed)
    if mode == "static":
        start_sizes = sizes
    elif offline_schedule:
        start_sizes = [int(s) for s in offline_schedule[0]]
    else:
        start_sizes = _balanced_sizes(model.weights(), nprocs)
    if start_sizes != sizes:
        redistribute(start_sizes)
        sizes = start_sizes

    cost_engine = CostEngine(machine, itemsize=arr.itemsize)
    run = AdaptiveRun(
        workload=workload, mode=mode, nprocs=nprocs, window=window,
        steps=steps, seed=seed, cost_model=cost_model.name,
        params=dataclasses.asdict(model), makespan=0.0, messages=0, bytes=0,
        solution=model.state,
    )
    monitor = LoadMonitor(nprocs, **dict(monitor_kwargs))
    loop = _WindowLoop(run, machine, monitor, policy, mode, offline_schedule)

    busy_acc = np.zeros(nprocs)
    for k in range(1, steps + 1):
        owners = np.repeat(np.arange(nprocs), sizes)
        busy_acc += model.step(k, machine, owners)
        if k % window == 0:
            w = model.weights()

            def pricing() -> float:
                cand = model.dist_of(_balanced_sizes(w, nprocs)).apply(
                    shape, machine.full_section()
                )
                load = ArrayLoad(
                    name, 0, tuple(float(c) for c in w),
                    flops_per_unit=model.flops_per_unit,
                )
                horizon = min(window, steps - k)
                gain = (
                    cost_engine.load_cost(load, arr.dist)
                    - cost_engine.load_cost(load, cand)
                ) * horizon
                return gain - cost_engine.transition_cost(arr.dist, cand)

            sizes = loop.boundary(
                step=k,
                busy=busy_acc,
                current_sizes=sizes,
                pricing=pricing,
                redistribute=redistribute,
                propose=lambda: _balanced_sizes(w, nprocs),
                state=model.state,
            )
            busy_acc = np.zeros(nprocs)

    stats = machine.stats()
    run.makespan = machine.time
    run.messages = stats.messages
    run.bytes = stats.bytes
    run.solution = model.state
    return run


class AdaptiveController:
    """Online feedback control of one workload's data distribution.

    ``controller = AdaptiveController("pic"); run = controller.run()``
    drives the registered workload's adaptive model in ``"adaptive"``
    mode; ``run(mode=...)`` selects the baselines the bench compares
    against.  All modes share the driver, the seed, and the RNG
    stream, so only redistribution decisions differ between them.

    ``workload`` is a name in the global registry or a
    :class:`~repro.api.WorkloadSpec`; the model starts from the spec's
    registered defaults and ``params`` overrides its fields by name.
    """

    def __init__(
        self,
        workload: "str | WorkloadSpec",
        *,
        nprocs: int = 4,
        cost_model: CostModel | str = "Paragon",
        window: int | None = None,
        policy: PolicyLibrary | None = None,
        seed: int = 0,
        params: Mapping | None = None,
        monitor: Mapping | None = None,
    ):
        from ..api.registry import REGISTRY, WorkloadContext

        spec = REGISTRY.get(workload) if isinstance(workload, str) else workload
        if isinstance(cost_model, str):
            if cost_model not in PRESETS:
                raise ValueError(
                    f"unknown cost model {cost_model!r} "
                    f"(presets: {sorted(PRESETS)})"
                )
            cost_model = PRESETS[cost_model]
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.workload = spec.name
        self.nprocs = int(nprocs)
        self.cost_model = cost_model
        self.policy = policy if policy is not None else PolicyLibrary()
        self.seed = int(seed)
        self.monitor_kwargs = dict(monitor or {})
        overrides = dict(params or {})
        if window is not None:
            overrides["window"] = int(window)
        self._model = self._override(
            spec.adaptive_model(
                WorkloadContext(
                    name=spec.name,
                    nprocs=self.nprocs,
                    cost_model=cost_model,
                    seed=self.seed,
                    params=spec.resolve_params({}),
                )
            ),
            overrides,
        )

    @property
    def params(self) -> dict:
        """The model's parameters, as every run will record them."""
        return dataclasses.asdict(self._model)

    def _override(self, model, overrides: Mapping):
        """A fresh copy of ``model`` with ``overrides`` applied."""
        accepted = sorted(f.name for f in dataclasses.fields(model))
        unknown = sorted(set(overrides) - set(accepted))
        if unknown:
            raise TypeError(
                f"adaptive driver for {self.workload!r} got unknown "
                f"parameter(s) {unknown} (accepted: {accepted})"
            )
        model = dataclasses.replace(model, **overrides)
        if int(model.window) < 1:
            raise ValueError(f"window must be >= 1, got {model.window}")
        return model

    def run(
        self, mode: str = "adaptive", machine: Machine | None = None, **overrides
    ) -> AdaptiveRun:
        """Drive the workload once under ``mode`` (see :data:`MODES`) on
        ``machine`` (default: a fresh 1-D one of the controller's
        ``nprocs`` and cost model)."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        model = self._override(self._model, overrides)
        if machine is None:
            machine = Machine(
                ProcessorArray("P", (self.nprocs,)), cost_model=self.cost_model
            )
        with _span(
            "adapt.run", workload=self.workload, mode=mode,
            window=int(model.window),
        ):
            return _drive(
                self.workload,
                model,
                mode,
                machine,
                self.seed,
                self.policy,
                self.monitor_kwargs,
            )

    def probe(self, drift: float | None = None) -> AdaptiveRun:
        """A small, fast adaptive run (coverage sweeps and smoke tests)."""
        overrides = dict(self._model.probe)
        if drift is not None:
            overrides["drift"] = float(drift)
        return self.run("adaptive", **overrides)
