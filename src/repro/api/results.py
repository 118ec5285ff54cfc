"""Typed stage results sharing one ``.summary()`` / ``.to_json()`` protocol.

Each :class:`~repro.api.WorkloadHandle` stage returns one of these:

- :class:`PlanResult`  — ``handle.plan()``: the planner's schedule;
- :class:`RunResult`   — ``handle.run()``: solution, headline metrics,
  per-processor clocks, optional event log;
- :class:`TraceResult` — ``handle.trace()``: the discrete-event
  simulator's blocking / split-phase timelines;
- :class:`BenchResult` — ``handle.bench()``: wall-clock repetitions;
- :class:`AdaptResult` — ``handle.adapt()``: the adaptive controller's
  window-by-window decision record and modeled makespan.

``summary()`` renders a terminal-friendly report; ``to_json()`` returns
a ``json.dumps``-able dict (numpy scalars normalized); ``json_str()``
is the round-trippable string the CLI's ``--json`` flags print.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from ..adapt.controller import AdaptiveRun
    from ..planner.search import Plan
    from ..sim.clock import Timeline
    from ..sim.events import EventLog

__all__ = [
    "SessionResult",
    "PlanResult",
    "RunResult",
    "TraceResult",
    "BenchResult",
    "AdaptResult",
    "config_fingerprint",
]


def _jsonable(value: Any) -> Any:
    """Normalize numpy scalars/containers into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def config_fingerprint(payload: Any) -> str:
    """Canonical SHA-256 digest of a JSON-able config/request payload.

    The payload is normalized through the same numpy-scalar coercion
    the stage results use and serialized with sorted keys and fixed
    separators, so two structurally equal configs — however their
    values were spelled (``np.int64(4)`` vs ``4``, key order) —
    fingerprint identically.  This is the cache key of the
    ``repro.serve`` cross-session response cache and the identity the
    determinism guarantee is stated against: equal fingerprints ⇒
    byte-identical responses for deterministic stages.
    """
    canon = json.dumps(
        _jsonable(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode()).hexdigest()


class SessionResult:
    """The protocol every stage result implements."""

    def summary(self) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def json_str(self, indent: int | None = 2) -> str:
        """``to_json()`` serialized — guaranteed ``json.loads``-able."""
        return json.dumps(self.to_json(), indent=indent)


@dataclass
class PlanResult(SessionResult):
    """Outcome of ``handle.plan()`` — a priced redistribution schedule."""

    workload: str
    description: str
    cost_model: str
    cost_mode: str
    method: str
    nprocs: int
    plan: "Plan"
    hand_cost: float | None = None

    @property
    def total_cost(self) -> float:
        return self.plan.total_cost

    def summary(self) -> str:
        lines = [f"workload: {self.description}", self.plan.summary()]
        if self.hand_cost is not None:
            lines.append(f"  paper's hand schedule: {self.hand_cost:.3e}s")
        best = self.plan.best_static
        if best is not None:
            if self.plan.total_cost > 0:
                ratio = best[1] / self.plan.total_cost
            else:
                # both costs zero (e.g. the zero-cost model): equal, not inf
                ratio = 1.0 if best[1] == 0 else float("inf")
            lines.append(
                f"  planner vs best static: {self.plan.total_cost:.3e}s vs "
                f"{best[1]:.3e}s ({ratio:.1f}x)"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return _jsonable(
            {
                "workload": self.workload,
                "description": self.description,
                "cost_model": self.cost_model,
                "cost_mode": self.cost_mode,
                "method": self.method,
                "nprocs": self.nprocs,
                "plan": self.plan.to_dict(),
                "hand_schedule_cost": self.hand_cost,
            }
        )


@dataclass
class RunResult(SessionResult):
    """Outcome of ``handle.run()`` — one executed workload."""

    workload: str
    backend: str
    nprocs: int
    seed: int
    cost_model: str
    params: dict = field(default_factory=dict)
    #: the workload's headline metrics (what the CLI table prints)
    headline: dict = field(default_factory=dict)
    #: the comparison payload — bitwise-stable across backends/sessions
    solution: np.ndarray | None = None
    #: per-processor aggregate clocks at end of run
    clocks: tuple[float, ...] = ()
    #: modeled messages / bytes / time on the simulated network
    messages: int = 0
    bytes: int = 0
    time: float = 0.0
    #: the app-specific result object (ADIResult, PICResult, ...)
    result: Any = None
    #: typed event log when the session records events, else None
    events: "EventLog | None" = None

    def summary(self) -> str:
        lines = [
            f"run {self.workload} (nprocs={self.nprocs}, "
            f"backend={self.backend}, cost model {self.cost_model}, "
            f"seed={self.seed})"
        ]
        for k, v in self.headline.items():
            shown = f"{v:.3f}" if isinstance(v, float) else str(v)
            lines.append(f"  {k:18s} {shown}")
        return "\n".join(lines)

    def solution_digest(self) -> str | None:
        """SHA-256 of the solution bytes (shape/dtype included)."""
        if self.solution is None:
            return None
        h = hashlib.sha256()
        h.update(repr((self.solution.shape, str(self.solution.dtype))).encode())
        h.update(np.ascontiguousarray(self.solution).tobytes())
        return h.hexdigest()

    def fingerprint(self) -> str:
        """One digest over everything bitwise-comparable: solution,
        per-processor clocks, headline metrics, and the event stream
        (when recorded).  Equal fingerprints mean equal runs."""
        h = hashlib.sha256()
        h.update((self.solution_digest() or "none").encode())
        h.update(repr(tuple(self.clocks)).encode())
        h.update(repr(sorted(self.headline.items())).encode())
        h.update(repr((self.messages, self.bytes, self.time)).encode())
        if self.events is not None:
            for ev in self.events.events:
                h.update(repr(ev).encode())
        return h.hexdigest()

    def to_json(self) -> dict:
        return _jsonable(
            {
                "workload": self.workload,
                "backend": self.backend,
                "nprocs": self.nprocs,
                "seed": self.seed,
                "cost_model": self.cost_model,
                "params": self.params,
                # headline metric names are workload-controlled: keep
                # them in their own object so they can never collide
                # with (or be shadowed by) the fixed report fields
                "headline": self.headline,
                "messages": self.messages,
                "bytes": self.bytes,
                "modeled_time_s": self.time,
                "clocks": list(self.clocks),
                "solution_sha256": self.solution_digest(),
                "events": self.events.counts() if self.events is not None else None,
            }
        )


@dataclass
class TraceResult(SessionResult):
    """Outcome of ``handle.trace()`` — simulated execution timelines."""

    workload: str
    nprocs: int
    seed: int
    cost_model: str
    params: dict = field(default_factory=dict)
    events: "EventLog | None" = None
    blocking: "Timeline | None" = None
    split: "Timeline | None" = None
    #: blocking replay clocks == the aggregate accounting, bit for bit
    matches_aggregate: bool | None = None
    #: ``handle.trace(compact=True)``: JSON without the interval lists
    compact: bool = False

    def timeline(self, overlap: bool = False) -> "Timeline":
        """The requested timeline (``overlap=True`` for split-phase)."""
        tl = self.split if overlap else self.blocking
        if tl is None:
            which = "split-phase" if overlap else "blocking"
            raise ValueError(
                f"this trace did not simulate {which} semantics "
                f"(pass overlap={overlap!r} — or no overlap — to .trace())"
            )
        return tl

    @property
    def overlap_reduction(self) -> float | None:
        """Fraction of the blocking makespan hidden by split-phase."""
        if self.blocking is None or self.split is None:
            return None
        if self.blocking.makespan <= 0:
            return 0.0
        return 1.0 - self.split.makespan / self.blocking.makespan

    def summary(self) -> str:
        lines = [
            f"trace {self.workload} (nprocs={self.nprocs}, "
            f"cost model {self.cost_model}, seed={self.seed})"
        ]
        if self.events is not None:
            lines.append(f"  events: {self.events.counts()}")
        if self.matches_aggregate is not None:
            lines.append(
                f"  matches aggregate accounting bit for bit: "
                f"{self.matches_aggregate}"
            )
        if self.blocking is not None:
            lines.append(f"  blocking:    {self.blocking.summary()}")
        if self.split is not None:
            lines.append(f"  split-phase: {self.split.summary()}")
        red = self.overlap_reduction
        if red is not None:
            lines.append(
                f"  split-phase overlap hides {red:.1%} of the blocking "
                f"makespan"
            )
        return "\n".join(lines)

    def to_json(self, intervals: bool | None = None) -> dict:
        """``intervals`` overrides the result's own ``compact`` choice."""
        from ..sim.critical_path import critical_path
        from ..sim.trace import to_json as timeline_json

        if intervals is None:
            intervals = not self.compact
        out: dict = {
            "workload": self.workload,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "cost_model": self.cost_model,
            "params": _jsonable(self.params),
            "events": self.events.counts() if self.events is not None else None,
            "matches_aggregate_accounting": self.matches_aggregate,
        }
        for key, tl in (("blocking", self.blocking), ("split_phase", self.split)):
            out[key] = (
                timeline_json(tl, critical=critical_path(tl), intervals=intervals)
                if tl is not None
                else None
            )
        return _jsonable(out)


@dataclass
class BenchResult(SessionResult):
    """Outcome of ``handle.bench()`` — wall-clock over repetitions."""

    workload: str
    backend: str
    nprocs: int
    seed: int
    cost_model: str
    params: dict = field(default_factory=dict)
    #: one wall-clock second count per repetition
    wall_times: list[float] = field(default_factory=list)
    #: the final repetition's modeled time on the simulated machine
    modeled_time: float = 0.0
    headline: dict = field(default_factory=dict)

    @property
    def best(self) -> float:
        return min(self.wall_times) if self.wall_times else float("nan")

    @property
    def mean(self) -> float:
        return (
            sum(self.wall_times) / len(self.wall_times)
            if self.wall_times
            else float("nan")
        )

    def summary(self) -> str:
        lines = [
            f"bench {self.workload} (nprocs={self.nprocs}, "
            f"backend={self.backend}, {len(self.wall_times)} repeat(s))",
            f"  wall time: best {self.best * 1e3:.2f} ms, "
            f"mean {self.mean * 1e3:.2f} ms",
            f"  modeled machine time: {self.modeled_time * 1e3:.3f} ms",
        ]
        for k, v in self.headline.items():
            shown = f"{v:.3f}" if isinstance(v, float) else str(v)
            lines.append(f"  {k:18s} {shown}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return _jsonable(
            {
                "workload": self.workload,
                "backend": self.backend,
                "nprocs": self.nprocs,
                "seed": self.seed,
                "cost_model": self.cost_model,
                "params": self.params,
                "repeats": len(self.wall_times),
                "wall_times_s": self.wall_times,
                "wall_best_s": self.best if self.wall_times else None,
                "wall_mean_s": self.mean if self.wall_times else None,
                "modeled_time_s": self.modeled_time,
                "headline": self.headline,
            }
        )


@dataclass
class AdaptResult(SessionResult):
    """Outcome of ``handle.adapt()`` — one adaptively-driven run.

    Wraps the controller's :class:`~repro.adapt.AdaptiveRun`: the
    modeled makespan under the selected layout mode plus the full
    window-by-window record (samples, decisions, replans,
    checkpoints).  Deterministic in the session config alone, like
    every other stage — the serve tier caches it by fingerprint.
    """

    workload: str
    nprocs: int
    seed: int
    cost_model: str
    mode: str
    window: int
    params: dict = field(default_factory=dict)
    run: "AdaptiveRun | None" = None

    def summary(self) -> str:
        r = self.run
        assert r is not None
        lines = [
            f"adapt {self.workload} (mode={self.mode}, "
            f"nprocs={self.nprocs}, window={self.window}, "
            f"cost model {self.cost_model}, seed={self.seed})",
            f"  modeled makespan: {r.makespan * 1e3:.3f} ms over "
            f"{r.steps} step(s)",
            f"  windows observed: {len(r.samples)}, mean imbalance "
            f"{r.mean_imbalance:.3f}",
        ]
        if self.mode == "adaptive":
            lines.append(
                f"  decisions: {len(r.decisions)}, replans: "
                f"{len(r.replans)}"
            )
            for rec in r.replans:
                lines.append(
                    f"    window {rec.window:2d} (step {rec.step:3d}) "
                    f"tier {rec.tier} [{rec.rule}] imbalance "
                    f"{rec.imbalance:.3f} -> {rec.transfer_bytes} bytes "
                    f"moved"
                )
        return "\n".join(lines)

    def to_json(self) -> dict:
        r = self.run
        assert r is not None
        return _jsonable(
            {
                "workload": self.workload,
                "nprocs": self.nprocs,
                "seed": self.seed,
                "cost_model": self.cost_model,
                "mode": self.mode,
                "window": self.window,
                "params": self.params,
                "run": r.to_json(),
            }
        )
