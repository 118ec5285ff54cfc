"""The bench-family table and the regression sentinel that walks it.

Every bench family (``perf | serve | chaos | adapt``) is one row of
:data:`FAMILIES`: schema string, committed snapshot file, and its
**gates as data** (:class:`Gate`: severity, scope, needs a baseline or
not).  One evaluator, :func:`compare_reports`, walks the row, with one
rule between its two uses: ``--check`` (:func:`finish_bench`, no
baseline) requires every gate that needs no baseline to pass — hard or
soft, any failure is fatal; ``bench --compare`` / ``obs compare``
(baseline resolved) run all gates and severity picks the exit code: 0
clean, :data:`EXIT_HARD` (2) on any hard failure, :data:`EXIT_SOFT`
(3) when only soft failures exist.

**hard** — a bitwise contract broke (op counts drifted, a vectorized
path left its reference, service bytes differed, a recovered run
diverged): deterministic functions of the code, so *any* drift is a
real behaviour change.  **soft** — a machine-dependent figure drifted:
wall clock beyond the trajectory's noise band (``mean + 3σ`` over
same-size, same-machine-class samples) or, with too little history, a
relative tolerance on the baseline figure.  A soft gate only fires on
an item nothing else has failed; a gate whose input field is absent
from a report does not fire.

Baselines resolve in order: an explicit report path, the latest
compatible trajectory entry (same kind and smoke flag, not a run that
failed its own gates), then the family's committed snapshot.  A smoke
run is **refused** as the baseline of a full-size run
(:class:`BaselineError`): its op counts and timings mean nothing there.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .trajectory import TrajectoryStore, env_digest

__all__ = [
    "BaselineError",
    "BenchDelta",
    "BenchFamily",
    "CompareReport",
    "EXIT_HARD",
    "EXIT_SOFT",
    "DEFAULT_WALL_TOLERANCE",
    "FAMILIES",
    "Gate",
    "GateFailure",
    "compare_reports",
    "finish_bench",
    "load_report",
    "resolve_baseline",
]

#: exit code for a broken bitwise contract (op/byte-count drift)
EXIT_HARD = 2
#: exit code for wall-clock drift beyond the tolerance band
EXIT_SOFT = 3

#: relative wall-clock tolerance when the trajectory has too little
#: history for a noise band (current may be up to 2x the baseline)
DEFAULT_WALL_TOLERANCE = 1.0


class BaselineError(SystemExit):
    """The chosen baseline is unusable (missing, wrong kind, or a
    smoke run offered as a full-size reference)."""

    def __init__(self, message: str):
        super().__init__(f"baseline error: {message}")


@dataclass
class BenchDelta:
    """One bench's comparison outcome."""

    name: str
    verdict: str  # "ok" | "soft_fail" | "hard_fail" | "skipped"
    reasons: List[str] = field(default_factory=list)
    baseline_seconds: Optional[float] = None
    current_seconds: Optional[float] = None
    wall_limit: Optional[float] = None
    wall_source: Optional[str] = None  # "trajectory_noise" | "relative"

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class CompareReport:
    """The sentinel's full verdict over one baseline/current pair."""

    kind: str
    baseline_source: str
    deltas: List[BenchDelta] = field(default_factory=list)

    @property
    def hard_failures(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.verdict == "hard_fail"]

    @property
    def soft_failures(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.verdict == "soft_fail"]

    @property
    def ok(self) -> bool:
        return not self.hard_failures and not self.soft_failures

    @property
    def exit_code(self) -> int:
        if self.hard_failures:
            return EXIT_HARD
        if self.soft_failures:
            return EXIT_SOFT
        return 0

    def to_json(self) -> dict:
        return {
            "schema": "repro-bench-compare/1",
            "kind": self.kind,
            "baseline_source": self.baseline_source,
            "exit_code": self.exit_code,
            "deltas": [d.to_json() for d in self.deltas],
        }

    def summary(self) -> str:
        lines = [
            f"regression sentinel ({self.kind}) vs {self.baseline_source}:"
        ]
        for d in self.deltas:
            wall = ""
            if d.baseline_seconds is not None and d.current_seconds is not None:
                wall = (
                    f"  {d.baseline_seconds * 1e3:9.2f} ms"
                    f" -> {d.current_seconds * 1e3:9.2f} ms"
                )
            lines.append(f"  {d.name:26s} {d.verdict:9s}{wall}")
            for reason in d.reasons:
                lines.append(f"      - {reason}")
        n_hard, n_soft = len(self.hard_failures), len(self.soft_failures)
        if n_hard:
            lines.append(f"  VERDICT: HARD FAIL ({n_hard} bench(es); exit {EXIT_HARD})")
        elif n_soft:
            lines.append(f"  VERDICT: soft fail ({n_soft} bench(es); exit {EXIT_SOFT})")
        else:
            lines.append("  VERDICT: clean (exit 0)")
        return "\n".join(lines)


class GateFailure(SystemExit):
    """``--check`` failed: a bench run broke its own gates.  Exits
    with the failing :class:`CompareReport`'s code."""

    def __init__(self, report: CompareReport):
        super().__init__(report.exit_code)
        self.report = report

    def __str__(self) -> str:
        return f"{self.report.kind} bench gate failed -- " + "; ".join(
            f"{d.name}: {', '.join(d.reasons)}"
            for d in self.report.deltas if d.verdict.endswith("_fail")
        )


# -- the family table: gates as data ----------------------------------------

@dataclass(frozen=True)
class Gate:
    """One machine-checked claim about a bench report.

    ``check(current, baseline)`` sees the scope's item (the report, or
    one bench / phase / scenario) and its baseline counterpart and
    returns the failure reason or ``None``.  ``needs_baseline=False``
    gates are the run's own contract (what ``--check`` enforces); the
    baseline the others get carries ``"_wall"``: the item's (seconds,
    band limit, band source, tolerance).
    """

    name: str
    severity: str  # "hard" | "soft"
    scope: str  # "report" | "per-bench" | "per-phase" | "per-scenario"
    needs_baseline: bool
    check: Callable[[dict, Optional[dict]], Optional[str]]


@dataclass(frozen=True)
class BenchFamily:
    """One row of :data:`FAMILIES`.  ``contract`` names the delta that
    collects the report-scope gates (always listed); without one that
    delta takes its first gate's name and is listed only when it fires."""

    schema: str
    snapshot: str
    contract: Optional[str]
    gates: Tuple[Gate, ...]


def _dig(doc, path: str, default=None):
    """``doc[a][b]`` for ``path="a.b"``; ``default`` where absent."""
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            return default
        doc = doc[key]
    return doc


def _num(value) -> bool:
    return isinstance(value, (int, float))


def _true(path: str, reason: str, *, absent):
    """The flag or count at ``path`` must be truthy."""
    return lambda cur, _base: None if _dig(cur, path, absent) else reason


def _zero(path: str, reason: str):
    """The count at ``path`` must be zero (``reason`` formats it)."""
    return lambda cur, _base: (
        reason.format(_dig(cur, path)) if _dig(cur, path, 0) else None
    )


def _byte_identical(diverged: str):
    def check(report, _base):
        same = report.get("byte_identical", True)
        if same is None:
            return "no responses were compared"
        return None if same else diverged
    return check


def _metrics_scraped(report, _base):
    if not _dig(report, "metrics.scraped", True):
        return f"/metrics scrape failed: {_dig(report, 'metrics.error')}"


def _metrics_series(report, _base):
    missing = _dig(report, "metrics.missing_series")
    if missing and _dig(report, "metrics.scraped"):
        return "required metric series missing samples: " + ", ".join(missing)


def _ops_drift(side: str):
    def check(bench, base):
        b_ops, c_ops = base.get(side, {}), bench.get(side, {})
        drifted = ", ".join(
            f"{k}: {b_ops.get(k)} -> {c_ops.get(k)}"
            for k in sorted(set(b_ops) | set(c_ops))
            if b_ops.get(k) != c_ops.get(k)
        )
        return f"{side} drifted ({drifted})" if drifted else None
    return check


def _over_band(reason: str):
    """Soft wall-clock gate: the item's wall seconds must stay inside
    the band the evaluator derived for it (``reason`` speaks ms)."""
    def check(_item, base):
        cur, limit, source, tolerance = base["_wall"]
        if cur is not None and limit is not None and cur > limit:
            return reason.format(cur=cur * 1e3, limit=limit * 1e3,
                                 source=source, tolerance=tolerance)
    return check


def _hit_rate_floor(phase, _base):
    if phase.get("name") == "repeated" and "cache_hit_rate" in phase:
        rate = phase["cache_hit_rate"]
        if rate is None or rate <= 0.5:
            shown = "n/a" if rate is None else f"{rate:.0%}"
            return f"repeated-config cache hit rate {shown} (need > 50%)"


def _hit_rate_drift(phase, base):
    was, now = base.get("cache_hit_rate"), phase.get("cache_hit_rate")
    if (phase.get("name") == "repeated" and _num(was) and _num(now)
            and now < was - 0.2):
        return f"repeated-phase hit rate fell {was:.0%} -> {now:.0%}"


def _scenario(flag: str, severity: str, reason: str) -> Gate:
    return Gate(flag, severity, "per-scenario", False,
                _true(f"gates.{flag}", reason, absent=False))


#: THE table of bench families; registering one is one row (producers
#: read their schema from it, ``obs compare --kind`` its keys).  Hard
#: gates precede soft ones within a scope.  Injected failures are
#: *expected* under chaos: serve's zero-failure gate has no chaos twin.
FAMILIES: Dict[str, BenchFamily] = {
    "perf": BenchFamily("repro-bench-perf/2", "BENCH_PERF.json", None, (
        Gate("ops_match", "hard", "per-bench", False, _true(
            "match", "vectorized path diverged from its reference oracle "
            "(match: false)", absent=False)),
        Gate("reference_ops", "hard", "per-bench", True,
             _ops_drift("reference_ops")),
        Gate("vectorized_ops", "hard", "per-bench", True,
             _ops_drift("vectorized_ops")),
        Gate("wall_clock", "soft", "per-bench", True, _over_band(
            "wall clock {cur:.2f} ms exceeds the {source} "
            "band ({limit:.2f} ms)")),
    )),
    "serve": BenchFamily(
        "repro-bench-serve/2", "BENCH_SERVE.json", "serving_contract", (
            Gate("zero_failures", "hard", "report", False,
                 _zero("total_failures", "{} failed request(s)")),
            Gate("byte_identical", "hard", "report", False, _byte_identical(
                "identical requests returned non-identical bytes")),
            Gate("metrics_scraped", "hard", "report", False, _metrics_scraped),
            Gate("metrics_series", "hard", "report", False, _metrics_series),
            Gate("hit_rate_floor", "soft", "per-phase", False,
                 _hit_rate_floor),
            Gate("hit_rate_drift", "soft", "per-phase", True,
                 _hit_rate_drift),
            Gate("p50_latency", "soft", "per-phase", True, _over_band(
                "p50 latency {cur:.1f} ms exceeds {limit:.1f} "
                "ms ({tolerance:.0%} over baseline)")),
        )),
    "chaos": BenchFamily(
        "repro-bench-chaos/1", "BENCH_CHAOS.json", "robustness_contract", (
            Gate("byte_identical", "hard", "report", False, _byte_identical(
                "identical requests returned non-identical bytes under "
                "faults")),
            Gate("incident_ids", "hard", "report", False, _zero(
                "chaos.uncovered_5xx",
                "{} 5xx response(s) without an X-Repro-Incident-Id")),
            Gate("no_client_errors", "hard", "report", False, _zero(
                "chaos.client_errors", "{} 4xx response(s) — injected "
                "faults must not surface as client errors")),
            Gate("recovery_failures", "hard", "report", False, _zero(
                "chaos.recovery.failures",
                "{} recovery-phase request(s) failed")),
            Gate("recovery_identical", "hard", "report", False, _true(
                "chaos.recovery.identical", "recovered runs diverged from "
                "the serial reference", absent=True)),
            Gate("metrics_scraped", "hard", "report", False, _metrics_scraped),
            Gate("fleet_restarted", "soft", "report", False, _true(
                "chaos.recovery.fleet_restarts", "no fleet restart observed "
                "— the crash fault never fired", absent=0)),
        )),
    "adapt": BenchFamily("repro-bench-adapt/1", "BENCH_ADAPT.json", None, (
        Gate("adaptive_contract", "hard", "report", False, _true(
            "scenarios", "report contains no scenarios", absent=False)),
        _scenario("adaptive_beats_static", "hard",
                  "adaptive makespan does not beat the best static layout"),
        _scenario("adaptive_beats_offline", "hard",
                  "adaptive makespan does not beat the offline plan"),
        _scenario("deterministic", "hard",
                  "same-seed repeats diverged (solution or decision log)"),
        _scenario("solutions_identical", "hard",
                  "solutions differ across layout modes"),
        _scenario("adaptive_replanned", "soft", "the adaptive arm never "
                  "redistributed — the feedback loop did not fire"),
    )),
}


# -- the evaluator ----------------------------------------------------------

def _absent(what: str):
    note = f"{what} absent from baseline"
    return lambda _cur, base: note if base is None else None


def _bench_unpaired(bench, base):
    if base is None:
        return "bench absent from baseline; ops not compared"
    if base.get("size") != bench.get("size"):
        return (f"sizes differ (baseline {base.get('size')} vs current "
                f"{bench.get('size')}); op counts not comparable")


def _p50_seconds(phase):
    p50 = _dig(phase, "latency.p50_ms")
    return p50 / 1e3 if _num(p50) else None


#: how a gate scope cuts a report into items: (report key of the item
#: list, delta-name format, item -> wall seconds, why an item cannot be
#: held against its baseline counterpart, note on baseline items not run)
_SCOPES: Dict[str, tuple] = {
    "report": (None, "{}", lambda report: None, _absent("report"), None),
    "per-bench": ("benches", "{}", lambda b: b.get("vectorized_seconds"),
                  _bench_unpaired,
                  "present in baseline but not run (e.g. --only)"),
    "per-phase": ("phases", "phase:{}", _p50_seconds, _absent("phase"), None),
    "per-scenario": ("scenarios", "{}", lambda scenario: None,
                     _absent("scenario"), None),
}


def _apply(delta: BenchDelta, gates, cur, base) -> None:
    """Run ``gates`` in order; a soft gate only fires on a clean delta."""
    for gate in gates:
        if gate.severity == "soft" and delta.verdict != "ok":
            continue
        reason = gate.check(cur, base)
        if reason:
            delta.verdict = f"{gate.severity}_fail"
            delta.reasons.append(reason)


def compare_reports(
    kind: str,
    current: dict,
    baseline: dict | None = None,
    *,
    baseline_source: str = "baseline",
    trajectory: TrajectoryStore | None = None,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
) -> CompareReport:
    """Evaluate ``kind``'s gates over ``current``.

    With ``baseline=None`` only the gates that need no baseline run
    (the ``--check`` contract); with one, all of them.  ``trajectory``
    is the wall-clock noise model where it has comparable samples (perf
    benches); elsewhere the band is ``wall_tolerance`` over the baseline.
    """
    family = FAMILIES[kind]
    report = CompareReport(kind=kind, baseline_source=baseline_source)
    env_key = env_digest(current["env"]) if current.get("env") else None
    for scope, (key, label, seconds, unpaired, missing) in _SCOPES.items():
        gates = [g for g in family.gates if g.scope == scope]
        own = [g for g in gates if not g.needs_baseline]
        paired = [g for g in gates
                  if g.needs_baseline and baseline is not None]
        if not own and not paired:
            continue
        in_base: Dict[str, dict] = {}
        if key is None:
            pairs = [(family.contract or gates[0].name, current, baseline)]
        else:
            in_base = {b.get("name"): b for b in (baseline or {}).get(key) or ()}
            pairs = [(item.get("name", "?"), item, in_base.get(item.get("name")))
                     for item in current.get(key) or ()]
        for name, cur, base in pairs:
            delta = BenchDelta(
                name=label.format(name), verdict="ok",
                current_seconds=seconds(cur),
                baseline_seconds=seconds(base) if base else None,
            )
            _apply(delta, own, cur, base)
            note = unpaired(cur, base) if paired else None
            if note:
                delta.reasons.append(note)
            elif paired:
                # the store's noise model samples perf benches only: any
                # other item has no history there and gets the relative band
                limit, source = None, "trajectory_noise"
                if trajectory is not None:
                    limit = trajectory.noise_band(
                        name, smoke=bool(current.get("smoke")),
                        size=cur.get("size"), env_key=env_key,
                    )
                if limit is None and delta.baseline_seconds is not None:
                    limit = delta.baseline_seconds * (1.0 + wall_tolerance)
                    source = "relative"
                if limit is not None:
                    delta.wall_limit, delta.wall_source = limit, source
                wall = (delta.current_seconds, limit, source, wall_tolerance)
                _apply(delta, paired, cur, {**base, "_wall": wall})
            if key is not None or family.contract or delta.reasons:
                report.deltas.append(delta)
        if paired and missing:
            ran = {d.name for d in report.deltas}
            report.deltas.extend(
                BenchDelta(name=name, verdict="skipped", reasons=[missing])
                for name in sorted(set(in_base) - ran)
            )
    return report


# -- baseline resolution ----------------------------------------------------

def load_report(path: str) -> dict:
    """Load a bench report from a JSON snapshot or a trajectory JSONL
    (the latest entry's report, regardless of kind)."""
    if not os.path.exists(path):
        raise BaselineError(f"no such baseline file: {path!r}")
    if path.endswith((".jsonl", ".ndjson")):
        latest = TrajectoryStore(path).latest()
        if latest is None:
            raise BaselineError(f"trajectory {path!r} has no usable entries")
        return latest["report"]
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise BaselineError(f"unparseable baseline {path!r}: {exc}")


def resolve_baseline(
    current: dict,
    *,
    kind: str = "perf",
    baseline_path: str | None = None,
    trajectory: TrajectoryStore | None = None,
) -> tuple[dict, str]:
    """Find the baseline report for ``current``; returns (report, source).

    Explicit path > latest ``ok`` trajectory entry of the same kind and
    smoke flag > the family's committed snapshot; the winner must carry
    the family's schema and pass the smoke-as-baseline refusal.
    """
    fallback = FAMILIES[kind].snapshot
    entry = None
    if trajectory is not None and not baseline_path:
        entry = trajectory.latest(kind=kind, smoke=bool(current.get("smoke")))
    if baseline_path:
        report, source = load_report(baseline_path), baseline_path
    elif entry is not None:
        report = entry["report"]
        source = f"{trajectory.path} (latest {kind} entry)"
    elif os.path.exists(fallback):
        report, source = load_report(fallback), fallback
    else:
        raise BaselineError(
            f"no baseline found: pass --baseline, append runs to the "
            f"trajectory, or commit {fallback}"
        )
    expected = FAMILIES[kind].schema.rsplit("/", 1)[0]
    schema = str(report.get("schema", ""))
    if not schema.startswith(expected):
        raise BaselineError(
            f"{source} is not a {kind} bench report "
            f"(schema {schema!r}, expected {expected}/*)"
        )
    if bool(report.get("smoke")) and not bool(current.get("smoke")):
        raise BaselineError(
            f"{source} is a smoke-sized run and cannot baseline a "
            f"full-size run — regenerate it with "
            f"`python -m repro bench` (no --smoke) and commit the result"
        )
    return report, source


# -- the one bench tail -----------------------------------------------------

def finish_bench(
    kind: str,
    report: dict,
    *,
    out: str | None = None,
    trajectory: str | None = None,
    check: bool = False,
    quiet: bool = False,
) -> dict:
    """How every bench run ends: evaluate -> write -> append -> raise.

    The run's own gates are evaluated first and the trajectory entry is
    stamped ``ok``, so a failed run never becomes a baseline or a noise
    sample.  ``out=None`` writes the family's snapshot, ``""`` nothing;
    ``check`` raises :class:`GateFailure` on any failure, hard or soft.
    """
    verdict = compare_reports(kind, report)
    out = FAMILIES[kind].snapshot if out is None else out
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        if not quiet:
            print(f"  wrote {out}")
    if trajectory:
        entry = TrajectoryStore(trajectory).append(kind, report, ok=verdict.ok)
        if not quiet:
            print(f"  appended to {trajectory} (env {entry['env_digest']})")
    if check and not verdict.ok:
        failure = GateFailure(verdict)
        print(failure, file=sys.stderr)
        raise failure
    return report
