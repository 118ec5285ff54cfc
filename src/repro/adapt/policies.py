"""Versioned redistribution policies with tiered fallback.

A policy answers the question the paper's ``rebalance()`` predicate
leaves open: *given what the monitor measured, should the array be
redistributed now?*  The library is tiered, cheapest verdict first:

===== =========== ========================================================
tier  name        answers when
===== =========== ========================================================
0     static      the drift detector is quiet (or the policy is
                  static-only) — keep the current layout, ask nothing
1     threshold   imbalance exceeded ``threshold`` for ``windows``
                  consecutive windows; fires directly when the signal is
                  *strong* (``threshold * strong_factor``) or when no
                  pricing oracle is available
2     planner     the gray zone — drift confirmed but not overwhelming:
                  price the candidate redistribution with the planner's
                  cost engine and replan only when the modeled gain over
                  the remaining horizon beats the transfer cost
===== =========== ========================================================

Policies are plain data (``repro-adapt-policy/1`` JSON) so a tuned
policy can be committed, diffed, and replayed;
:meth:`PolicyLibrary.coverage_report` sweeps the workload registry and
reports which tier answers for every workload × machine × drift
scenario — the CI artifact that proves no registered workload falls
through the tiers unhandled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, IO, Mapping, Sequence

if TYPE_CHECKING:
    from .monitor import LoadMonitor

__all__ = [
    "POLICY_SCHEMA",
    "COVERAGE_SCHEMA",
    "TIER_STATIC",
    "TIER_THRESHOLD",
    "TIER_PLANNER",
    "TIER_NAMES",
    "Rule",
    "Decision",
    "PolicyLibrary",
]

POLICY_SCHEMA = "repro-adapt-policy/1"
COVERAGE_SCHEMA = "repro-adapt-coverage/1"

TIER_STATIC = 0
TIER_THRESHOLD = 1
TIER_PLANNER = 2
TIER_NAMES = {
    TIER_STATIC: "static",
    TIER_THRESHOLD: "threshold",
    TIER_PLANNER: "planner",
}


@dataclass(frozen=True)
class Rule:
    """One redistribution rule at one tier (plain data, JSON round-trip)."""

    name: str
    tier: int
    #: raw-imbalance trigger level (max/mean)
    threshold: float = 1.25
    #: consecutive windows the threshold must hold before firing
    windows: int = 2
    #: imbalance >= threshold*strong_factor skips the pricing tier
    strong_factor: float = 1.5

    def __post_init__(self) -> None:
        if self.tier not in TIER_NAMES:
            raise ValueError(
                f"tier must be one of {sorted(TIER_NAMES)}, got {self.tier}"
            )
        if self.threshold < 1.0:
            raise ValueError(
                f"threshold is a max/mean ratio, must be >= 1.0, "
                f"got {self.threshold}"
            )
        if self.windows < 1:
            raise ValueError(f"windows must be >= 1, got {self.windows}")
        if self.strong_factor < 1.0:
            raise ValueError(
                f"strong_factor must be >= 1.0, got {self.strong_factor}"
            )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "tier": self.tier,
            "threshold": self.threshold,
            "windows": self.windows,
            "strong_factor": self.strong_factor,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Rule":
        return cls(
            name=str(doc["name"]),
            tier=int(doc["tier"]),
            threshold=float(doc.get("threshold", 1.25)),
            windows=int(doc.get("windows", 2)),
            strong_factor=float(doc.get("strong_factor", 1.5)),
        )


@dataclass(frozen=True)
class Decision:
    """One policy verdict, with enough context to audit it later."""

    replan: bool
    tier: int
    rule: str
    imbalance: float
    reason: str
    #: modeled gain (cost saved minus transfer cost) when tier 2 priced
    #: the move; ``None`` for tiers that never consulted the planner
    plan_delta: float | None = None

    @property
    def tier_name(self) -> str:
        return TIER_NAMES[self.tier]

    def to_json(self) -> dict:
        return {
            "replan": self.replan,
            "tier": self.tier,
            "tier_name": self.tier_name,
            "rule": self.rule,
            "imbalance": self.imbalance,
            "reason": self.reason,
            "plan_delta": self.plan_delta,
        }


class PolicyLibrary:
    """An ordered set of rules, consulted cheapest tier first."""

    def __init__(self, rules: Sequence[Rule] | None = None):
        if rules is None:
            rules = self.default_rules()
        self.rules: tuple[Rule, ...] = tuple(rules)
        tiers = [r.tier for r in self.rules]
        if len(set(tiers)) != len(tiers):
            raise ValueError("at most one rule per tier")
        if not any(r.tier == TIER_STATIC for r in self.rules):
            raise ValueError("a policy library needs a tier-0 static rule")

    # -- construction ------------------------------------------------------
    @staticmethod
    def default_rules() -> tuple[Rule, ...]:
        # the tuned defaults BENCH_ADAPT.json is gated on: react within
        # one window of a confirmed trigger (the monitor's EWMA
        # hysteresis already filters transients; demanding a longer
        # streak here just cedes windows to the drift)
        return (
            Rule("hold-static", TIER_STATIC),
            Rule("flip-on-sustained-imbalance", TIER_THRESHOLD,
                 threshold=1.2, windows=1, strong_factor=1.5),
            Rule("price-the-gray-zone", TIER_PLANNER,
                 threshold=1.2, windows=1),
        )

    @classmethod
    def static(cls) -> "PolicyLibrary":
        """A policy that never redistributes (the tier-0-only baseline)."""
        return cls((Rule("hold-static", TIER_STATIC),))

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": POLICY_SCHEMA,
            "rules": [r.to_json() for r in self.rules],
        }

    @classmethod
    def from_json(cls, doc: Mapping | str) -> "PolicyLibrary":
        if isinstance(doc, str):
            doc = json.loads(doc)
        schema = doc.get("schema")
        if schema != POLICY_SCHEMA:
            raise ValueError(
                f"expected schema {POLICY_SCHEMA!r}, got {schema!r}"
            )
        return cls(tuple(Rule.from_json(r) for r in doc["rules"]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicyLibrary):
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        names = ", ".join(f"{r.tier}:{r.name}" for r in self.rules)
        return f"PolicyLibrary([{names}])"

    # -- the verdict -------------------------------------------------------
    def rule_for(self, tier: int) -> Rule | None:
        for r in self.rules:
            if r.tier == tier:
                return r
        return None

    def decide(
        self,
        monitor: "LoadMonitor",
        pricing: Callable[[], float] | None = None,
    ) -> Decision:
        """Consult the tiers against the monitor's current state.

        ``pricing`` is tier 2's oracle: a zero-argument callable
        returning the modeled gain of redistributing now (cost saved
        over the remaining horizon minus the transfer cost).  Without
        it, a confirmed tier-1 trigger fires directly.
        """
        latest = monitor.latest
        static = self.rule_for(TIER_STATIC)
        assert static is not None  # guaranteed by __init__
        if latest is None:
            return Decision(False, TIER_STATIC, static.name, 1.0,
                            "no observations yet")
        imb = latest.imbalance
        threshold = self.rule_for(TIER_THRESHOLD)
        # tier 0: the detector is quiet, or the policy is static-only
        if threshold is None:
            return Decision(False, TIER_STATIC, static.name, imb,
                            "static-only policy")
        if not latest.drifting:
            reason = (
                "post-replan cooldown" if latest.in_cooldown
                else "drift detector quiet"
            )
            return Decision(False, TIER_STATIC, static.name, imb, reason)
        # tier 1: sustained-threshold rule
        streak = monitor.streak(threshold.threshold)
        if streak < threshold.windows:
            return Decision(
                False, TIER_THRESHOLD, threshold.name, imb,
                f"imbalance streak {streak}/{threshold.windows} windows",
            )
        strong = threshold.threshold * threshold.strong_factor
        planner = self.rule_for(TIER_PLANNER)
        if imb >= strong:
            return Decision(
                True, TIER_THRESHOLD, threshold.name, imb,
                f"strong signal: imbalance {imb:.3f} >= {strong:.3f}",
            )
        if planner is None or pricing is None:
            return Decision(
                True, TIER_THRESHOLD, threshold.name, imb,
                f"sustained imbalance {imb:.3f} for {streak} windows "
                "(no pricing oracle)",
            )
        # tier 2: price the gray zone with the planner's cost engine
        delta = float(pricing())
        if delta > 0.0:
            return Decision(
                True, TIER_PLANNER, planner.name, imb,
                f"modeled gain {delta:.3e}s over remaining horizon",
                plan_delta=delta,
            )
        return Decision(
            False, TIER_PLANNER, planner.name, imb,
            f"modeled gain {delta:.3e}s does not cover the transfer",
            plan_delta=delta,
        )

    # -- registry coverage -------------------------------------------------
    def coverage_report(
        self,
        *,
        machines: Sequence[str] = ("iPSC/860", "Paragon"),
        drifts: Mapping[str, float] | None = None,
        nprocs: int = 4,
        seed: int = 0,
    ) -> dict:
        """Which tier answers, per registered workload × machine × drift.

        Runs a small probe of every supported workload under each cost
        model and drift scenario and records the highest tier that
        fired (tier 0 when the run never redistributed).  Workloads
        registered without an ``.adaptive`` hook are reported as
        unsupported rather than silently skipped — the report covers
        the *whole* registry by construction.
        """
        from ..api.registry import REGISTRY
        from ..machine.cost_model import PRESETS
        from .controller import AdaptiveController

        if drifts is None:
            drifts = {"none": 0.0, "slow": 0.004, "fast": 0.02}
        supported = REGISTRY.adaptable_names()
        entries: list[dict] = []
        for name in REGISTRY.names():
            for machine in machines:
                if machine not in PRESETS:
                    raise ValueError(
                        f"unknown cost model {machine!r} "
                        f"(presets: {sorted(PRESETS)})"
                    )
                for scenario, drift in sorted(drifts.items()):
                    entry = {
                        "workload": name,
                        "machine": machine,
                        "drift_scenario": scenario,
                        "drift": drift,
                        "supported": name in supported,
                    }
                    if name not in supported:
                        entry.update(
                            tier=None, tier_name="unsupported",
                            replans=0, decisions=0,
                        )
                        entries.append(entry)
                        continue
                    controller = AdaptiveController(
                        name,
                        nprocs=nprocs,
                        cost_model=machine,
                        policy=self,
                        seed=seed,
                    )
                    run = controller.probe(drift=drift)
                    fired = [d for d in run.decisions if d.replan]
                    tier = max((d.tier for d in fired), default=TIER_STATIC)
                    entry.update(
                        tier=tier,
                        tier_name=TIER_NAMES[tier],
                        replans=len(fired),
                        decisions=len(run.decisions),
                    )
                    entries.append(entry)
        covered = {(e["workload"], e["machine"]) for e in entries}
        want = {
            (n, m) for n in REGISTRY.names() for m in machines
        }
        return {
            "schema": COVERAGE_SCHEMA,
            "policy": self.to_json(),
            "nprocs": nprocs,
            "seed": seed,
            "workloads": list(REGISTRY.names()),
            "machines": list(machines),
            "drift_scenarios": dict(sorted(drifts.items())),
            "complete": covered == want,
            "entries": entries,
        }


def dump_coverage(report: Mapping, file: str | IO[str]) -> None:
    """Write a coverage report as stable, diff-friendly JSON."""
    if isinstance(file, str):
        with open(file, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(report, file, indent=2, sort_keys=True)


__all__.append("dump_coverage")
