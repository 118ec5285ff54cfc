"""Bench E16: online adaptive redistribution vs every offline answer.

For each drifting-load scenario the bench drives the same workload —
same seed, same RNG stream, bitwise-identical solution — under the
four layout policies of :class:`~repro.adapt.AdaptiveController` and
compares modeled makespans.  The claims under test:

- **adaptive beats the best static layout** (``static`` BLOCK and
  ``balanced`` B_BLOCK-at-t0 both held fixed): under drift, any fixed
  layout decays;
- **adaptive beats the offline plan**: the planner forecasts from the
  t=0 state (pure drift for PIC — diffusion is invisible to it; for
  the irregular hot spot, nothing at all), so measuring beats
  predicting once the forecast diverges;
- **the loop is deterministic**: the adaptive arm runs twice with the
  same seed and must reproduce the solution digest *and* the replan
  decision log, bit for bit.

``python -m repro adapt`` writes the ``repro-bench-adapt/1`` report to
``BENCH_ADAPT.json`` plus the policy coverage sweep to
``ADAPT_COVERAGE.json``; the gates are the ``adapt`` row of
:data:`repro.obs.compare.FAMILIES` (``--check``: the CI contract), and
``--trajectory`` appends to the bench history the sentinel reads.
"""

from __future__ import annotations

from typing import Mapping

from .controller import AdaptiveController
from .policies import PolicyLibrary, dump_coverage

__all__ = ["SCENARIOS", "SMOKE_SCENARIOS", "run_adapt_bench"]

#: full-size drifting-load scenarios (the committed baseline)
SCENARIOS: tuple[dict, ...] = (
    {
        "name": "pic-drift",
        "workload": "pic",
        "nprocs": 4,
        "cost_model": "Paragon",
        "params": {
            "ncell": 96, "npart": 6000, "steps": 60, "window": 6,
            "drift": 0.008, "diffusion": 0.01, "cluster_width": 0.06,
        },
    },
    {
        "name": "irregular-hotspot",
        "workload": "irregular",
        "nprocs": 4,
        "cost_model": "Paragon",
        "params": {
            "n": 192, "sweeps": 48, "window": 6, "drift": 0.02,
            "amp": 6.0, "width": 0.06,
        },
    },
)


def _smoke(scenario: dict, **params) -> dict:
    return {**scenario, "params": {**scenario["params"], **params}}


#: CI-sized scenarios (same structure, minutes -> seconds)
SMOKE_SCENARIOS: tuple[dict, ...] = (
    _smoke(SCENARIOS[0], ncell=48, npart=1500, steps=24, window=4,
           drift=0.02, diffusion=0.012),
    _smoke(SCENARIOS[1], n=96, sweeps=20, window=4, drift=0.045),
)


def _run_scenario(scenario: Mapping, seed: int) -> dict:
    """All four modes plus the determinism repeat, one scenario."""
    controller = AdaptiveController(
        str(scenario["workload"]),
        nprocs=int(scenario["nprocs"]),
        cost_model=str(scenario["cost_model"]),
        seed=seed,
        params=dict(scenario["params"]),
    )
    runs = {mode: controller.run(mode) for mode in
            ("static", "balanced", "offline", "adaptive")}
    repeat = controller.run("adaptive")

    adaptive = runs["adaptive"]
    makespans = {m: r.makespan for m, r in runs.items()}
    best_static_mode = min(("static", "balanced"), key=makespans.__getitem__)
    solution_digests = {m: r.solution_digest() for m, r in runs.items()}
    deterministic = (
        repeat.solution_digest() == adaptive.solution_digest()
        and repeat.decision_digest() == adaptive.decision_digest()
    )
    gates = {
        "adaptive_beats_static": (
            adaptive.makespan < makespans[best_static_mode]
        ),
        "adaptive_beats_offline": adaptive.makespan < makespans["offline"],
        "adaptive_replanned": len(adaptive.replans) >= 1,
        "deterministic": deterministic,
        "solutions_identical": len(set(solution_digests.values())) == 1,
    }
    return {
        "name": scenario["name"],
        "workload": scenario["workload"],
        "nprocs": scenario["nprocs"],
        "cost_model": scenario["cost_model"],
        "params": dict(scenario["params"]),
        "seed": seed,
        "makespans": makespans,
        "best_static_mode": best_static_mode,
        "speedup_vs_best_static": (
            makespans[best_static_mode] / adaptive.makespan
            if adaptive.makespan > 0 else 1.0
        ),
        "speedup_vs_offline": (
            makespans["offline"] / adaptive.makespan
            if adaptive.makespan > 0 else 1.0
        ),
        "replans": [r.to_json() for r in adaptive.replans],
        "decisions": adaptive.decision_log(),
        "mean_imbalance": {
            m: r.mean_imbalance for m, r in runs.items()
        },
        "solution_digest": solution_digests["adaptive"],
        "decision_digest": adaptive.decision_digest(),
        "checkpoints": len(adaptive.checkpoints),
        "gates": gates,
        "pass": all(gates.values()),
    }


def run_adapt_bench(
    smoke: bool = False,
    out: str | None = None,
    coverage_out: str | None = "ADAPT_COVERAGE.json",
    check: bool = False,
    trajectory: str | None = None,
    quiet: bool = False,
    seed: int = 0,
) -> dict:
    """Run the E16 adaptive-redistribution bench; returns the report.

    ``coverage_out`` names the policy-coverage artifact (``None``
    skips it); ``out``, ``trajectory`` and ``check`` are
    :func:`~repro.obs.compare.finish_bench`'s, family ``"adapt"``.
    """
    from ..obs.compare import FAMILIES, finish_bench
    from ..obs.trajectory import environment_fingerprint

    scenarios = SMOKE_SCENARIOS if smoke else SCENARIOS
    results = []
    for scenario in scenarios:
        if not quiet:
            print(f"adapt bench: {scenario['name']} "
                  f"({'smoke' if smoke else 'full'}) ...")
        record = _run_scenario(scenario, seed)
        results.append(record)
        if not quiet:
            ms = record["makespans"]
            print(
                f"  static {ms['static'] * 1e3:8.3f} ms   "
                f"balanced {ms['balanced'] * 1e3:8.3f} ms   "
                f"offline {ms['offline'] * 1e3:8.3f} ms   "
                f"adaptive {ms['adaptive'] * 1e3:8.3f} ms"
            )
            print(
                f"  {len(record['replans'])} replan(s), "
                f"{record['speedup_vs_best_static']:.2f}x vs best static, "
                f"{record['speedup_vs_offline']:.2f}x vs offline plan, "
                f"gates {'PASS' if record['pass'] else 'FAIL'}"
            )
    report = {
        "schema": FAMILIES["adapt"].schema,
        "smoke": bool(smoke),
        "seed": int(seed),
        "env": environment_fingerprint(),
        "scenarios": results,
        "pass": all(r["pass"] for r in results),
    }
    if coverage_out:
        coverage = PolicyLibrary().coverage_report(seed=seed)
        dump_coverage(coverage, coverage_out)
        if not quiet:
            n = len(coverage["entries"])
            print(f"  wrote {coverage_out} ({n} registry entries, "
                  f"complete={coverage['complete']})")
    return finish_bench(
        "adapt", report, out=out, trajectory=trajectory, check=check,
        quiet=quiet,
    )
