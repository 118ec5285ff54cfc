"""AdaptiveController: determinism, wins, checkpoints, observability."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.adapt import AdaptiveController, MODES
from repro.adapt.bench import SMOKE_SCENARIOS
from repro.api import REGISTRY
from repro.apps.pic import PICDrift
from repro.obs import metrics as obs_metrics
from repro.obs.flight import flight_recorder

# CI-sized but drifting hard enough for the loop to fire
PIC_PARAMS = dict(
    ncell=48, npart=1500, steps=24, window=4,
    drift=0.02, diffusion=0.012, cluster_width=0.06,
)
IRR_PARAMS = dict(n=96, sweeps=20, window=4, drift=0.045, amp=6.0, width=0.06)


@pytest.fixture
def pic():
    return AdaptiveController("pic", nprocs=4, seed=0, params=PIC_PARAMS)


def test_constructor_validation():
    assert REGISTRY.adaptable_names() == ("irregular", "pic")
    with pytest.raises(ValueError, match="no adaptive driver"):
        AdaptiveController("adi")
    with pytest.raises(ValueError):
        AdaptiveController("pic", nprocs=0)
    with pytest.raises(ValueError):
        AdaptiveController("pic", cost_model="NotAMachine")
    with pytest.raises(ValueError):
        AdaptiveController("pic", window=0)
    # unknown params are a TypeError, matching Session.workload()
    with pytest.raises(TypeError):
        AdaptiveController("pic", params={"not_a_param": 1})


def test_run_rejects_unknown_mode(pic):
    with pytest.raises(ValueError):
        pic.run("turbo")


def test_fixed_seed_adaptive_runs_are_bitwise_identical(pic):
    a = pic.run("adaptive")
    b = pic.run("adaptive")
    assert np.array_equal(a.solution, b.solution)
    assert a.solution_digest() == b.solution_digest()
    # ... and so is the decision trail, not just the physics
    assert a.decision_log() == b.decision_log()
    assert a.decision_digest() == b.decision_digest()
    assert [r.to_json() for r in a.replans] == [
        r.to_json() for r in b.replans
    ]


def test_solution_is_layout_invariant(pic):
    # the distribution decides *where* data lives, never *what* is
    # computed: every mode must produce the same answer bit for bit
    digests = {mode: pic.run(mode).solution_digest() for mode in MODES}
    assert len(set(digests.values())) == 1


def test_adaptive_beats_fixed_layouts_under_drift(pic):
    runs = {mode: pic.run(mode) for mode in MODES}
    adaptive = runs["adaptive"]
    assert adaptive.replans, "the feedback loop never fired"
    best_static = min(runs["static"].makespan, runs["balanced"].makespan)
    assert adaptive.makespan < best_static
    assert adaptive.makespan < runs["offline"].makespan


def test_static_mode_never_replans_and_observes_every_window(pic):
    run = pic.run("static")
    assert run.replans == []
    assert run.decisions == []  # no policy consulted outside adaptive
    assert len(run.samples) == PIC_PARAMS["steps"] // PIC_PARAMS["window"]


def test_checkpoints_land_on_window_boundaries(pic):
    run = pic.run("adaptive")
    assert len(run.checkpoints) == len(run.samples)
    window = PIC_PARAMS["window"]
    for cp in run.checkpoints:
        assert cp.step % window == 0
        assert sum(cp.sizes) == PIC_PARAMS["ncell"]
        assert len(cp.state_digest) == 64
    # checkpointed clocks are monotonically non-decreasing
    times = [cp.time for cp in run.checkpoints]
    assert times == sorted(times)


def test_replan_records_audit_the_transfer(pic):
    run = pic.run("adaptive")
    for rec in run.replans:
        assert rec.old_sizes != rec.new_sizes
        assert sum(rec.new_sizes) == PIC_PARAMS["ncell"]
        assert rec.transfer_bytes > 0
        assert rec.step % PIC_PARAMS["window"] == 0


def test_irregular_driver_wins_too():
    ctl = AdaptiveController("irregular", nprocs=4, seed=0, params=IRR_PARAMS)
    runs = {m: ctl.run(m) for m in ("static", "balanced", "adaptive")}
    adaptive = runs["adaptive"]
    assert adaptive.replans
    assert adaptive.makespan < min(
        runs["static"].makespan, runs["balanced"].makespan
    )
    digests = {m: r.solution_digest() for m, r in runs.items()}
    assert len(set(digests.values())) == 1


def test_probe_is_small_and_fast(pic):
    run = pic.probe(drift=0.02)
    assert run.params["ncell"] == PICDrift.probe["ncell"]
    assert run.steps == PICDrift.probe["steps"]
    # without drift only diffusion remains, so the loop fires less
    calm = pic.probe(drift=0.0)
    assert len(calm.replans) < len(pic.probe(drift=0.02).replans)


def test_run_to_json_is_self_contained(pic):
    doc = pic.run("adaptive").to_json()
    assert doc["workload"] == "pic"
    assert doc["mode"] == "adaptive"
    assert doc["solution_digest"] and doc["decision_digest"]
    assert len(doc["samples"]) == len(doc["checkpoints"])
    assert isinstance(doc["replans"], list) and doc["replans"]


def test_every_decision_leaves_a_flight_note_and_metrics(pic):
    obs_metrics.enable()
    flight_recorder.reset()
    try:
        run = pic.run("adaptive")
        notes = flight_recorder.notes(kind="adapt.decision")
        assert len(notes) == len(run.decisions)
        replan_notes = flight_recorder.notes(kind="adapt.replan")
        assert len(replan_notes) == len(run.replans)
        snap = obs_metrics.registry.snapshot()
        replans = snap["repro_adapt_replans_total"]["samples"]
        fired = sum(
            s["value"] for s in replans
            if s["labels"].get("workload") == "pic"
        )
        assert fired >= len(run.replans)
        drift = snap["repro_adapt_drift"]["samples"]
        assert any(s["labels"].get("workload") == "pic" for s in drift)
    finally:
        obs_metrics.disable()
        flight_recorder.reset()


# recorded at the commit before the per-workload drivers were folded
# into the one generic driver: the workload-agnostic controller must
# reproduce every run document exactly (makespans to the last digit,
# digests, decisions, replans, checkpoints, recorded params)
PIN = json.loads(
    (Path(__file__).parent / "fixtures" / "adaptive_runs_pin.json").read_text()
)


@pytest.mark.parametrize("scenario", SMOKE_SCENARIOS, ids=lambda s: s["name"])
def test_smoke_scenarios_reproduce_the_pinned_runs(scenario):
    ctl = AdaptiveController(
        scenario["workload"], nprocs=scenario["nprocs"],
        cost_model=scenario["cost_model"], seed=0,
        params=dict(scenario["params"]),
    )
    for mode in MODES:
        assert ctl.run(mode).to_json() == PIN["scenarios"][scenario["name"]][mode]


@pytest.mark.parametrize("name", sorted(PIN["probes"]))
def test_probe_reproduces_the_pinned_run(name):
    assert AdaptiveController(name).probe().to_json() == PIN["probes"][name]
