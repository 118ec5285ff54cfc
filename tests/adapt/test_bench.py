"""The E16 bench: gates, artifacts, trajectory, the adapt sentinel."""

import copy
import json

import pytest

from repro.adapt import run_adapt_bench
from repro.adapt.bench import SMOKE_SCENARIOS
from repro.obs import FAMILIES, TrajectoryStore, compare_reports
from repro.obs.compare import EXIT_HARD, EXIT_SOFT, resolve_baseline


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("adapt_bench")
    out = tmp / "BENCH_ADAPT.json"
    coverage = tmp / "ADAPT_COVERAGE.json"
    trajectory = tmp / "BENCH_TRAJECTORY.jsonl"
    report = run_adapt_bench(
        smoke=True, out=str(out), coverage_out=str(coverage),
        check=True, trajectory=str(trajectory), quiet=True,
    )
    return report, out, coverage, trajectory


def test_smoke_report_passes_every_gate(smoke_report):
    report, _, _, _ = smoke_report
    assert report["schema"] == FAMILIES["adapt"].schema
    assert report["smoke"] is True
    assert report["pass"] is True
    assert len(report["scenarios"]) == len(SMOKE_SCENARIOS)
    for scenario in report["scenarios"]:
        assert scenario["pass"], scenario["gates"]
        assert scenario["speedup_vs_best_static"] > 1.0
        assert scenario["speedup_vs_offline"] > 1.0
        assert len(scenario["replans"]) >= 1
        assert scenario["checkpoints"] >= 1


def test_artifacts_are_written_and_loadable(smoke_report):
    report, out, coverage, _ = smoke_report
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == FAMILIES["adapt"].schema
    assert on_disk["pass"] is True
    cov = json.loads(coverage.read_text())
    assert cov["schema"] == "repro-adapt-coverage/1"
    assert cov["complete"] is True


def test_trajectory_records_the_adapt_kind(smoke_report):
    _, _, _, trajectory = smoke_report
    entries = TrajectoryStore(str(trajectory)).entries(kind="adapt")
    assert len(entries) == 1
    assert entries[0]["report"]["schema"] == FAMILIES["adapt"].schema


def test_resolve_baseline_prefers_the_trajectory(smoke_report):
    report, _, _, trajectory = smoke_report
    baseline, source = resolve_baseline(
        report, kind="adapt", trajectory=TrajectoryStore(str(trajectory)),
    )
    assert baseline["schema"] == FAMILIES["adapt"].schema
    assert "latest adapt entry" in source


def test_compare_adapt_clean_on_a_passing_report(smoke_report):
    report, _, _, _ = smoke_report
    comparison = compare_reports("adapt", report, report)
    assert comparison.exit_code == 0
    assert "VERDICT: clean" in comparison.summary()


def test_compare_adapt_hard_fails_on_a_doctored_gate(smoke_report):
    report, _, _, _ = smoke_report
    doctored = copy.deepcopy(report)
    doctored["scenarios"][0]["gates"]["adaptive_beats_offline"] = False
    comparison = compare_reports("adapt", doctored, report)
    assert comparison.exit_code == EXIT_HARD
    assert "offline" in comparison.summary()


def test_compare_adapt_soft_fails_when_the_loop_never_fired(smoke_report):
    report, _, _, _ = smoke_report
    doctored = copy.deepcopy(report)
    for scenario in doctored["scenarios"]:
        scenario["gates"]["adaptive_replanned"] = False
    comparison = compare_reports("adapt", doctored, report)
    assert comparison.exit_code == EXIT_SOFT


def test_compare_adapt_hard_fails_on_an_empty_report(smoke_report):
    report, _, _, _ = smoke_report
    comparison = compare_reports("adapt", {"scenarios": []}, report)
    assert comparison.exit_code == EXIT_HARD


def test_check_gate_exits_2_on_failure(tmp_path, monkeypatch):
    import repro.adapt.bench as bench_mod

    broken = copy.deepcopy(list(SMOKE_SCENARIOS))
    # zero drift and a huge window: nothing to adapt to, so the
    # adaptive arm cannot beat anything and the gates must fail
    broken[0]["params"].update(drift=0.0, diffusion=0.0)
    monkeypatch.setattr(bench_mod, "SMOKE_SCENARIOS", (broken[0],))
    with pytest.raises(SystemExit) as exc:
        bench_mod.run_adapt_bench(
            smoke=True, out=str(tmp_path / "b.json"),
            coverage_out=None, check=True, quiet=True,
        )
    assert exc.value.code == 2
