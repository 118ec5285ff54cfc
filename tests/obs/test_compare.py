"""The regression sentinel: hard/soft verdicts, exit codes, baseline
resolution order, and the smoke-as-baseline refusal."""

import json

import pytest

from repro.obs.compare import (
    EXIT_HARD,
    EXIT_SOFT,
    BaselineError,
    compare_reports,
    load_report,
    resolve_baseline,
)
from repro.obs.trajectory import TrajectoryStore


def _bench(name="forall", seconds=0.001, elements=100, match=True,
           size=None):
    return {
        "name": name,
        "size": size or {"n": 8},
        "vectorized_seconds": seconds,
        "reference_ops": {"elements": elements},
        "vectorized_ops": {"elements": elements},
        "match": match,
    }


def _report(benches=None, smoke=False):
    return {
        "schema": "repro-bench-perf/2",
        "smoke": smoke,
        "env": {"repro": "1.8.0", "python": "3.11", "numpy": "2.0",
                "platform": "test", "hostname": "test"},
        "benches": benches if benches is not None else [_bench()],
    }


# -- perf verdicts -----------------------------------------------------------


def test_identical_reports_are_clean():
    report = compare_reports("perf", _report(), _report())
    assert report.ok
    assert report.exit_code == 0
    (delta,) = report.deltas
    assert delta.verdict == "ok"
    assert "clean" in report.summary()


def test_op_count_drift_is_a_hard_fail():
    baseline = _report([_bench(elements=100)])
    current = _report([_bench(elements=107)])
    report = compare_reports("perf", current, baseline)
    assert report.exit_code == EXIT_HARD
    (delta,) = report.deltas
    assert delta.verdict == "hard_fail"
    # the drifted key is named with both values
    assert any("elements: 100 -> 107" in r for r in delta.reasons)


def test_match_false_is_a_hard_fail_regardless_of_baseline():
    current = _report([_bench(match=False)])
    report = compare_reports("perf", current, _report())
    assert report.exit_code == EXIT_HARD
    assert any("match: false" in r for r in report.deltas[0].reasons)


def test_wall_drift_is_a_soft_fail():
    baseline = _report([_bench(seconds=0.010)])
    current = _report([_bench(seconds=0.030)])  # 3x > 1+tolerance (2x)
    report = compare_reports("perf", current, baseline)
    assert report.exit_code == EXIT_SOFT
    (delta,) = report.deltas
    assert delta.verdict == "soft_fail"
    assert delta.wall_source == "relative"
    assert report.hard_failures == []


def test_wall_within_tolerance_is_clean():
    baseline = _report([_bench(seconds=0.010)])
    current = _report([_bench(seconds=0.015)])
    assert compare_reports("perf", current, baseline).exit_code == 0


def test_hard_beats_soft_in_the_exit_code():
    baseline = _report([_bench(elements=100, seconds=0.010)])
    current = _report([_bench(elements=107, seconds=0.050)])
    assert compare_reports("perf", current, baseline).exit_code == EXIT_HARD


def test_size_mismatch_skips_op_comparison():
    baseline = _report([_bench(size={"n": 64}, elements=999)])
    current = _report([_bench(size={"n": 8}, elements=100)])
    report = compare_reports("perf", current, baseline)
    assert report.exit_code == 0
    assert any("not comparable" in r for r in report.deltas[0].reasons)


def test_baseline_only_bench_is_reported_skipped():
    baseline = _report([_bench("forall"), _bench("halo_exchange")])
    current = _report([_bench("forall")])
    report = compare_reports("perf", current, baseline)
    skipped = [d for d in report.deltas if d.verdict == "skipped"]
    assert [d.name for d in skipped] == ["halo_exchange"]
    assert report.exit_code == 0


def test_trajectory_noise_band_overrides_relative_tolerance(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    for s in (0.0100, 0.0101, 0.0102):
        store.append("perf", _report([_bench(seconds=s)]))
    baseline = _report([_bench(seconds=0.010)])
    # 13 ms: within the 2x relative tolerance, far outside mean + 3 sigma
    current = _report([_bench(seconds=0.013)])
    report = compare_reports("perf", current, baseline, trajectory=store)
    (delta,) = report.deltas
    assert delta.wall_source == "trajectory_noise"
    assert delta.verdict == "soft_fail"
    # without history the same pair is clean
    assert compare_reports("perf", current, baseline).exit_code == 0


def test_compare_report_json_roundtrip():
    report = compare_reports("perf", _report(), _report())
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["schema"] == "repro-bench-compare/1"
    assert doc["exit_code"] == 0
    assert doc["deltas"][0]["verdict"] == "ok"


# -- baseline resolution -----------------------------------------------------


def test_explicit_baseline_path_wins(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(_report([_bench(elements=42)])))
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _report([_bench(elements=7)]))
    baseline, source = resolve_baseline(
        _report(), baseline_path=str(path), trajectory=store
    )
    assert source == str(path)
    assert baseline["benches"][0]["reference_ops"]["elements"] == 42


def test_trajectory_beats_committed_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_PERF.json").write_text(
        json.dumps(_report([_bench(elements=1)]))
    )
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _report([_bench(elements=2)]))
    baseline, source = resolve_baseline(_report(), trajectory=store)
    assert "traj.jsonl" in source
    assert baseline["benches"][0]["reference_ops"]["elements"] == 2


def test_falls_back_to_committed_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_PERF.json").write_text(
        json.dumps(_report([_bench(elements=1)]))
    )
    baseline, source = resolve_baseline(
        _report(), trajectory=TrajectoryStore(tmp_path / "empty.jsonl")
    )
    assert source == "BENCH_PERF.json"


def test_no_baseline_anywhere_is_an_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(BaselineError, match="no baseline found"):
        resolve_baseline(_report())


def test_smoke_baseline_refused_for_full_size_run(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(_report(smoke=True)))
    with pytest.raises(BaselineError, match="smoke-sized"):
        resolve_baseline(_report(smoke=False), baseline_path=str(path))
    # a BaselineError is a SystemExit: the CLI exits nonzero, no traceback
    assert issubclass(BaselineError, SystemExit)


def test_smoke_baseline_fine_for_smoke_run(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(_report(smoke=True)))
    baseline, _ = resolve_baseline(
        _report(smoke=True), baseline_path=str(path)
    )
    assert baseline["smoke"] is True


def test_trajectory_resolution_matches_smoke_flag(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _report([_bench(elements=10)], smoke=True))
    store.append("perf", _report([_bench(elements=20)], smoke=False))
    baseline, _ = resolve_baseline(_report(smoke=True), trajectory=store)
    assert baseline["benches"][0]["reference_ops"]["elements"] == 10


def test_wrong_schema_refused(tmp_path):
    path = tmp_path / "serve.json"
    path.write_text(json.dumps({"schema": "repro-bench-serve/2"}))
    with pytest.raises(BaselineError, match="not a perf bench report"):
        resolve_baseline(_report(), baseline_path=str(path))


def test_load_report_from_trajectory_jsonl(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _report([_bench(elements=5)]))
    report = load_report(str(store.path))
    assert report["benches"][0]["reference_ops"]["elements"] == 5
    with pytest.raises(BaselineError, match="no such baseline"):
        load_report(str(tmp_path / "missing.json"))


# -- serve comparison --------------------------------------------------------


def _serve_report(failures=0, identical=True, hit_rate=0.9, p50=5.0):
    return {
        "schema": "repro-bench-serve/2",
        "smoke": True,
        "total_failures": failures,
        "byte_identical": identical,
        "phases": [
            {"name": "unique", "cache_hit_rate": 0.0,
             "latency": {"p50_ms": 30.0}},
            {"name": "repeated", "cache_hit_rate": hit_rate,
             "latency": {"p50_ms": p50}},
        ],
    }


def test_serve_clean():
    report = compare_reports("serve", _serve_report(), _serve_report())
    assert report.exit_code == 0


def test_serve_failures_and_byte_drift_are_hard():
    report = compare_reports(
        "serve", _serve_report(failures=2, identical=False), _serve_report()
    )
    assert report.exit_code == EXIT_HARD
    reasons = report.deltas[0].reasons
    assert any("failed request" in r for r in reasons)
    assert any("non-identical" in r for r in reasons)


def test_serve_hit_rate_collapse_is_soft():
    report = compare_reports(
        "serve", _serve_report(hit_rate=0.3), _serve_report(hit_rate=0.9)
    )
    assert report.exit_code == EXIT_SOFT


def test_serve_p50_drift_is_soft():
    report = compare_reports(
        "serve", _serve_report(p50=50.0), _serve_report(p50=5.0)
    )
    assert report.exit_code == EXIT_SOFT


@pytest.mark.parametrize("identical, reason", [
    (False, "identical requests returned non-identical bytes"),
    (None, "no responses were compared"),  # never a vacuous pass
])
def test_serve_byte_identity_verdicts(identical, reason):
    report = compare_reports(
        "serve", _serve_report(identical=identical), _serve_report()
    )
    assert report.exit_code == EXIT_HARD
    assert report.deltas[0].reasons == [reason]
    # the run's own contract: fails with no baseline too (--check)
    assert compare_reports("serve", _serve_report(identical=identical)
                           ).hard_failures


def test_gates_moved_in_from_check_are_baseline_free():
    """What used to live only in a ``--check`` block is an ordinary
    gate now, so ``obs compare`` sees it too."""
    cold = _serve_report(hit_rate=0.4)
    cold["metrics"] = {"scraped": True, "missing_series": ["repro_x_total"]}
    report = compare_reports("serve", cold)
    assert [d.verdict for d in report.deltas] == ["hard_fail", "ok", "soft_fail"]
    assert "repro_x_total" in report.deltas[0].reasons[0]
    assert "need > 50%" in report.deltas[2].reasons[0]
    chaos = {"chaos": {"client_errors": 2, "recovery": {"fleet_restarts": 1}},
             "metrics": {"scraped": False, "error": "HTTP 500"}}
    reasons = compare_reports("chaos", chaos).deltas[0].reasons
    assert any(r.startswith("2 4xx response(s)") for r in reasons)
    assert "/metrics scrape failed: HTTP 500" in reasons
    # a field a report does not carry fires no gate
    assert compare_reports("serve", _serve_report()).ok


# -- parity with the four per-kind functions this evaluator replaced ----------


def _pin_cases():
    from pathlib import Path

    pin = json.loads(
        (Path(__file__).parent / "fixtures" / "gate_verdicts_pin.json")
        .read_text()
    )
    for kind, spec in pin["kinds"].items():
        for case in spec["cases"]:
            yield pytest.param(kind, spec["base"], case,
                               id=f"{kind}-{case['name']}")


def _edited(doc, edits):
    doc = json.loads(json.dumps(doc))
    for op, path, *arg in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if op == "del":
            del node[path[-1]]
        else:
            node[path[-1]] = {
                "set": lambda old: arg[0],
                "mul": lambda old: old * arg[0],
                "add": lambda old: old + arg[0],
            }[op](node[path[-1]])
    return doc


@pytest.mark.parametrize("kind, base, case", _pin_cases())
def test_gate_verdicts_reproduce_the_parent_commit(kind, base, case):
    """``gate_verdicts_pin.json`` was recorded with PR 13's
    ``compare_<kind>_reports`` before they were folded into the table:
    every verdict, exit code and reason string must come out the same."""
    comparison = compare_reports(
        kind, _edited(base, case["current"]), _edited(base, case["baseline"])
    )
    assert comparison.to_json() == case["expected"]


# -- a fifth family is one table row -------------------------------------------


@pytest.fixture
def toy_family(monkeypatch):
    from repro.obs import compare
    from repro.obs.compare import BenchFamily, Gate

    row = BenchFamily("repro-bench-toy/1", "BENCH_TOY.json", "toy_contract", (
        Gate("answer", "hard", "report", False,
             lambda cur, _base: None if cur.get("answer") == 42
             else f"answer is {cur.get('answer')}, not 42"),
        Gate("cost", "soft", "report", True,
             lambda cur, base: "cost rose" if cur["cost"] > base["cost"]
             else None),
    ))
    # a private copy: the shipped table is never touched
    monkeypatch.setattr(compare, "FAMILIES", {**compare.FAMILIES, "toy": row})
    return row


def _toy(answer=42, cost=1.0, smoke=True):
    return {"schema": "repro-bench-toy/1", "smoke": smoke, "answer": answer,
            "cost": cost}


def test_a_new_family_gets_the_evaluator(toy_family):
    assert compare_reports("toy", _toy(), _toy()).ok
    hard = compare_reports("toy", _toy(answer=7), _toy())
    assert hard.exit_code == EXIT_HARD
    assert hard.deltas[0].name == "toy_contract"
    assert hard.deltas[0].reasons == ["answer is 7, not 42"]
    assert compare_reports("toy", _toy(cost=2.0), _toy()).exit_code == EXIT_SOFT
    # without a baseline only the baseline-free gate runs
    assert compare_reports("toy", _toy(cost=2.0)).ok
    with pytest.raises(KeyError, match="nosuch"):
        compare_reports("nosuch", _toy())


def test_a_new_family_gets_baseline_resolution(toy_family, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_TOY.json").write_text(json.dumps(_toy(cost=3.0)))
    baseline, source = resolve_baseline(_toy(), kind="toy")
    assert (source, baseline["cost"]) == ("BENCH_TOY.json", 3.0)
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("toy", _toy(cost=4.0))
    baseline, source = resolve_baseline(_toy(), kind="toy", trajectory=store)
    assert baseline["cost"] == 4.0
    with pytest.raises(BaselineError, match="not a toy bench report"):
        resolve_baseline(_toy(), kind="toy",
                         baseline_path=_dump(tmp_path / "perf.json", _report()))
    with pytest.raises(BaselineError, match="smoke-sized"):
        resolve_baseline(_toy(smoke=False), kind="toy",
                         baseline_path="BENCH_TOY.json")


def _dump(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_a_new_family_gets_the_bench_tail(toy_family, tmp_path, monkeypatch,
                                          capsys):
    from repro.obs.compare import GateFailure, finish_bench

    monkeypatch.chdir(tmp_path)
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    finish_bench("toy", _toy(), trajectory=store.path, check=True, quiet=True)
    assert json.loads((tmp_path / "BENCH_TOY.json").read_text())["answer"] == 42
    with pytest.raises(GateFailure, match="answer is 7") as exc:
        finish_bench("toy", _toy(answer=7), out="", trajectory=store.path,
                     check=True, quiet=True)
    assert exc.value.code == EXIT_HARD
    assert "toy bench gate failed" in capsys.readouterr().err
    # evaluated before it was appended: recorded, stamped, never a baseline
    assert [e["ok"] for e in store.entries(kind="toy")] == [True, False]
    assert store.latest(kind="toy")["report"]["answer"] == 42
    # without --check the failing run is still written and still stamped
    finish_bench("toy", _toy(answer=8), out="", trajectory=store.path,
                 quiet=True)
    assert store.entries(kind="toy")[-1]["ok"] is False


def test_readme_gate_table_is_the_declared_table():
    """README's "Bench gates" table is written from ``FAMILIES``: same
    rows, same order, same severity / scope / baseline-free columns."""
    from pathlib import Path

    from repro.obs.compare import FAMILIES

    readme = (Path(__file__).parents[2] / "README.md").read_text()
    table = readme.split('<a id="bench-gates"></a>')[1].split("\n\n**")[0]
    rows = [
        tuple(cell.strip(" `") for cell in line.split("|")[1:6])
        for line in table.splitlines()
        if line.startswith("| `")
    ]
    assert rows == [
        (kind, g.name, g.scope, g.severity, "no" if g.needs_baseline else "yes")
        for kind, family in FAMILIES.items() for g in family.gates
    ]
