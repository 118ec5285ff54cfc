"""``run.py --smoke`` under pytest: the report's shape, not its speed.

Asserts no timing — a loaded CI box must not fail this — only that all
six workloads ran correctly, that names are well-formed, that every
per-layer metric of ``BENCHMARK.json`` is either measured or listed
under ``not_measured`` with a reason, and that the harness left the
working tree as it found it and no process running.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = ("cli_cold", "lib_stages", "distribute_warm", "distribute_cold",
             "mp_backend", "serve_mix")
END_TO_END = ("setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb")


def _git_status() -> str | None:
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    before = _git_status()
    # in a session of its own, so whatever it leaves running can be found
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    stdout, stderr = proc.communicate(timeout=600)
    assert proc.returncode == 0, stdout[-2000:] + stderr[-2000:]
    report = json.loads(out.read_text())
    report["left_running"] = _session_members(proc.pid)
    return report, before, _git_status()


def _session_members(sid: int) -> list[str] | None:
    """Command lines of the processes in session ``sid`` (Linux)."""
    if not Path("/proc/self/stat").exists():
        return None
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                # "pid (comm) state ppid pgrp session ..."
                stat = (entry / "stat").read_text().rsplit(")", 1)[1].split()
                if int(stat[3]) == sid:
                    found.append((entry / "cmdline").read_text()
                                 .replace("\0", " ") or stat[0])
            except (OSError, IndexError, ValueError):
                continue
    return found


def test_contract_file_is_well_formed():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in contract["end_to_end"]] == list(END_TO_END)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert len(contract["per_layer"]) <= 128


def test_contract_lists_exactly_what_the_harness_measures():
    # in a child: the harness modules have generic names (run, probes)
    # that should not land in the test process's sys.modules
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]\n"
        "from probes import PROBES\n"
        "from run import WORKLOAD_SCOPED\n"
        "print(json.dumps([*WORKLOAD_SCOPED, "
        "*(n for names in PROBES.values() for n in names)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    measured = json.loads(proc.stdout.splitlines()[-1])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in contract["per_layer"]] == measured


def test_all_six_workloads_ran_without_a_failed_op(smoke):
    report, _, _ = smoke
    assert report["schema"] == "repro-bench-e2e/1"
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name, entry in report["workloads"].items():
        e2e = entry["end_to_end"]
        assert e2e["attempted"] >= 1, name
        assert e2e["failed_share"] == 0, (name, e2e["failures"], e2e["expected"])
        # "ok (counts only: ...)" under a numpy other than the pinned one
        assert e2e["expected"].startswith("ok"), (name, e2e["expected"])
        for metric in END_TO_END:
            assert e2e[metric] > 0, (name, metric)
    mix = report["workloads"]["serve_mix"]["end_to_end"]["counts"]
    assert mix["cache_hits"] == 3 * mix["cache_misses"] > 0


def test_report_carries_an_environment_stamp(smoke):
    env = smoke[0]["env"]
    for key in ("nproc", "python", "numpy", "git_sha", "src_lines", "load1"):
        assert key in env
    assert env["src_lines"] > 0


def test_every_per_layer_metric_is_measured_or_explained(smoke):
    report, _, _ = smoke
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in contract["per_layer"]:
        name = metric["name"]
        assert NAME.fullmatch(name)
        if name in report["per_layer"]:
            assert isinstance(report["per_layer"][name], (int, float))
        else:
            assert report["not_measured"].get(name), f"{name}: no value, no reason"
    assert not set(report["per_layer"]) & set(report["not_measured"])


def test_the_harness_leaves_no_process_running(smoke):
    # multiprocessing's resource tracker outlives its parent unless told
    left = smoke[0]["left_running"]
    if left is None:
        pytest.skip("no /proc to look in")
    assert left == []


def test_the_harness_leaves_the_tree_clean(smoke):
    _, before, after = smoke
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before
