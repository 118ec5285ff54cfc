#!/usr/bin/env python3
"""The wall-clock benchmark of the reproduction: six closed-loop
workloads against the public surface, uniform end-to-end metrics,
per-layer probes and a traced run.  See README.md beside this file.

One workload, as the benchmark driver calls it (the last stdout line
is the result object of ``BENCHMARK.json``'s contract)::

    python3 benchmarks/e2e/run.py --workload serve_mix --seed 0 \\
        --seconds 12 --trace 0

Everything, for a person::

    python3 benchmarks/e2e/run.py --all --seed 0 --out report.json
    python3 benchmarks/e2e/run.py --all --trace --out traced.json
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --compare parent.json change.json
    python3 benchmarks/e2e/run.py --regen-expected

``PYTHONPATH`` need not be set: the script puts ``src/`` on the path
itself (and exits non-zero when there is no ``src/repro`` to measure).
Metric names, units and bounds are data: they live in
``BENCHMARK.json`` at the repository root, nowhere in this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (needs HERE on the path)
from harness import ROOT, SRC, median, now_ns, quantile  # noqa: E402

SCHEMA = "repro-bench-e2e/1"
EXPECTED = HERE / "expected.json"
#: seeds expected.json pins at full size (smoke sizes: seed 0 only)
EXPECTED_SEEDS = range(12)
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 5

#: layers a span name can start with (the self-time rows)
TRACE_LAYERS = ("interp", "import", "cli", "api", "lang", "compiler",
                "planner", "core", "runtime", "backend", "serve",
                "unattributed")

#: per-layer metrics measured on the traced workload itself; the rest
#: of BENCHMARK.json's per_layer list comes from probes.PROBES
WORKLOAD_SCOPED = (
    "trace.overhead_ratio", "trace.op_ms",
    *(f"trace.self_ms.{layer}" for layer in TRACE_LAYERS),
    "workload.ops_timed", "workload.op_p90_ms",
    "runtime.plan_cache_lookups", "runtime.plan_cache_hit_ratio",
    "core.owner_cache_lookups", "core.owner_cache_hit_ratio",
    "serve.mix_hit_share",
)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def bootstrap() -> None:
    """Pin the noise-relevant environment (re-executing once so the
    hash seed applies to this interpreter too) and find ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found — nothing to measure")
    if any(os.environ.get(k) != v for k, v in harness.NOISE_ENV.items()):
        os.environ.update(harness.NOISE_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(SRC))


# -- expected.json -----------------------------------------------------------


def check_expected(expected: dict, workload, smoke: bool) -> tuple[bool, str]:
    """``(matches, note)``: whether the workload's exact counts equal
    the pinned ones, and what was or was not covered."""
    import numpy

    size = "smoke" if smoke else "full"
    pinned = expected[size].get(workload.name, {})
    entry = pinned.get(str(workload.seed))
    if entry is None:
        return True, (f"not covered: expected.json pins seeds "
                      f"{sorted(map(int, pinned))} at {size} size")
    exact = json.loads(json.dumps(workload.exact))
    # digests of float arrays and of argparse's help text are only
    # comparable under the numpy and python that wrote them; counts
    # and modeled times always are
    env = expected["env"]
    digests_comparable = (
        env["numpy"] == numpy.__version__
        and env["python"].split(".")[:2]
        == list(platform.python_version_tuple()[:2]))
    bad, skipped = [], 0
    for key in sorted(set(entry) | set(exact)):
        if "sha256" in key and not digests_comparable:
            skipped += 1
        elif entry.get(key) != exact.get(key):
            bad.append(key)
    if bad:
        return False, "mismatch: " + ", ".join(bad)
    if skipped:
        return True, (f"ok (counts only: {skipped} digests not covered, "
                      f"expected.json was written under python "
                      f"{env['python']}, numpy {env['numpy']})")
    return True, "ok"


def regen_expected() -> None:
    from workloads import WORKLOADS

    env = harness.env_stamp()
    doc: dict = {"schema": SCHEMA, "full": {}, "smoke": {},
                 "env": {k: env[k] for k in ("python", "numpy", "platform")}}
    with harness.scratch_dir() as workdir:
        for size, seeds in (("full", EXPECTED_SEEDS), ("smoke", (0,))):
            for name, cls in WORKLOADS.items():
                doc[size][name] = {}
                for seed in seeds:
                    workload = cls(seed, workdir, smoke=size == "smoke")
                    workload.setup()
                    workload.teardown()
                    doc[size][name][str(seed)] = workload.exact
                    print(f"  {size:5s} {name:16s} seed {seed}", flush=True)
    harness.dump_json(doc, EXPECTED)
    print(f"wrote {EXPECTED}")


# -- measuring ---------------------------------------------------------------


def cold_import(workdir) -> None:
    """``import repro`` in a fresh interpreter — what every entry point
    pays before its first line runs; timed as part of ``setup_s``."""
    code, _, err = harness.run_child(["-c", "import repro"], workdir)
    if code != 0:
        raise RuntimeError(f"import repro failed: {err[-300:]!r}")


def run_untraced(cls, seed: int, seconds: float, smoke: bool, workdir,
                 expected: dict) -> dict:
    """Set up ``SETUPS`` times (once under smoke; ``setup_s`` is the
    median), measure once with tracing and obs off."""
    setup_s = []
    workload = None
    for _ in range(1 if smoke else SETUPS):
        if workload is not None:
            workload.teardown()
        gc.collect()
        t0 = now_ns()
        if not smoke:
            cold_import(workdir)
        workload = cls(seed, workdir, smoke=smoke)
        workload.setup()
        setup_s.append((now_ns() - t0) / 1e9)
    try:
        matches, note = check_expected(expected, workload, smoke)
        gc.collect()
        m = workload.measure(seconds, trace=False,
                             max_ops=2 * workload.lap if smoke else None)
    finally:
        workload.teardown()
    # outputs that differ from the pinned ones fail every op that was
    # checked against them
    failed = m.failed if matches else m.attempted
    ops = m.op_ms
    ((p50, rate),) = m.windows(1)
    # diagnostic only: how far the quietest fifth of the run sits from
    # the whole run says how contended the box was
    windows = m.windows(5)
    return {
        "attempted": m.attempted,
        "failed": failed,
        "failed_share": failed / m.attempted,
        "failures": list(m.failures.values())[:5],
        "expected": note,
        "setup_s": median(setup_s),
        "setup_samples": len(setup_s),
        "op_p50_ms": p50,
        "op_p90_ms": quantile(ops, 0.9) if len(ops) >= 100 else None,
        "ops_per_s": rate * (m.attempted - failed) / m.attempted,
        "peak_rss_mb": harness.peak_rss_mb(),
        "timed_s": sum(map(sum, m.clients)) / len(m.clients) / 1e3,
        "quiet_window": {
            "of": len(windows),
            "op_p50_ms": min(w[0] for w in windows),
            "ops_per_s": max(w[1] for w in windows),
        },
        "counts": m.counts,
    }


def run_traced(cls, seed: int, seconds: float, smoke: bool, workdir,
               trace_out: Path | None) -> dict:
    """A short untraced phase, the same again with the span recorder
    on, then every per-layer probe."""
    from probes import run_probes

    workload = cls(seed, workdir, smoke=smoke)
    workload.setup()
    try:
        cap = 2 * workload.lap if smoke else None
        gc.collect()
        plain = workload.measure(seconds / 4, trace=False, max_ops=cap)
        gc.collect()
        traced = workload.measure(seconds / 4, trace=True, max_ops=cap)
    finally:
        workload.teardown()
    table = harness.self_time_table(traced.recorders)
    unknown = set(table["by_layer"]) - set(TRACE_LAYERS)
    if unknown:
        raise AssertionError(f"spans of undeclared layers: {sorted(unknown)}")
    per_layer = {
        "trace.overhead_ratio": median(traced.op_ms) / median(plain.op_ms),
        "trace.op_ms": table["op_ms"],
        "workload.ops_timed": plain.attempted,
        "workload.op_p90_ms": quantile(plain.op_ms, 0.9),
    }
    for layer in TRACE_LAYERS:
        per_layer[f"trace.self_ms.{layer}"] = table["by_layer"].get(layer, 0.0)
    c = traced.counts
    for layer, key in (("runtime", "plan_cache"), ("core", "owner_cache")):
        lookups = c.get(f"{key}_lookups", 0)
        per_layer[f"{layer}.{key}_lookups"] = lookups
        # 0.0 also when the workload made no lookup: read with the count
        per_layer[f"{layer}.{key}_hit_ratio"] = (
            c.get(f"{key}_hits", 0) / lookups if lookups else 0.0)
    answered = c.get("cache_hits", 0) + c.get("cache_misses", 0)
    per_layer["serve.mix_hit_share"] = (
        c.get("cache_hits", 0) / answered if answered else 0.0)

    if trace_out is None:
        harness.WORK.mkdir(exist_ok=True)
        trace_out = harness.WORK / f"trace-{cls.name}.json"
    harness.dump_json(harness.chrome_trace(traced.recorders), trace_out)

    probed, not_measured = run_probes(seed, workdir, smoke=smoke)
    per_layer.update(probed)
    failures = {**plain.failures, **traced.failures}
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": len(plain.failures) + len(traced.failures),
        "failures": list(failures.values())[:5],
        "per_layer": per_layer,
        "not_measured": not_measured,
        "self_time": table,
        "chrome_trace": str(trace_out),
    }


# -- reporting ---------------------------------------------------------------


def contract_line(contract: dict, result: dict, trace: bool) -> str:
    """The result object the benchmark driver reads."""
    values = result["per_layer"] if trace else result
    listed = contract["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if values.get(m["name"]) is None]
    return json.dumps({
        "correct": result["failed"] == 0 and not missing,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in listed},
    })


def print_end_to_end(name: str, r: dict) -> None:
    p90 = "null" if r["op_p90_ms"] is None else f"{r['op_p90_ms']:.3f}"
    quiet = r["quiet_window"]
    print(f"{name}: setup_s={r['setup_s']:.3f} s (n={r['setup_samples']})  "
          f"op_p50_ms={r['op_p50_ms']:.3f} ms  op_p90_ms={p90} ms "
          f"(n={r['attempted']} ops in {r['timed_s']:.2f} s)  "
          f"ops_per_s={r['ops_per_s']:.2f} 1/s  "
          f"peak_rss_mb={r['peak_rss_mb']:.1f} MB  "
          f"failed_share={r['failed_share']:.4f} ratio")
    print(f"  quietest of {quiet['of']} windows (diagnostic): "
          f"op_p50_ms={quiet['op_p50_ms']:.3f} ms  "
          f"ops_per_s={quiet['ops_per_s']:.2f} 1/s; "
          f"expected.json: {r['expected']}")
    for reason in r["failures"]:
        print(f"  FAILED op: {reason}")


def print_traced(name: str, t: dict, units: dict) -> None:
    print(harness.format_self_time(name, t["self_time"]))
    print(f"  trace_overhead_ratio="
          f"{t['per_layer']['trace.overhead_ratio']:.3f} (traced op_p50 / "
          f"untraced op_p50); chrome trace: {t['chrome_trace']}")
    print(f"per-layer metrics — {name}:")
    for metric, value in sorted(t["per_layer"].items()):
        print(f"  {metric:40s} {value:>16.4f} {units.get(metric, '?')}")
    for metric, why in sorted(t["not_measured"].items()):
        print(f"  {metric:40s} not measured: {why}")
    for reason in t["failures"]:
        print(f"  FAILED op: {reason}")


def new_report(args) -> dict:
    env = harness.env_stamp()
    if env["load_warning"]:
        print(f"warning: {env['load_warning']}", file=sys.stderr)
    return {"schema": SCHEMA, "env": env, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}


def run_here(names, args, contract: dict) -> dict:
    """Measure ``names`` in this process."""
    from probes import run_probes
    from workloads import WORKLOADS

    with open(EXPECTED) as fh:
        expected = json.load(fh)
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    report = new_report(args)
    with harness.scratch_dir() as workdir:
        for name in names:
            cls = WORKLOADS[name]
            entry = report["workloads"][name] = {}
            if args.smoke or not args.trace:
                entry["end_to_end"] = run_untraced(
                    cls, args.seed, args.seconds, args.smoke, workdir,
                    expected)
                print_end_to_end(name, entry["end_to_end"])
            if args.trace:
                entry["traced"] = run_traced(
                    cls, args.seed, args.seconds, args.smoke, workdir,
                    Path(args.trace_out) if args.trace_out else None)
                print_traced(name, entry["traced"], units)
            sys.stdout.flush()
        if args.smoke and not args.trace:
            # the cheap probes once, and say what was skipped
            report["per_layer"], report["not_measured"] = run_probes(
                args.seed, workdir, smoke=True)
            why = "measured on a traced workload only (run with --trace)"
            report["not_measured"].update({n: why for n in WORKLOAD_SCOPED})
    return report


def run_isolated(names, args) -> dict:
    """Measure each workload in a process of its own, as the driver
    does: peak RSS, import state and process-wide caches then belong to
    one workload."""
    report = new_report(args)
    harness.WORK.mkdir(exist_ok=True)
    part = harness.WORK / f"part-{os.getpid()}.json"
    for name in names:
        entry = report["workloads"][name] = {}
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(part)]
            if args.trace_out and trace:
                cmd += ["--trace-out", f"{args.trace_out}.{name}.json"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            # everything but the driver's result line
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if proc.returncode != 0:
                raise SystemExit(f"error: {name} exited {proc.returncode}")
            with open(part) as fh:
                entry.update(json.load(fh)["workloads"][name])
            part.unlink()
    return report


# -- compare -----------------------------------------------------------------


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["runs"] if "runs" in doc else [doc]


def iqr_share(values: list[float]) -> float:
    """Inter-quartile distance over the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """Apply BENCHMARK.json's bounds cell by cell: ``ok``, ``worse``,
    or ``unresolved`` when a side's own runs spread (inter-quartile
    distance over median) by more than the bound — unless every run of
    B reads better than every run of A."""
    sides = (load_runs(path_a), load_runs(path_b))
    worse = 0
    print(f"{'workload':16s} {'metric':12s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'bound':>6s} "
          f"{'spread A/B':>13s}  verdict")
    for w in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["workloads"][w]["end_to_end"][name] for r in runs
                     if "end_to_end" in r["workloads"].get(w, {})]
                    for runs in sides)
            if not a or not b:
                print(f"{w:16s} {name:12s} not measured on both sides")
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / med_a
            lower = metric["better"] == "lower"
            clean_win = max(b) < min(a) if lower else min(b) > max(a)
            if max(iqr_share(a), iqr_share(b)) > bound and not clean_win:
                verdict = "unresolved"
            elif (change if lower else -change) > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{w:16s} {name:12s} {med_a:12.4f} {med_b:12.4f} "
                  f"{change:+8.1%} {bound:6.2f} "
                  f"{iqr_share(a):6.1%}/{iqr_share(b):6.1%}  {verdict} "
                  f"(n={len(a)}/{len(b)})")
    for runs, label in zip(sides, "AB"):
        failed = sum(e["end_to_end"]["failed"] for r in runs
                     for e in r["workloads"].values() if "end_to_end" in e)
        print(f"failed ops, side {label}: {failed}")
    return 1 if worse else 0


# -- entry -------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="end-to-end wall-clock benchmark of the reproduction")
    p.add_argument("--workload", help="run one workload (the driver's form)")
    p.add_argument("--all", action="store_true",
                   help="run all six, each in a process of its own")
    p.add_argument("--smoke", action="store_true",
                   help="all six at tiny op counts (seconds, not minutes)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per workload (default: "
                        "BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                   choices=(0, 1),
                   help="traced run: span recorder on, per-layer probes")
    p.add_argument("--trace-out", help="where to write the Chrome trace "
                   "(default: benchmarks/e2e/.work/trace-<workload>.json)")
    p.add_argument("--repeat", type=int, default=1,
                   help="with --out: repeat the whole report N times")
    p.add_argument("--out", help="write the full report(s) as JSON")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--regen-expected", action="store_true")
    args = p.parse_args(argv)
    modes = (args.workload, args.all, args.smoke, args.compare,
             args.regen_expected)
    if sum(map(bool, modes)) != 1:
        p.error("choose one of --workload, --all, --smoke, --compare, "
                "--regen-expected")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        return compare(*args.compare, load_contract())
    bootstrap()
    harness.adopt_orphans()
    # a terminated run unwinds like any other, through the finally below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure(args)
    finally:
        stragglers = harness.stop_children()
        if stragglers:
            print(f"warning: had to signal left-over child processes "
                  f"{stragglers}", file=sys.stderr)


def measure(args) -> int:
    contract = load_contract()
    if args.regen_expected:
        regen_expected()
        return 0
    from workloads import WORKLOADS

    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload and args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r} "
                 f"(have {', '.join(WORKLOADS)})")

    runs = []
    for _ in range(args.repeat):
        if args.all:
            runs.append(run_isolated(list(WORKLOADS), args))
        else:
            names = [args.workload] if args.workload else list(WORKLOADS)
            runs.append(run_here(names, args, contract))
    if args.out:
        harness.dump_json(runs[0] if len(runs) == 1 else {"runs": runs},
                          args.out)
    if args.workload:
        entry = runs[-1]["workloads"][args.workload]
        print(contract_line(
            contract, entry["traced" if args.trace else "end_to_end"],
            bool(args.trace)))
        return 0
    failed = sum(part["failed"] for run in runs
                 for entry in run["workloads"].values()
                 for part in entry.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
