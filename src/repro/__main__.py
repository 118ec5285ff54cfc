"""``python -m repro`` — the session facade on the command line.

With no arguments, runs a miniature version of each paper artifact
(Figure 1 ADI, Figure 2 PIC, the §4 smoothing choice) and prints the
headline comparisons.  Subcommands::

    python -m repro plan adi --nprocs 4 --cost-model Paragon
    python -m repro plan adi --cost-mode simulated --json
    python -m repro run adi --backend multiprocess
    python -m repro run smoothing --backend multiprocess --nprocs 4
    python -m repro trace adi --nprocs 4 --size 32
    python -m repro calibrate --nprocs 2
    python -m repro bench --smoke --check
    python -m repro bench --compare --smoke
    python -m repro serve --port 8642
    python -m repro serve --loadtest --clients 8 --check
    python -m repro obs --workload adi --stage plan --json
    python -m repro obs analyze --workload adi
    python -m repro obs compare --baseline old/BENCH_PERF.json

Every subcommand goes through :mod:`repro.api`: one
:func:`repro.session` per invocation owns the machine policy, backend,
plan cache and seed, and the workload lists are enumerated from the
:data:`repro.api.REGISTRY` — registering a new workload makes it
appear in ``plan`` / ``run`` / ``trace`` automatically.

``plan`` runs the automatic distribution planner (``--cost-mode
simulated`` prices against split-phase overlap semantics); ``run``
executes a workload on an SPMD backend (``serial`` |
``multiprocess``), verifying multiprocess results bitwise against the
serial reference; ``trace`` replays a workload's typed event stream
through the discrete-event simulator under blocking and split-phase
semantics; ``calibrate`` fits measured transport constants and plans
against them; ``bench`` times the vectorized hot paths; ``serve``
exposes all of it as a multi-tenant asyncio HTTP service (with
``--loadtest``, it instead hammers a fresh in-process server — or
``--url``, a running one — and writes ``BENCH_SERVE.json`` plus a
``/metrics`` snapshot); ``obs`` flips observability on, optionally
drives one workload stage, and dumps the metrics registry (Prometheus
text, ``--json`` snapshot, ``--chrome-out`` span trace).  ``bench
--compare`` is the regression sentinel: it diffs the fresh run against
a baseline (op-count drift exits 2, wall-clock drift beyond the
trajectory's noise band exits 3) and appends every run to the
``BENCH_TRAJECTORY.jsonl`` history; ``obs analyze`` renders a
per-phase attribution table (summing to the simulated makespan) with
the top-3 slowness reasons; ``obs compare`` runs the sentinel over two
existing report files.  All
subcommands accept ``--json`` for machine-readable reports and exit
nonzero on failure instead of printing a traceback.

The full tables live in ``benchmarks/`` (run
``pytest benchmarks/ --benchmark-disable -s``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

COST_MODEL_CHOICES = ("iPSC/860", "Paragon", "modern", "zero")
BACKEND_CHOICES = ("serial", "multiprocess")


def _workload_params(args: argparse.Namespace) -> dict:
    """Map the CLI's generic knobs onto the workload's registered
    parameters (only the ones the workload accepts)."""
    from .api import REGISTRY

    defaults = REGISTRY.get(args.workload).defaults
    params: dict = {}
    for key in ("size", "iterations", "steps"):
        if key in defaults and hasattr(args, key):
            params[key] = getattr(args, key)
    return params


def _session(args: argparse.Namespace, **overrides):
    from .api import session

    kwargs = {
        "nprocs": args.nprocs,
        "cost_model": getattr(args, "cost_model", "Paragon"),
    }
    kwargs.update(overrides)
    return session(**kwargs)


def tour() -> None:
    """The original one-screen tour, through the session facade."""
    from .api import session
    from .apps.smoothing import best_distribution
    from .machine import IPSC860, MODERN_CLUSTER, PARAGON

    print("repro — Dynamic Data Distributions in Vienna Fortran (SC'93)\n")

    with session(nprocs=4, cost_model="Paragon") as sess:
        print("Figure 1 (ADI, 64x64, 4 procs, Paragon model):")
        for strategy in ("dynamic", "planned", "static_cols"):
            r = sess.workload(
                "adi", size=64, iterations=2, strategy=strategy
            ).run()
            a = r.result
            print(
                f"  {strategy:12s} sweep msgs={a.sweep_messages:4d}  "
                f"redist msgs={a.redistribution.messages:3d}  "
                f"time={a.total_time * 1e3:7.2f} ms"
            )

        print("\nFigure 2 (PIC, 3000 particles drifting, 50 steps):")
        for strategy in ("static", "bblock", "planned"):
            r = sess.workload(
                "pic", size=128, npart=3000, steps=50, strategy=strategy,
                drift=0.006, seed=5,
            ).run()
            p = r.result
            print(
                f"  {strategy:8s} mean imbalance={p.mean_imbalance:5.2f}  "
                f"max={p.max_imbalance:5.2f}  "
                f"redistributions={p.redistributions}"
            )

    print("\nSection 4 smoothing choice (N=128, p=16):")
    for model in (IPSC860, PARAGON, MODERN_CLUSTER):
        print(f"  on {model.name:9s}: DISTRIBUTE U :: "
              f"{best_distribution(128, 16, model)}")

    print("\nSee examples/ and benchmarks/ for the full reproduction, and")
    print("`python -m repro plan <adi|pic|smoothing>` for the planner.")


def plan_command(args: argparse.Namespace) -> None:
    """Run the automatic distribution planner on a named workload."""
    with _session(args) as sess:
        handle = sess.workload(args.workload, **_workload_params(args))
        result = handle.plan(cost_mode=args.cost_mode, method=args.method)
    if args.json:
        print(result.json_str())
    else:
        print(result.summary())


def run_command(args: argparse.Namespace) -> None:
    """Execute a workload on a chosen SPMD execution backend."""
    import numpy as np

    params = _workload_params(args)
    with _session(args, backend=args.backend) as sess:
        result = sess.workload(args.workload, **params).run()
    verified: bool | None = None
    if args.backend != "serial" and not args.no_verify:
        with _session(args, backend="serial") as sess:
            reference = sess.workload(args.workload, **params).run()
        verified = bool(np.array_equal(result.solution, reference.solution))
    if args.json:
        print(json.dumps(
            {**result.to_json(), "verified_against_serial": verified},
            indent=2,
        ))
    else:
        print(result.summary())
        if verified is not None:
            print(f"  identical to serial backend: {verified}")
    if verified is False:
        raise SystemExit(
            f"{args.backend} backend diverged from the serial reference"
        )


def trace_command(args: argparse.Namespace) -> None:
    """Record a workload's events; simulate blocking vs split-phase."""
    from .machine import timeline_table, timeline_summary
    from .sim import critical_path, gantt

    with _session(args) as sess:
        result = sess.workload(args.workload, **_workload_params(args)).trace()

    if args.json:
        print(json.dumps(result.to_json(intervals=not args.compact), indent=2))
        return

    blocking, split = result.blocking, result.split
    print(result.summary())
    print(f"\nper-processor timeline ({blocking.cost_model}, blocking):")
    print(timeline_table(blocking))
    print(f"\n{timeline_summary(blocking)}")
    print("\nblocking:")
    print(gantt(blocking, width=args.width))
    print("\nsplit-phase:")
    print(gantt(split, width=args.width))
    print(f"\nblocking    {critical_path(blocking).summary()}")
    print(f"split-phase {critical_path(split).summary()}")


def _run_bench(runner, args: argparse.Namespace, **extra) -> dict:
    """Call a bench runner with the flags :func:`_bench_flags` parsed
    and echo its report under ``--json``."""
    report = runner(
        smoke=args.smoke, out=args.out, check=args.check,
        trajectory=args.trajectory or None, quiet=args.json, **extra,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    return report


def bench_command(args: argparse.Namespace) -> None:
    """Time the vectorized hot paths against their reference oracles;
    with ``--compare``, diff the run against a baseline (the regression
    sentinel: op-count drift is a hard fail, exit 2; wall-clock drift
    beyond the trajectory's noise band a soft fail, exit 3)."""
    from .perf import run_harness

    mode = "smoke" if args.smoke else "full"
    if not args.json:
        print(f"perf harness ({mode} sizes; wall-clock informational, "
              f"op counts asserted{' [--check]' if args.check else ''}):")
    if not args.compare:
        _run_bench(run_harness, args, benches=args.only or None)
        return

    from .obs.compare import compare_reports, finish_bench, resolve_baseline
    from .obs.trajectory import TrajectoryStore

    # resolve the baseline *before* the harness runs: the run must not
    # land in the trajectory first (it would baseline itself, so it is
    # appended after the diff), and the harness overwrites --out
    # (default BENCH_PERF.json) — the very file the snapshot fallback
    # would otherwise read back
    store = TrajectoryStore(args.trajectory) if args.trajectory else None
    baseline, source = resolve_baseline(
        {"smoke": bool(args.smoke)},
        kind="perf", baseline_path=args.baseline, trajectory=store,
    )
    report = run_harness(
        smoke=args.smoke, out=args.out, check=args.check,
        benches=args.only or None, quiet=args.json,
    )
    comparison = compare_reports(
        "perf", report, baseline, baseline_source=source, trajectory=store,
        wall_tolerance=args.wall_tolerance,
    )
    finish_bench(
        "perf", report, out="", trajectory=args.trajectory, quiet=True
    )
    if args.json:
        print(json.dumps(
            {"report": report, "comparison": comparison.to_json()}, indent=2
        ))
    else:
        print(comparison.summary())
    if comparison.exit_code:
        raise SystemExit(comparison.exit_code)


def calibrate_command(args: argparse.Namespace) -> None:
    """Calibrate the multiprocess transport; plan against the fit."""
    from .backend.calibrate import calibrate
    from .machine import MeasuredMachine, ProcessorArray
    from .planner import CostEngine, adi_workload, plan_workload

    if not args.json:
        print(
            f"calibrating multiprocess transport "
            f"(nprocs={args.nprocs}, repeats={args.repeats}) ..."
        )
    cal = calibrate(nprocs=args.nprocs, repeats=args.repeats)
    machine = MeasuredMachine(ProcessorArray("M", (args.nprocs,)), cal)
    workload = adi_workload(32, 32, iterations=2, machine=machine)
    plan = plan_workload(workload, cost_engine=CostEngine(machine))

    if args.json:
        print(json.dumps(
            {
                "nprocs": args.nprocs,
                "repeats": args.repeats,
                "alpha_s": cal.alpha,
                "beta_s_per_byte": cal.beta,
                "flop_rate": cal.flop_rate,
                "residual_s": cal.residual,
                "source": cal.source,
                "samples": [
                    {"bytes": int(n), "seconds": float(s)}
                    for n, s in cal.samples
                ],
                "plan": plan.to_dict(),
            },
            indent=2,
        ))
        return
    print(f"  {cal.summary()}")
    for nbytes, seconds in cal.samples:
        print(f"    {nbytes:>9d} B  {seconds * 1e6:10.2f} us one-way")
    print(f"\nplanner on the measured machine: {machine!r}")
    print(plan.summary())


def serve_command(args: argparse.Namespace) -> None:
    """Serve plan/run/trace/bench over HTTP, or load-test a server."""
    from .serve import PlanningService, run_loadtest, serve_forever

    if args.loadtest or args.url or args.chaos:
        metrics_out = args.metrics_out
        if args.chaos and metrics_out == "METRICS_SERVE.prom":
            metrics_out = ""  # never clobber the steady-state scrape
        _run_bench(
            run_loadtest, args, url=args.url, clients=args.clients,
            rounds=args.rounds, metrics_out=metrics_out, chaos=args.chaos,
            chaos_seed=args.chaos_seed,
        )
        return
    service = PlanningService(
        max_idle_sessions=args.pool_size,
        response_cache_capacity=args.cache_capacity,
    )
    serve_forever(
        service, host=args.host, port=args.port, max_workers=args.workers
    )


def adapt_command(args: argparse.Namespace) -> None:
    """Run the adaptive-redistribution bench (default) or, with
    --workload, one adaptive run through the session facade."""
    if args.workload:
        with _session(args) as sess:
            params = _workload_params(args)
            if args.drift is not None:
                params["drift"] = args.drift
            handle = sess.workload(args.workload, seed=args.seed, **params)
            result = handle.adapt(mode=args.mode, window=args.window)
        if args.json:
            print(result.json_str())
        else:
            print(result.summary())
        return

    from .adapt import run_adapt_bench

    _run_bench(
        run_adapt_bench, args, coverage_out=args.coverage_out, seed=args.seed
    )


def obs_command(args: argparse.Namespace) -> None:
    """``obs dump`` (default): drive a workload stage with
    observability on and dump the metrics registry.  ``obs analyze``:
    per-phase attribution of a workload's simulated timeline plus the
    top-3 slowness reasons.  ``obs compare``: run the regression
    sentinel over two existing bench reports (no benches re-run)."""
    from . import obs

    if args.action == "analyze":
        if not args.workload:
            raise ValueError("obs analyze needs --workload")
        attr = obs.analyze_workload(
            args.workload,
            nprocs=args.nprocs,
            cost_model=args.cost_model,
            overlap=args.overlap,
            **_workload_params(args),
        )
        if args.json:
            print(json.dumps(attr.to_json(), indent=2))
            return
        print(attr.table())
        print("\ntop reasons this plan is slow:")
        for i, reason in enumerate(attr.top_reasons(), 1):
            print(f"  {i}. [{reason.kind}] {reason.detail}")
        return

    if args.action == "compare":
        from .obs.compare import compare_reports, load_report, resolve_baseline
        from .obs.trajectory import TrajectoryStore

        current = load_report(args.current)
        store = TrajectoryStore(args.trajectory) if args.trajectory else None
        baseline, source = resolve_baseline(
            current, kind=args.kind, baseline_path=args.baseline,
            trajectory=store,
        )
        comparison = compare_reports(
            args.kind, current, baseline, baseline_source=source,
            trajectory=store, wall_tolerance=args.wall_tolerance,
        )
        if args.json:
            print(json.dumps(comparison.to_json(), indent=2))
        else:
            print(comparison.summary())
        if comparison.exit_code:
            raise SystemExit(comparison.exit_code)
        return

    obs.enable()
    if args.workload:
        with _session(args) as sess:
            handle = sess.workload(args.workload, **_workload_params(args))
            getattr(handle, args.stage)()
    if args.chrome_out:
        doc = obs.dump_chrome_trace(args.chrome_out)
        if not args.json:
            print(f"wrote {args.chrome_out} "
                  f"({len(doc['traceEvents'])} events; open in "
                  f"chrome://tracing or Perfetto)",
                  file=sys.stderr)
    if args.json:
        print(json.dumps(obs.registry.snapshot(), indent=2))
    else:
        print(obs.render_prometheus(), end="")


def _bench_flags(p, kind: str, *, smoke: str, check: str) -> None:
    """The flags every bench family's command shares: its run ends in
    :func:`repro.obs.compare.finish_bench`."""
    from .obs.compare import FAMILIES

    p.add_argument("--smoke", action="store_true", help=smoke)
    p.add_argument("--check", action="store_true", help=check)
    p.add_argument("--out", default=None,
                   help=f"report path (default {FAMILIES[kind].snapshot}; "
                        f"'' to skip writing)")
    p.add_argument("--trajectory", default="BENCH_TRAJECTORY.jsonl",
                   help="append the report to the JSONL trajectory "
                        "history ('' to skip)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as machine-readable JSON")


def build_parser() -> argparse.ArgumentParser:
    from .api import REGISTRY
    from .obs.compare import FAMILIES
    from .perf import BENCHES

    workload_names = REGISTRY.names()
    plannable = REGISTRY.plannable_names()

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Vienna Fortran dynamic-distribution reproduction.",
    )
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser(
        "plan", help="run the automatic distribution planner on a workload"
    )
    p.add_argument("workload", choices=plannable)
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--size", type=int, default=64,
                   help="grid/cell extent (NX=NY for adi, NCELL for pic, N "
                        "for smoothing)")
    p.add_argument("--iterations", type=int, default=4,
                   help="ADI outer iterations")
    p.add_argument("--steps", type=int, default=50,
                   help="time steps (pic, smoothing)")
    p.add_argument("--cost-model", default="Paragon",
                   choices=COST_MODEL_CHOICES)
    p.add_argument("--method", default="auto",
                   choices=("auto", "dp", "greedy"))
    p.add_argument("--cost-mode", default="model",
                   choices=("model", "simulated"),
                   help="pricing semantics: closed-form aggregates or "
                        "the discrete-event simulator's split-phase "
                        "overlap")
    p.add_argument("--json", action="store_true",
                   help="emit the plan as machine-readable JSON")

    r = sub.add_parser(
        "run", help="execute a workload on an SPMD execution backend"
    )
    r.add_argument("workload", choices=workload_names)
    r.add_argument("--backend", default="serial", choices=BACKEND_CHOICES)
    r.add_argument("--nprocs", type=int, default=4)
    r.add_argument("--size", type=int, default=32,
                   help="grid/cell/mesh extent (NX=NY for adi, NCELL for "
                        "pic, N for smoothing, nodes for irregular)")
    r.add_argument("--iterations", type=int, default=2,
                   help="ADI outer iterations")
    r.add_argument("--steps", type=int, default=10,
                   help="time steps / sweeps (pic, smoothing, irregular)")
    r.add_argument("--cost-model", default="Paragon",
                   choices=COST_MODEL_CHOICES)
    r.add_argument("--no-verify", action="store_true",
                   help="skip the bitwise comparison against the "
                        "serial backend")
    r.add_argument("--json", action="store_true",
                   help="emit the run report as machine-readable JSON")

    t = sub.add_parser(
        "trace",
        help="record a workload's typed events and replay them through "
             "the discrete-event simulator (blocking vs split-phase)",
    )
    t.add_argument("workload", choices=workload_names)
    t.add_argument("--nprocs", type=int, default=4)
    t.add_argument("--size", type=int, default=32,
                   help="grid/cell/mesh extent (NX=NY for adi, NCELL for "
                        "pic, N for smoothing, nodes for irregular)")
    t.add_argument("--iterations", type=int, default=2,
                   help="ADI outer iterations")
    t.add_argument("--steps", type=int, default=10,
                   help="time steps / sweeps (pic, smoothing, irregular)")
    t.add_argument("--cost-model", default="Paragon",
                   choices=COST_MODEL_CHOICES)
    t.add_argument("--width", type=int, default=72,
                   help="Gantt chart width in characters")
    t.add_argument("--json", action="store_true",
                   help="emit both timelines as machine-readable JSON")
    t.add_argument("--compact", action="store_true",
                   help="with --json: metrics only, no interval lists")

    c = sub.add_parser(
        "calibrate",
        help="microbenchmark the multiprocess transport and fit "
             "measured machine constants",
    )
    c.add_argument("--nprocs", type=int, default=2)
    c.add_argument("--repeats", type=int, default=7)
    c.add_argument("--json", action="store_true",
                   help="emit the fitted constants and the plan on the "
                        "measured machine as JSON")

    b = sub.add_parser(
        "bench",
        help="time the vectorized hot paths against their per-element/"
             "per-event reference oracles and write BENCH_PERF.json",
    )
    _bench_flags(
        b, "perf", smoke="CI-sized problems (fast; same op-count checks)",
        check="exit non-zero if any vectorized path's op counts or "
              "results diverge from its reference")
    b.add_argument("--only", nargs="*", choices=sorted(BENCHES),
                   help="run only the named benches")
    b.add_argument("--compare", action="store_true",
                   help="regression sentinel: diff this run against a "
                        "baseline; op-count drift exits 2 (hard), "
                        "wall-clock drift beyond the noise band exits 3 "
                        "(soft)")
    b.add_argument("--baseline", default=None,
                   help="baseline report for --compare (a BENCH_PERF.json "
                        "or a trajectory .jsonl; default: latest "
                        "compatible trajectory entry, then the committed "
                        "BENCH_PERF.json)")
    b.add_argument("--wall-tolerance", type=float, default=1.0,
                   help="relative wall-clock tolerance when the "
                        "trajectory has too little history for a noise "
                        "band (1.0 = current may be 2x baseline)")

    s = sub.add_parser(
        "serve",
        help="serve plan/run/trace/bench as a multi-tenant asyncio HTTP "
             "service over the workload registry (--loadtest to hammer "
             "it with concurrent clients and write BENCH_SERVE.json)",
    )
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8642)
    s.add_argument("--workers", type=int, default=8,
                   help="executor threads (max in-flight requests)")
    s.add_argument("--pool-size", type=int, default=4,
                   help="idle sessions kept per distinct configuration")
    s.add_argument("--cache-capacity", type=int, default=256,
                   help="cross-session response cache entries")
    s.add_argument("--loadtest", action="store_true",
                   help="start an in-process server and load-test it "
                        "instead of serving")
    s.add_argument("--url", default=None,
                   help="load-test a running server at this base URL "
                        "(implies --loadtest)")
    s.add_argument("--clients", type=int, default=8,
                   help="concurrent load-test clients")
    s.add_argument("--rounds", type=int, default=3,
                   help="repeated-config phase replays per client")
    s.add_argument("--chaos", action="store_true",
                   help="load-test under a seeded fault plan (injected "
                        "request faults + worker-crash recovery phase); "
                        "writes BENCH_CHAOS.json (implies --loadtest; "
                        "in-process server only)")
    s.add_argument("--chaos-seed", type=int, default=None,
                   help="fault-plan seed (defaults to the request seed)")
    _bench_flags(
        s, "serve", smoke="CI-sized workload parameters",
        check="exit non-zero unless zero failures, byte-identical "
              "responses, and > 50%% repeated-phase cache hit rate (under "
              "--chaos: zero byte-identity violations, incident IDs on "
              "every 5xx, and bitwise-identical recovery)")
    s.add_argument("--metrics-out", default="METRICS_SERVE.prom",
                   help="load-test /metrics snapshot path "
                        "('' to skip writing)")

    a = sub.add_parser(
        "adapt",
        help="online adaptive redistribution: bench the feedback "
             "controller against static/balanced/offline layouts and "
             "write BENCH_ADAPT.json + ADAPT_COVERAGE.json (--workload "
             "for a single adaptive run instead)",
    )
    _bench_flags(
        a, "adapt", smoke="CI-sized drifting-load scenarios",
        check="exit non-zero unless every scenario's gates pass (adaptive "
              "beats static and offline, replans fired, bitwise-"
              "deterministic, identical solutions across modes)")
    a.add_argument("--coverage-out", default="ADAPT_COVERAGE.json",
                   help="policy-coverage sweep path ('' to skip)")
    a.add_argument("--seed", type=int, default=0,
                   help="bench and single-run seed")
    a.add_argument("--workload", choices=workload_names, default=None,
                   help="run one adaptive session stage instead of the "
                        "bench (pic and irregular have drivers)")
    a.add_argument("--mode", default="adaptive",
                   choices=("static", "balanced", "offline", "adaptive"),
                   help="layout policy for the single run")
    a.add_argument("--window", type=int, default=None,
                   help="steps per monitoring window (default: the "
                        "workload's natural phase length)")
    a.add_argument("--nprocs", type=int, default=4)
    a.add_argument("--size", type=int, default=64,
                   help="grid/cell/mesh extent for --workload")
    a.add_argument("--steps", type=int, default=40,
                   help="time steps / sweeps for --workload")
    a.add_argument("--drift", type=float, default=None,
                   help="per-step load drift for --workload "
                        "(default: the registered workload default)")
    a.add_argument("--cost-model", default="Paragon",
                   choices=COST_MODEL_CHOICES)

    o = sub.add_parser(
        "obs",
        help="observability: dump the metrics registry (default), "
             "'analyze' a workload's simulated timeline into a per-phase "
             "attribution table, or 'compare' two bench reports with the "
             "regression sentinel",
    )
    o.add_argument("action", nargs="?", default="dump",
                   choices=("dump", "analyze", "compare"),
                   help="dump the registry, attribute a timeline, or "
                        "diff bench reports")
    o.add_argument("--workload", choices=workload_names, default=None,
                   help="drive this workload first so the dump has data "
                        "(required for analyze)")
    o.add_argument("--stage", default="plan",
                   choices=("plan", "run", "trace", "bench"),
                   help="which stage to drive on --workload")
    o.add_argument("--nprocs", type=int, default=4)
    o.add_argument("--size", type=int, default=32,
                   help="grid/cell/mesh extent for --workload")
    o.add_argument("--iterations", type=int, default=2,
                   help="ADI outer iterations")
    o.add_argument("--steps", type=int, default=10,
                   help="time steps / sweeps (pic, smoothing, irregular)")
    o.add_argument("--cost-model", default="Paragon",
                   choices=COST_MODEL_CHOICES)
    o.add_argument("--chrome-out", default=None,
                   help="also write recorded spans as a chrome://tracing "
                        "JSON file")
    o.add_argument("--json", action="store_true",
                   help="emit the registry snapshot / attribution / "
                        "comparison as JSON instead of text")
    o.add_argument("--overlap", action="store_true",
                   help="analyze: attribute the split-phase timeline "
                        "instead of the blocking one")
    o.add_argument("--current", default="BENCH_PERF.json",
                   help="compare: the current report file")
    o.add_argument("--baseline", default=None,
                   help="compare: the baseline report or trajectory file")
    o.add_argument("--kind", default="perf", choices=tuple(FAMILIES),
                   help="compare: which bench family the reports are")
    o.add_argument("--trajectory", default="BENCH_TRAJECTORY.jsonl",
                   help="compare: trajectory history for baseline "
                        "resolution and the wall-clock noise band "
                        "('' to skip)")
    o.add_argument("--wall-tolerance", type=float, default=1.0,
                   help="compare: relative wall-clock tolerance fallback")
    return parser


COMMANDS = {
    "plan": plan_command,
    "run": run_command,
    "trace": trace_command,
    "calibrate": calibrate_command,
    "bench": bench_command,
    "serve": serve_command,
    "adapt": adapt_command,
    "obs": obs_command,
}


def main(argv: Sequence[str] | None = None) -> None:
    # None means "no CLI arguments" (the tour): callers that want real
    # argv pass sys.argv[1:] explicitly (see __main__ guard below).
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else [])
    command = COMMANDS.get(args.command, lambda _args: tour())
    try:
        command(args)
    except SystemExit:
        raise
    except BrokenPipeError:
        raise
    except Exception as exc:
        # a failed subcommand is a nonzero exit and one stderr line,
        # not a traceback (CLI hardening; --json consumers rely on
        # stdout staying parseable)
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc


if __name__ == "__main__":
    main(sys.argv[1:])
