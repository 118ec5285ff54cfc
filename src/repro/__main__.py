"""``python -m repro`` — the session facade on the command line.

With no arguments, runs a miniature version of each paper artifact
(Figure 1 ADI, Figure 2 PIC, the §4 smoothing choice); ``--help`` lists
the subcommands.  Every one goes through :mod:`repro.api` — one
:func:`repro.session` per invocation — accepts ``--json`` and exits
nonzero with one stderr line on failure, never a traceback.

The workload-taking commands (``plan``, ``run``, ``trace``, ``adapt
--workload``, ``obs --workload``) declare no parameter themselves:
their workload choices come from :data:`repro.api.REGISTRY` and their
flags from the parameter table in :mod:`repro.api.params` — the rows
the HTTP service validates queries against, and README's parameter
table is written from — so registering a workload adds it, and one
``--flag`` per registered parameter, to all of them.

:func:`main` builds only the flags of the command it runs (one
builder per row of :data:`COMMANDS`, each importing what its flags
need), so ``--help`` loads no numpy; ``build_parser()`` builds all.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

#: The per-command defaults that differ from the registry's — the
#: planner and the adaptive controller are shown at a larger problem
#: than ``run``/``trace``.  They stay, as data: the e2e benchmark's
#: ``stdout_sha256.plan`` pin is ``plan adi --size 64`` at iterations=4.
CLI_DEFAULTS = {
    "plan": {"size": 64, "iterations": 4, "steps": 50},
    "adapt": {"size": 64, "steps": 40},
}


def _request(args: argparse.Namespace, stage: str | None):
    """The typed request of a workload-taking command: its supplied
    flags (over the command's :data:`CLI_DEFAULTS`) resolved against
    the parameter table.  A parameter flag the named workload does not
    declare is not forwarded — and said so on stderr."""
    from .api import REGISTRY, accepted_names, resolve, supplied

    spec = REGISTRY.get(args.workload)
    flags = supplied(args)
    accepted = accepted_names(spec, stage)
    dropped = sorted(set(flags) - accepted)  # another workload's parameters
    if dropped:
        print(f"note: {', '.join('--' + n.replace('_', '-') for n in dropped)} "
              f"not applied: workload {spec.name!r} accepts "
              f"{sorted(spec.params)}", file=sys.stderr)
    raw = {name: flags[name] for name in flags if name in accepted}
    return resolve(
        spec, stage, {**spec.accepted(CLI_DEFAULTS.get(stage, {})), **raw}
    )


def _stage(args: argparse.Namespace, stage: str, req, **overrides):
    """Run one stage of the named workload on a fresh session."""
    from .api import invoke, session

    config = {"nprocs": req.nprocs, "cost_model": req.cost_model,
              "backend": req.backend, **overrides}
    with session(**config) as sess:
        handle = sess.workload(args.workload, seed=req.seed, **req.params)
        return invoke(handle, stage, req.options)


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


def stage_command(args: argparse.Namespace) -> None:
    """``plan`` / ``adapt --workload``: one stage, one typed result."""
    stage = args.command
    result = _stage(args, stage, _request(args, stage))
    print(result.json_str() if args.json else result.summary())


def run_command(args: argparse.Namespace) -> None:
    """Execute a workload on a chosen SPMD execution backend."""
    import numpy as np

    req = _request(args, "run")
    result = _stage(args, "run", req)
    verified: bool | None = None
    if req.backend not in (None, "serial") and not args.no_verify:
        reference = _stage(args, "run", req, backend="serial")
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
            f"{req.backend} backend diverged from the serial reference"
        )


def trace_command(args: argparse.Namespace) -> None:
    """Record a workload's events; simulate blocking vs split-phase."""
    result = _stage(args, "trace", _request(args, "trace"))
    if args.json:
        print(result.json_str())
        return

    from .machine import timeline_table, timeline_summary
    from .sim import critical_path, gantt

    timelines = [(name, tl) for name, tl in (
        ("blocking", result.blocking), ("split-phase", result.split),
    ) if tl is not None]
    print(result.summary())
    first = timelines[0][1]
    print(f"\nper-processor timeline ({first.cost_model}, {timelines[0][0]}):")
    print(timeline_table(first))
    print(f"\n{timeline_summary(first)}")
    for name, tl in timelines:
        print(f"\n{name}:")
        print(gantt(tl, width=args.width))
    print()
    for name, tl in timelines:
        print(f"{name:11s} {critical_path(tl).summary()}")


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
        return stage_command(args)

    from .adapt import run_adapt_bench
    from .api import SESSION_FIELDS, supplied

    seed = SESSION_FIELDS["seed"]
    raw = supplied(args).get("seed", seed.default)
    _run_bench(
        run_adapt_bench, args, coverage_out=args.coverage_out,
        seed=seed.coerce(raw, "seed"),
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
        req = _request(args, None)
        attr = obs.analyze_workload(
            args.workload, nprocs=req.nprocs, cost_model=req.cost_model,
            overlap=args.overlap, seed=req.seed, **req.params,
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
        _stage(args, args.stage, _request(args, None))
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


def _workload_flags(p, stage: str, json_help: str) -> None:
    """A workload-taking command: the workload, then one flag per row
    of the parameter table (session fields, the stage's options, every
    registered workload parameter)."""
    from .api import REGISTRY, WORKLOAD, add_arguments

    names = REGISTRY.plannable_names() if stage == "plan" else REGISTRY.names()
    p.add_argument("workload", choices=names, help=WORKLOAD.help)
    p.add_argument("--json", action="store_true", help=json_help)
    add_arguments(p, stage)


def _plan_flags(p) -> None:
    _workload_flags(p, "plan", "emit the plan as machine-readable JSON")


def _run_flags(p) -> None:
    _workload_flags(p, "run", "emit the run report as machine-readable JSON")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the bitwise comparison against the "
                        "serial backend")


def _trace_flags(p) -> None:
    _workload_flags(p, "trace", "emit both timelines as machine-readable JSON")
    p.add_argument("--width", type=int, default=72,
                   help="Gantt chart width in characters")


def _calibrate_flags(c) -> None:
    c.add_argument("--nprocs", type=int, default=2)
    c.add_argument("--repeats", type=int, default=7)
    c.add_argument("--json", action="store_true",
                   help="emit the fitted constants and the plan on the "
                        "measured machine as JSON")


def _bench_command_flags(b) -> None:
    from .perf import BENCHES

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


def _serve_flags(s) -> None:
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


def _adapt_flags(a) -> None:
    from .api import REGISTRY, add_arguments

    _bench_flags(
        a, "adapt", smoke="CI-sized drifting-load scenarios",
        check="exit non-zero unless every scenario's gates pass (adaptive "
              "beats static and offline, replans fired, bitwise-"
              "deterministic, identical solutions across modes)")
    a.add_argument("--coverage-out", default="ADAPT_COVERAGE.json",
                   help="policy-coverage sweep path ('' to skip)")
    a.add_argument("--workload", choices=REGISTRY.names(), default=None,
                   help="run one adaptive session stage instead of the "
                        "bench (pic and irregular have drivers); the "
                        "flags below apply to it (--seed to both)")
    add_arguments(a, "adapt")


def _obs_flags(o) -> None:
    from .api import REGISTRY, add_arguments
    from .obs.compare import FAMILIES

    o.add_argument("action", nargs="?", default="dump",
                   choices=("dump", "analyze", "compare"),
                   help="dump the registry, attribute a timeline, or "
                        "diff bench reports")
    o.add_argument("--workload", choices=REGISTRY.names(), default=None,
                   help="drive this workload first so the dump has data "
                        "(required for analyze)")
    o.add_argument("--stage", default="plan",
                   choices=("plan", "run", "trace", "bench"),
                   help="which stage to drive on --workload")
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
    add_arguments(o, None)  # after --kind: here that is the bench family


#: every command: what runs it, its line of the top-level help, and the
#: builder of its flags -- run only for the command being parsed, so a
#: builder imports just what its own flags need
COMMANDS = {
    "plan": (stage_command,
             "run the automatic distribution planner on a workload",
             _plan_flags),
    "run": (run_command,
            "execute a workload on an SPMD execution backend", _run_flags),
    "trace": (trace_command,
              "record a workload's typed events and replay them through "
              "the discrete-event simulator (blocking vs split-phase)",
              _trace_flags),
    "calibrate": (calibrate_command,
                  "microbenchmark the multiprocess transport and fit "
                  "measured machine constants", _calibrate_flags),
    "bench": (bench_command,
              "time the vectorized hot paths against their per-element/"
              "per-event reference oracles and write BENCH_PERF.json",
              _bench_command_flags),
    "serve": (serve_command,
              "serve plan/run/trace/bench as a multi-tenant asyncio HTTP "
              "service over the workload registry (--loadtest to hammer "
              "it with concurrent clients and write BENCH_SERVE.json)",
              _serve_flags),
    "adapt": (adapt_command,
              "online adaptive redistribution: bench the feedback "
              "controller against static/balanced/offline layouts and "
              "write BENCH_ADAPT.json + ADAPT_COVERAGE.json (--workload "
              "for a single adaptive run instead)", _adapt_flags),
    "obs": (obs_command,
            "observability: dump the metrics registry (default), "
            "'analyze' a workload's simulated timeline into a per-phase "
            "attribution table, or 'compare' two bench reports with the "
            "regression sentinel", _obs_flags),
}


def build_parser(
    argv: Sequence[str] | None = None,
) -> argparse.ArgumentParser:
    """The parser ``argv`` needs: every command is registered by name
    and help, so the top-level help and its errors never change, but
    only the command ``argv`` names -- its first token not starting
    with ``-``, as no top-level option takes a value -- gets its flags.
    Without ``argv``, every command's flags are built."""
    chosen = next((a for a in argv or () if not a.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Vienna Fortran dynamic-distribution reproduction.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_line, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if argv is None or name == chosen:
            flags(p)
    return parser


def main(argv: Sequence[str] | None = None) -> None:
    # None means "no CLI arguments" (the tour): callers that want real
    # argv pass sys.argv[1:] explicitly (see __main__ guard below).
    argv = list(argv) if argv is not None else []
    args = build_parser(argv).parse_args(argv)
    command = COMMANDS[args.command][0] if args.command else (
        lambda _args: tour())
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
