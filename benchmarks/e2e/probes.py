"""Per-layer probes: each layer's public calls timed from outside.

One function per layer (layer = module name under ``src/repro``).
Every probe returns ``{metric name: value}``; the names, units and the
end-to-end cell each should move are tabulated in README.md and
``BENCHMARK.json``.  Probes are workload-independent — a traced run of
any workload reports all of them — and sized to finish in seconds, so
their timings are medians of few samples: read them as attribution,
not as gates.  Exact counts (messages, bytes, modeled ms, events,
replans, modules loaded) repeat exactly for one seed.
"""

from __future__ import annotations

import gc
import itertools
import json
import re

import numpy as np

import repro
from repro import dist_type

from harness import (
    NullRecorder,
    median,
    median_ms,
    now_ns,
    run_child,
    timed_ms,
)
from workloads import (
    FIGURE1,
    RING,
    CliCold,
    LibStages,
    ServerChild,
    post,
    request_set,
    stage_handles,
)

LIB_WORKLOADS = ("adi", "pic", "smoothing", "irregular")

#: the README's portable DCASE program — what ``optimize`` prunes
PORTABLE = """
PROGRAM SMOOTH
REAL U(N, N) DYNAMIC, RANGE ((:, BLOCK), (BLOCK, BLOCK)), DIST (:, BLOCK)
SELECT DCASE (U)
CASE (CYCLIC, CYCLIC)
U(I, J) = U(I, J)
CASE (:, BLOCK)
U(I, J) = 0.25 * (U(I-1, J) + U(I+1, J) + U(I, J-1) + U(I, J+1))
CASE DEFAULT
U(I, J) = U(I, J)
END SELECT
END
"""

#: shapes no workload uses, so "cold" probes really miss the caches
_fresh = itertools.count()


def _fresh_shape() -> tuple[int, int]:
    k = next(_fresh)
    return 520 + k % 16, 520 - k // 16


# -- cli ---------------------------------------------------------------------


def _cold_ms(argv: list[str], workdir, reps: int) -> tuple[float, bytes]:
    walls, out = [], b""
    for _ in range(reps):
        t0 = now_ns()
        code, out, err = run_child(argv, workdir)
        walls.append((now_ns() - t0) / 1e6)
        if code != 0:
            raise RuntimeError(f"python {argv[:3]} exit {code}: {err[-200:]!r}")
    return median(walls), out


def probe_cli(seed: int, workdir) -> dict:
    out = {}
    out["cli.interp_ms"], _ = _cold_ms(["-c", "pass"], workdir, 3)
    wall, printed = _cold_ms(
        ["-c", "import repro, sys; print(len(sys.modules))"], workdir, 2)
    out["cli.import_ms"] = wall - out["cli.interp_ms"]
    out["cli.modules_loaded"] = int(printed)
    cold = {}
    for key, argv in CliCold.COMMANDS:
        cold[key], _ = _cold_ms(["-m", "repro", *argv], workdir, 1)
        out[f"cli.{key}_ms"] = cold[key]
    # the same three stages in-process: what is left of a cold command
    # once the interpreter and the imports are taken away
    with repro.session(nprocs=4, cost_model="Paragon") as sess:
        adi = sess.workload("adi", size=64, iterations=4)
        pic = sess.workload("pic", size=64, steps=20)
        stage = (median_ms(adi.plan, 3) + median_ms(adi.run, 3)
                 + median_ms(pic.trace, 3))
    out["cli.stage_share"] = stage / (cold["plan"] + cold["run"] + cold["trace"])
    return out


# -- api, machine, sim, adapt (one pass over the library stages) -------------


def probe_api(seed: int, workdir) -> dict:
    out = {}
    out["api.session_open_ms"] = median_ms(
        lambda: repro.session(nprocs=4, cost_model="Paragon").close(), 20)
    with repro.session(nprocs=4, cost_model="Paragon", seed=seed) as sess:
        handles = stage_handles(sess)
        for name in LIB_WORKLOADS:
            h = handles[name]
            if h.plannable:
                out[f"api.plan_ms.{name}"] = median_ms(h.plan, 5)
            out[f"api.run_ms.{name}"] = median_ms(h.run, 5)
            out[f"api.trace_ms.{name}"] = median_ms(h.trace, 5)
            run, trace = h.run(), h.trace()
            out[f"machine.messages.{name}"] = run.messages
            out[f"machine.bytes.{name}"] = run.bytes
            out[f"machine.modeled_ms.{name}"] = run.time * 1e3
            out[f"sim.events.{name}"] = sum(trace.events.counts().values())
        trace = handles["adi"].trace()
        out["api.json_encode_ms"] = median_ms(
            lambda: json.dumps(trace.to_json(), indent=2), 5)
        out["api.json_bytes"] = len(json.dumps(trace.to_json(), indent=2))
        for name in ("pic", "irregular"):
            h = handles[f"adapt.{name}"]
            out[f"api.adapt_ms.{name}"] = median_ms(h.adapt, 5)
            adaptive, static = h.adapt().run, h.adapt(mode="static").run
            out[f"adapt.replans.{name}"] = len(adaptive.replans)
            # base = the static layout's modeled makespan, same config
            out[f"adapt.speedup_vs_static.{name}"] = (
                static.makespan / adaptive.makespan)
    return out


def probe_sim(seed: int, workdir) -> dict:
    from repro.sim.simulate import simulate

    with repro.session(nprocs=4, cost_model="Paragon", record_events=True,
                       seed=seed) as sess:
        log = sess.workload("adi", size=64, iterations=4).run().events
        model = sess.cost_model
    return {
        "sim.simulate_blocking_ms": median_ms(
            lambda: simulate(log, model, 4, overlap=False), 9),
        "sim.simulate_split_ms": median_ms(
            lambda: simulate(log, model, 4, overlap=True), 9),
    }


def probe_machine(seed: int, workdir) -> dict:
    from repro.machine.topology import ProcessorArray

    procs = ProcessorArray("P", (4, 4))
    section = procs.section(slice(0, 4, 2), slice(1, 4))
    coords = list(section.coords())
    calls = 2000

    def lookups():
        for i in range(calls):
            c = coords[i % len(coords)]
            procs.rank_of(section.coord_in_parent(c))

    # two public calls per iteration
    return {"machine.rank_lookup_us": median_ms(lookups, 5) * 1e3 / (2 * calls)}


# -- lang / compiler / planner ----------------------------------------------


def probe_compiler(seed: int, workdir) -> dict:
    from repro.compiler.optimize import optimize
    from repro.compiler.reaching import analyze
    from repro.lang.frontend import parse_program

    env = {"NX": 64, "NY": 64, "N": 64}
    program = parse_program(FIGURE1, env)
    portable = parse_program(PORTABLE, env)
    return {
        "lang.parse_ms": median_ms(lambda: parse_program(FIGURE1, env), 20),
        "compiler.analyze_ms": median_ms(lambda: analyze(program), 20),
        "compiler.optimize_ms": median_ms(lambda: optimize(portable), 20),
    }


def probe_planner(seed: int, workdir) -> dict:
    from repro.lang.frontend import parse_program
    from repro.planner.binding import plan_program

    out = {}
    with repro.session(nprocs=32, cost_model="Paragon") as sess:
        big = sess.workload("adi", size=96, iterations=4)
        out["planner.model_plan_ms"] = median_ms(big.plan, 5)
        out["planner.simulated_plan_ms"] = median_ms(
            lambda: big.plan(cost_mode="simulated"), 5)
    with repro.session(nprocs=4, cost_model="Paragon") as sess:
        program = parse_program(FIGURE1, {"NX": 64, "NY": 64})
        out["planner.plan_program_ms"] = median_ms(
            lambda: plan_program(program, sess.machine(), {"V": (64, 64)}), 9)
        plan = sess.workload("adi", size=64, iterations=4).plan().plan
        # base = the best single static layout's modeled cost
        out["planner.cost_vs_best_static"] = (
            plan.total_cost / plan.best_static[1])
    return out


# -- core / runtime / apps ---------------------------------------------------


def probe_core(seed: int, workdir) -> dict:
    from repro.core.interning import intern_distribution, rank_map_cached
    from repro.machine.topology import ProcessorArray

    section = ProcessorArray("P", (4,)).full_section()
    built = []

    def build_ring():
        shape = _fresh_shape()
        built.append([
            intern_distribution(dist_type(*spec).apply(shape, section))
            for spec in RING
        ])

    out = {"core.dist_build_ms": median_ms(build_ring, 5)}
    dists = iter([d for ring in built for d in ring])
    out["core.rank_map_cold_ms"] = median_ms(
        lambda: rank_map_cached(next(dists)), 8)
    return out


def probe_runtime(seed: int, workdir) -> dict:
    from repro.compiler.codegen import StencilKernel
    from repro.machine.topology import ProcessorArray
    from repro.runtime.batched import forall_batched
    from repro.runtime.redistribute import PlanCache, transfer_matrix

    out = {}
    section = ProcessorArray("P", (4,)).full_section()

    def cold_matrix():
        shape = _fresh_shape()
        transfer_matrix(dist_type(":", "BLOCK").apply(shape, section),
                        dist_type("CYCLIC", ":").apply(shape, section), 4)

    out["runtime.transfer_matrix_cold_ms"] = median_ms(cold_matrix, 5)

    # the ring of distribute_warm, edge by edge
    with repro.session(nprocs=4, cost_model="Paragon") as sess:
        vfe = sess.engine()
        V = vfe.declare("V", (1024, 1024), dist=dist_type(":", "BLOCK"),
                        dynamic=True)
        V.from_global(np.random.default_rng(seed).standard_normal((1024, 1024)))
        types = [dist_type(*spec) for spec in RING]
        edge_ms = [[] for _ in RING]
        moved = 0
        for lap in range(5):
            for j, ty in enumerate(types):
                t0 = now_ns()
                (report,) = vfe.distribute("V", ty)
                if lap:  # lap 0 fills the plan cache
                    edge_ms[j].append((now_ns() - t0) / 1e6)
                    moved += report.bytes
        for j, spec in enumerate(RING):
            name = "".join(spec).replace(":", "x").lower()
            out[f"runtime.distribute_exec_ms.{name}"] = median(edge_ms[j])
        # accounted bytes over wall: computed, not measured, bandwidth
        out["runtime.moved_mb_per_s"] = (
            moved / 1e6 / (sum(map(sum, edge_ms)) / 1e3))

    # batched forall, 128x128 on a 2x2 grid: a two-read shifted body
    with repro.session(nprocs=4, cost_model="iPSC/860") as sess:
        vfe = sess.engine(shape=(2, 2))
        n, hi = 128, 127
        a = vfe.declare("A", (n, n), dist=dist_type("BLOCK", "BLOCK"))
        b = vfe.declare("B", (n, n), dist=dist_type("BLOCK", "BLOCK"))
        b.from_global(np.random.default_rng(seed).standard_normal((n, n)))

        def body(cols, read):
            return read("B", (np.minimum(cols[0] + 1, hi), cols[1])) + 0.5 * read(
                "B", (cols[0], np.minimum(cols[1] + 1, hi)))

        out["runtime.forall_batched_ms"] = median_ms(
            lambda: forall_batched(a, body, reads={"B": b}), 5)

    # halo exchange, 192x192 on 4x4, 30 five-point steps, cached plans
    with repro.session(nprocs=16, cost_model="iPSC/860") as sess:
        vfe = sess.engine(shape=(4, 4))
        u = vfe.declare("U", (192, 192), dist=dist_type("BLOCK", "BLOCK"))
        u.from_global(np.random.default_rng(seed).standard_normal((192, 192)))

        def five_point(pad, res, widths):
            res[...] = 0.25 * (pad[:-2, 1:-1] + pad[2:, 1:-1]
                               + pad[1:-1, :-2] + pad[1:-1, 2:])

        kernel = StencilKernel(u, (1, 1), five_point, plan_cache=PlanCache())
        kernel.step()

        def steps():
            for _ in range(30):
                kernel.step()

        out["runtime.halo_exchange_ms"] = median_ms(steps, 1)
    return out


def probe_apps(seed: int, workdir) -> dict:
    from repro.apps.tridiag import thomas_const_batch

    rhs = np.random.default_rng(seed).standard_normal((64, 64))
    return {"apps.thomas_batch_ms": median_ms(
        lambda: thomas_const_batch(rhs, -1.0, 4.0), 50)}


# -- backend / faults --------------------------------------------------------


def probe_backend(seed: int, workdir) -> dict:
    out = {}
    with repro.session(nprocs=2, cost_model="Paragon", seed=seed) as serial:
        serial_adi = median_ms(
            serial.workload("adi", size=64, iterations=4).run, 5)
    t0 = now_ns()
    sess = repro.session(nprocs=2, cost_model="Paragon",
                         backend="multiprocess", seed=seed)
    try:
        adi = sess.workload("adi", size=64, iterations=4)
        adi.run()
        out["backend.first_run_ms"] = (now_ns() - t0) / 1e6
        out["backend.run_ms.adi"] = median_ms(adi.run, 5)
        out["backend.run_ms.smoothing"] = median_ms(
            sess.workload("smoothing", size=64, steps=10).run, 5)
        vfe = sess.engine()
        V = vfe.declare("V", (512, 512), dist=dist_type(":", "BLOCK"),
                        dynamic=True)
        V.from_global(np.random.default_rng(seed).standard_normal((512, 512)))
        rows, cols = dist_type("BLOCK", ":"), dist_type(":", "BLOCK")

        def pair():
            vfe.distribute("V", rows)
            vfe.distribute("V", cols)

        pair()
        out["backend.distribute_pair_ms"] = median_ms(pair, 7)
    finally:
        sess.close()
    # base = the serial backend on the same config (nprocs=2)
    out["backend.mp_over_serial"] = out["backend.run_ms.adi"] / serial_adi
    return out


def probe_faults(seed: int, workdir) -> dict:
    from repro.faults import FaultPlan, WorkerCrash, injected

    def run_once():
        with repro.session(nprocs=2, cost_model="Paragon",
                           backend="multiprocess", seed=seed) as sess:
            t0 = now_ns()
            result = sess.workload("adi", size=64, iterations=4).run()
            return (now_ns() - t0) / 1e6, result

    with repro.session(nprocs=2, cost_model="Paragon", seed=seed) as serial:
        reference = serial.workload("adi", size=64, iterations=4).run()
    clean = median([run_once()[0] for _ in range(3)])
    with injected(FaultPlan([WorkerCrash(rank=1, at_op=3)])):
        crashed_ms, crashed = run_once()
    return {
        "faults.recovery_ms": crashed_ms - clean,
        "faults.recovered_equal": float(
            crashed.backend == "multiprocess"
            and np.array_equal(crashed.solution, reference.solution)),
    }


# -- serve / obs -------------------------------------------------------------

_BUCKET = re.compile(
    r'^repro_http_request_seconds_bucket\{(?P<labels>[^}]*)\} (?P<n>\S+)$')


def _histogram_p50_ms(metrics_text: str, routes: tuple[str, ...]) -> float:
    """Median of ``repro_http_request_seconds`` over ``routes``, by
    linear interpolation inside the bucket that holds it."""
    cumulative: dict[float, float] = {}
    for line in metrics_text.splitlines():
        m = _BUCKET.match(line)
        if not m:
            continue
        labels = dict(kv.split("=", 1) for kv in m["labels"].split(","))
        if labels["route"].strip('"') not in routes:
            continue
        le = labels["le"].strip('"')
        bound = float("inf") if le == "+Inf" else float(le)
        cumulative[bound] = cumulative.get(bound, 0.0) + float(m["n"])
    bounds = sorted(cumulative)
    half = cumulative[bounds[-1]] / 2
    lower, below = 0.0, 0.0
    for bound in bounds:
        if cumulative[bound] >= half:
            if bound == float("inf"):
                return lower * 1e3
            inside = cumulative[bound] - below
            frac = (half - below) / inside if inside else 0.0
            return (lower + (bound - lower) * frac) * 1e3
        lower, below = bound, cumulative[bound]
    return lower * 1e3


def probe_serve(seed: int, workdir) -> dict:
    from repro.serve import PlanningService

    out = {}
    items = request_set()
    payloads = [(ep, json.dumps(dict(p, workload=w, seed=seed)))
                for ep, w, p in items]

    # in-process dispatch: the server's own cost, no socket.  The
    # service switches obs on, as a serving process does; put it back.
    was_enabled = repro.obs.enabled()
    service = PlanningService()
    try:
        for ep, body in payloads:
            service.dispatch("POST", "/" + ep, body)
        hit = []
        for _ in range(20):
            for ep, body in payloads:
                t0 = now_ns()
                service.dispatch("POST", "/" + ep, body)
                hit.append((now_ns() - t0) / 1e6)
        out["serve.dispatch_hit_ms"] = median(hit)
        fresh = itertools.count(seed + 1_000)
        for stage in ("plan", "run", "trace"):
            mine = [(w, p) for ep, w, p in items if ep == stage]
            miss = []
            for _ in range(3):
                for w, p in mine:
                    body = json.dumps(dict(p, workload=w, seed=next(fresh)))
                    t0 = now_ns()
                    service.dispatch("POST", "/" + stage, body)
                    miss.append((now_ns() - t0) / 1e6)
            out[f"serve.dispatch_miss_ms.{stage}"] = median(miss)
    finally:
        service.close()
        repro.obs.set_enabled(was_enabled)
        repro.obs.reset()

    # over HTTP, against a server child
    server = ServerChild(workdir)
    try:
        conn = server.connect()
        sizes = []
        for ep, w, p in items:
            status, cache, body = post(conn, ep, dict(p, workload=w, seed=seed))
            if status != 200:
                raise RuntimeError(f"/{ep} {w}: HTTP {status}")
            sizes.append(len(body))
        out["serve.response_bytes"] = median(sizes)
        hit = []
        for i in range(330):  # 30 laps of hits plus 1 miss in 4 overall
            ep, w, p = items[i % len(items)]
            t0 = now_ns()
            post(conn, ep, dict(p, workload=w, seed=seed))
            hit.append((now_ns() - t0) / 1e6)
        for i in range(110):
            ep, w, p = items[i % len(items)]
            post(conn, ep, dict(p, workload=w, seed=seed + 2_000 + i))
        conn.close()
        out["serve.http_hit_ms"] = median(hit)
        out["serve.http_overhead_ms"] = (
            out["serve.http_hit_ms"] - out["serve.dispatch_hit_ms"])

        def connect_and_ask():
            fresh_conn = server.connect()
            ep, w, p = items[0]
            post(fresh_conn, ep, dict(p, workload=w, seed=seed))
            fresh_conn.close()

        out["serve.connect_ms"] = median_ms(connect_and_ask, 20)
        conn = server.connect()
        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
        conn.request("GET", "/metrics")
        metrics_text = conn.getresponse().read().decode()
        conn.close()
        out["serve.hit_ratio"] = stats["response_cache"]["hit_rate"]
        out["serve.server_p50_ms"] = _histogram_p50_ms(
            metrics_text, ("/plan", "/run", "/trace"))
    finally:
        server.stop()
    return out


def probe_obs(seed: int, workdir) -> dict:
    stages = LibStages(seed, workdir)
    stages.warmups = 1
    stages.setup()
    null = NullRecorder()
    off, on = [], []
    try:
        for _ in range(4):  # alternate, so drift hits both sides alike
            off += timed_ms(lambda: stages.round(null), 1)
            repro.obs.enable()
            on += timed_ms(lambda: stages.round(null), 1)
            repro.obs.disable()
        spans = len(repro.obs.finished_spans()) / len(on)
    finally:
        repro.obs.disable()
        repro.obs.reset()
        stages.teardown()
    # base = the same round with obs disabled (the default)
    return {"obs.enabled_overhead_ratio": median(on) / median(off),
            "obs.spans_per_round": spans}


#: probe group -> the metric names it must produce (the contract's
#: per_layer list is generated from this table)
PROBES = {
    probe_cli: (
        "cli.interp_ms", "cli.import_ms", "cli.modules_loaded",
        "cli.help_ms", "cli.plan_ms", "cli.run_ms", "cli.trace_ms",
        "cli.stage_share",
    ),
    probe_api: (
        "api.session_open_ms",
        *(f"api.plan_ms.{w}" for w in ("adi", "pic", "smoothing")),
        *(f"api.run_ms.{w}" for w in LIB_WORKLOADS),
        *(f"api.trace_ms.{w}" for w in LIB_WORKLOADS),
        "api.adapt_ms.pic", "api.adapt_ms.irregular",
        "api.json_encode_ms", "api.json_bytes",
        *(f"machine.{k}.{w}" for w in LIB_WORKLOADS
          for k in ("messages", "bytes", "modeled_ms")),
        *(f"sim.events.{w}" for w in LIB_WORKLOADS),
        "adapt.replans.pic", "adapt.replans.irregular",
        "adapt.speedup_vs_static.pic", "adapt.speedup_vs_static.irregular",
    ),
    probe_sim: ("sim.simulate_blocking_ms", "sim.simulate_split_ms"),
    probe_machine: ("machine.rank_lookup_us",),
    probe_compiler: (
        "lang.parse_ms", "compiler.analyze_ms", "compiler.optimize_ms"),
    probe_planner: (
        "planner.model_plan_ms", "planner.simulated_plan_ms",
        "planner.plan_program_ms", "planner.cost_vs_best_static",
    ),
    probe_core: ("core.dist_build_ms", "core.rank_map_cold_ms"),
    probe_runtime: (
        "runtime.transfer_matrix_cold_ms",
        *(f"runtime.distribute_exec_ms.{e}"
          for e in ("blockx", "xcyclic", "cyclicx", "xblock")),
        "runtime.moved_mb_per_s", "runtime.forall_batched_ms",
        "runtime.halo_exchange_ms",
    ),
    probe_apps: ("apps.thomas_batch_ms",),
    probe_backend: (
        "backend.first_run_ms", "backend.run_ms.adi",
        "backend.run_ms.smoothing", "backend.distribute_pair_ms",
        "backend.mp_over_serial",
    ),
    probe_faults: ("faults.recovery_ms", "faults.recovered_equal"),
    probe_serve: (
        "serve.dispatch_hit_ms",
        *(f"serve.dispatch_miss_ms.{s}" for s in ("plan", "run", "trace")),
        "serve.http_hit_ms", "serve.http_overhead_ms", "serve.connect_ms",
        "serve.hit_ratio", "serve.server_p50_ms", "serve.response_bytes",
    ),
    probe_obs: ("obs.enabled_overhead_ratio", "obs.spans_per_round"),
}

#: probes that start processes or run full-size rounds — skipped (and
#: said so) under --smoke
NOT_IN_SMOKE = (probe_cli, probe_backend, probe_faults, probe_serve, probe_obs)


def run_probes(seed: int, workdir, smoke: bool = False
               ) -> tuple[dict, dict]:
    """Run every probe group; returns ``(metrics, not_measured)`` where
    ``not_measured`` maps each missing metric to the reason."""
    metrics: dict = {}
    not_measured: dict = {}
    for probe, names in PROBES.items():
        if smoke and probe in NOT_IN_SMOKE:
            reason = "skipped under --smoke (starts processes or runs full-size rounds)"
            not_measured.update({n: reason for n in names})
            continue
        gc.collect()
        try:
            got = probe(seed, workdir)
        except Exception as exc:  # report the hole; the run goes on
            reason = f"{probe.__name__} raised {type(exc).__name__}: {exc}"[:300]
            not_measured.update({n: reason for n in names})
            continue
        for n in names:
            if n in got:
                metrics[n] = got[n]
            else:
                not_measured[n] = f"{probe.__name__} did not report it"
        extra = set(got) - set(names)
        if extra:
            raise AssertionError(
                f"{probe.__name__} reported undeclared metrics {sorted(extra)}")
    return metrics, not_measured

