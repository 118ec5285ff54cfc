"""The six closed-loop workloads of the end-to-end benchmark.

Each workload drives the public surface only — ``repro.session`` and
its handles, ``Session.engine()``, ``python -m repro`` as a child
process, and HTTP against ``python -m repro serve`` — and checks what
comes back.  One *op* is the unit a user waits for; its definition is
in the class docstring and in README.md.

Life cycle: ``setup()`` builds the state, computes the expected
outputs from the library and warms up; ``measure()`` runs the closed
loop until the deadline; ``teardown()`` stops whatever ``setup``
started.  ``exact`` holds the seed-determined counts and digests
``expected.json`` pins.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro import dist_type
from repro.api.registry import REGISTRY
from repro.apps.adi import adi_reference
from repro.apps.smoothing import smoothing_reference
from repro.compiler.reaching import analyze
from repro.lang.frontend import parse_program
from repro.planner.binding import plan_program

from harness import (
    NullRecorder,
    Recorder,
    child_env,
    median,
    now_ns,
    run_child,
)

#: the redistribution ring of the two distribute workloads; an array
#: declared ``(:, BLOCK)`` walks it and is back where it started
RING = (("BLOCK", ":"), (":", "CYCLIC"), ("CYCLIC", ":"), (":", "BLOCK"))

FIGURE1 = """
      PROGRAM ADI
      REAL U(NX, NY) DIST (:, BLOCK)
      REAL F(NX, NY) DIST (:, BLOCK)
      REAL V(NX, NY) DYNAMIC, RANGE( (:, BLOCK), ( BLOCK, :)),
     &     DIST (:, BLOCK)
      CALL RESID( V, U, F, NX, NY)
C Sweep over x-lines
      DO J = 1, NY
        CALL TRIDIAG( V(:, J), NX)
      ENDDO
      DISTRIBUTE V :: ( BLOCK, : )
C Sweep over y-lines
      DO I = 1, NX
        CALL TRIDIAG( V(I, :), NY)
      ENDDO
      END
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_exact(result) -> dict:
    """The seed-determined facts of a RunResult."""
    return {
        "messages": int(result.messages),
        "bytes": int(result.bytes),
        "modeled_ms": result.time * 1e3,
        "solution_sha256": result.solution_digest(),
    }


@dataclass
class Measurement:
    """What one closed-loop phase observed."""

    #: per client, wall milliseconds of every op in order (whole laps)
    clients: list[list[float]] = field(default_factory=list)
    lap: int = 1
    #: op index -> first reason it failed
    failures: dict[int, str] = field(default_factory=dict)
    recorders: list[Recorder] = field(default_factory=list)
    #: workload-scoped counts taken at the layer boundary
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def op_ms(self) -> list[float]:
        return [ms for client in self.clients for ms in client]

    @property
    def attempted(self) -> int:
        return sum(map(len, self.clients))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def windows(self, k: int = 5) -> list[tuple[float, float]]:
        """``(median op ms, ops per second)`` of up to ``k`` consecutive
        windows of whole laps.  A client is a closed loop, so its rate
        over a window is ops ÷ the sum of their times; clients add."""
        k = max(1, min(k, min(len(c) for c in self.clients) // self.lap))
        out = []
        for w in range(k):
            ops, rate = [], 0.0
            for client in self.clients:
                laps = len(client) // self.lap
                part = client[w * laps // k * self.lap:
                              (w + 1) * laps // k * self.lap]
                ops += part
                rate += len(part) / (sum(part) / 1e3)
            out.append((median(ops), rate))
        return out


class Workload:
    """Base: a single-client closed loop over ``op``/``check``."""

    name = ""
    #: ops between deadline checks (a lap keeps the op mix fixed)
    lap = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = int(seed)
        self.workdir = workdir
        self.smoke = smoke
        self.exact: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def op(self, i: int, rec) -> None:
        """One timed op; raises on failure."""
        raise NotImplementedError

    def check(self, i: int) -> None:
        """Untimed verification of op ``i``; raises on mismatch."""

    def counts(self) -> dict[str, float]:
        """Cumulative layer-boundary counters (deltas are reported)."""
        return {}

    def measure(self, seconds: float, trace: bool, max_ops: int | None = None
                ) -> Measurement:
        rec = Recorder() if trace else NullRecorder()
        m = Measurement(clients=[[]], lap=self.lap,
                        recorders=[rec] if trace else [])
        before = self.counts()
        self._loop(rec, seconds, max_ops, m, m.clients[0], self.op, self.check)
        after = self.counts()
        m.counts = {k: after[k] - before.get(k, 0) for k in after}
        return m

    def _loop(self, rec, seconds, max_ops, m: Measurement, op_ms: list, op,
              check, base: int = 0) -> None:
        deadline = now_ns() + int(seconds * 1e9)
        i = 0
        while True:
            for _ in range(self.lap):
                error = None
                t0 = now_ns()
                try:
                    with rec.span("op"):
                        op(i, rec)
                except Exception as exc:  # a failed op, counted and reported
                    error = exc
                op_ms.append((now_ns() - t0) / 1e6)
                if error is None:
                    try:
                        check(i)
                    except Exception as exc:
                        error = exc
                if error is not None:
                    m.failures.setdefault(
                        base + i, f"{type(error).__name__}: {error}"[:300])
                rec.next_op()
                i += 1
            if (max_ops is not None and i >= max_ops) or now_ns() >= deadline:
                return


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


# -- cli_cold ----------------------------------------------------------------

#: what a traced CLI child runs in place of ``-m repro``: the same
#: entry point with wall-clock stamps around import and the stage
_STAMPED_CHILD = """\
import sys, time
t0 = time.time_ns()
import repro
from repro.__main__ import main
t1 = time.time_ns()
code = 0
try:
    main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code or 0
sys.stdout.flush()
t2 = time.time_ns()
sys.stderr.write("\\n@stamps %d %d %d\\n" % (t0, t1, t2))
sys.exit(code)
"""


class CliCold(Workload):
    """op = one cold ``python -m repro ...`` child, spawn to exit 0,
    stdout compared byte for byte with the library's output."""

    name = "cli_cold"
    lap = 4

    COMMANDS = (
        ("help", ["--help"]),
        ("plan", ["plan", "adi", "--size", "64", "--json"]),
        ("run", ["run", "adi", "--size", "64", "--iterations", "4", "--json"]),
        ("trace", ["trace", "pic", "--size", "64", "--steps", "20", "--json",
                   "--compact"]),
    )

    def library_outputs(self) -> dict[str, bytes]:
        """What each command must print, computed through the library."""
        from repro.__main__ import build_parser

        out = {"help": build_parser().format_help()}
        with repro.session(nprocs=4, cost_model="Paragon") as sess:
            out["plan"] = sess.workload(
                "adi", size=64, iterations=4).plan().json_str() + "\n"
            trace = sess.workload("pic", size=64, steps=20).trace()
            out["trace"] = json.dumps(
                trace.to_json(intervals=False), indent=2) + "\n"
        with repro.session(nprocs=4, cost_model="Paragon",
                           backend="serial") as sess:
            run = sess.workload("adi", size=64, iterations=4).run()
            out["run"] = json.dumps(
                {**run.to_json(), "verified_against_serial": None},
                indent=2) + "\n"
        return {k: v.encode() for k, v in out.items()}

    def setup(self) -> None:
        self.expected = self.library_outputs()
        self.exact = {f"stdout_sha256.{k}": sha256(v)
                      for k, v in self.expected.items()}
        # the seed rotates the order of a lap, nothing else: the CLI's
        # plan/run/trace take no seed
        order = list(self.COMMANDS)
        random.Random(self.seed).shuffle(order)
        self.order = order[:2] if self.smoke else order
        self.lap = len(self.order)
        if not self.smoke:
            self.op(0, NullRecorder())  # warm the page cache and .pyc files

    def op(self, i: int, rec) -> None:
        key, argv = self.order[i % len(self.order)]
        if rec.tracing:
            head = ["-c", _STAMPED_CHILD]
            # the child stamps with time_ns; shift into our clock
            shift = now_ns() - time.time_ns()
        else:
            head = ["-m", "repro"]
        t_spawn = now_ns()
        code, stdout, stderr = run_child([*head, *argv], self.workdir)
        t_exit = now_ns()
        _expect(code == 0, f"{key}: exit {code}: {stderr[-200:]!r}")
        _expect(stdout == self.expected[key],
                f"{key}: stdout differs from the library's bytes")
        if rec.tracing:
            stamps = stderr.rsplit(b"@stamps", 1)[1].split()
            t0, t1, t2 = (int(s) + shift for s in stamps)
            rec.add("interp.start", t_spawn, t0)
            rec.add("import.repro", t0, t1)
            rec.add(f"cli.{key}", t1, t2)
            rec.add("interp.exit", t2, t_exit)


# -- lib_stages --------------------------------------------------------------


def stage_handles(sess, s: int = 64) -> dict:
    """The handles of a lib_stages round (and of the api probes)."""
    return {
        "adi": sess.workload("adi", size=s, iterations=4),
        "pic": sess.workload("pic", size=s, steps=50),
        "smoothing": sess.workload("smoothing", size=2 * s, steps=10),
        "irregular": sess.workload("irregular", size=s, steps=10),
        "adapt.pic": sess.workload("pic", size=s, steps=50, drift=0.5),
        "adapt.irregular": sess.workload(
            "irregular", size=s, steps=10, drift=0.5),
    }


class LibStages(Workload):
    """op = one round of every library stage on one warm serial
    session: plan/run/trace for the four registered workloads, adapt on
    the two with a driver, and Figure 1 from source text to a plan."""

    name = "lib_stages"
    #: untimed rounds after the expected-output round
    warmups = 3

    def setup(self) -> None:
        self.sess = repro.session(
            nprocs=4, cost_model="Paragon", seed=self.seed)
        self.handles = stage_handles(self.sess, 16 if self.smoke else 64)
        self.fig_env = {"NX": 64, "NY": 64}
        self.round(NullRecorder())
        self.first = self.digest()
        self.exact = self.first
        self._check_references()
        for _ in range(0 if self.smoke else self.warmups):
            self.round(NullRecorder())

    def teardown(self) -> None:
        self.sess.close()

    def round(self, rec) -> None:
        out = {}
        h = self.handles
        for name in ("adi", "pic", "smoothing", "irregular"):
            if h[name].plannable:
                with rec.span(f"api.plan.{name}"):
                    out[f"plan.{name}"] = h[name].plan()
            with rec.span(f"api.run.{name}"):
                out[f"run.{name}"] = h[name].run()
            with rec.span(f"api.trace.{name}"):
                out[f"trace.{name}"] = h[name].trace()
        for name in ("pic", "irregular"):
            with rec.span(f"api.adapt.{name}"):
                out[f"adapt.{name}"] = h[f"adapt.{name}"].adapt()
        with rec.span("lang.parse_program"):
            program = parse_program(FIGURE1, self.fig_env)
        with rec.span("compiler.analyze"):
            out["analysis"] = analyze(program)
        with rec.span("planner.plan_program"):
            out["figure1"] = plan_program(
                program, self.sess.machine(), {"V": (64, 64)})
        self.last = out

    def op(self, i: int, rec) -> None:
        self.round(rec)

    def digest(self) -> dict:
        """The seed-determined facts of the last round."""
        out = self.last
        d: dict = {}
        for name in ("adi", "pic", "smoothing", "irregular"):
            for k, v in run_exact(out[f"run.{name}"]).items():
                d[f"{name}.{k}"] = v
            trace = out[f"trace.{name}"]
            d[f"{name}.events"] = sum(trace.events.counts().values())
            d[f"{name}.matches_aggregate"] = bool(trace.matches_aggregate)
            if f"plan.{name}" in out:
                d[f"{name}.plan_cost"] = out[f"plan.{name}"].total_cost
        for name in ("pic", "irregular"):
            run = out[f"adapt.{name}"].run
            d[f"adapt.{name}.replans"] = len(run.replans)
            d[f"adapt.{name}.makespan_ms"] = run.makespan * 1e3
        d["figure1.plan_cost"] = out["figure1"]["V"].total_cost
        return d

    def _check_references(self) -> None:
        adi = self.last["run.adi"]
        n = adi.solution.shape[0]
        grid = np.random.default_rng(self.seed).standard_normal((n, n))
        _expect(np.allclose(adi.solution, adi_reference(grid, 4, -1.0, 4.0),
                            rtol=0, atol=1e-10),
                "adi solution differs from adi_reference")
        sm = self.last["run.smoothing"]
        n = sm.solution.shape[0]
        grid = np.random.default_rng(self.seed).standard_normal((n, n))
        _expect(np.allclose(sm.solution, smoothing_reference(grid, 10),
                            rtol=0, atol=1e-10),
                "smoothing solution differs from smoothing_reference")

    def check(self, i: int) -> None:
        got = self.digest()
        _expect(got == self.first, "round differs from the first round: "
                + ", ".join(k for k in got if got[k] != self.first[k]))

    def counts(self) -> dict[str, float]:
        return plan_cache_counts(self.sess.plan_cache)


def plan_cache_counts(cache) -> dict[str, float]:
    s = cache.stats()
    return {
        "plan_cache_hits": s["hits"],
        "plan_cache_lookups": s["hits"] + s["misses"],
        "owner_cache_hits": s["owners_vec_hits"] + s["rank_map_hits"],
        "owner_cache_lookups": (
            s["owners_vec_hits"] + s["owners_vec_misses"]
            + s["rank_map_hits"] + s["rank_map_misses"]),
    }


# -- distribute_warm / distribute_cold --------------------------------------


def _report_exact(report) -> tuple[int, int]:
    return int(report.messages), int(report.bytes)


class DistributeWarm(Workload):
    """op = one ``vfe.distribute("V", L)`` on a resident DYNAMIC array,
    stepping round the ring; every plan is a PlanCache hit."""

    name = "distribute_warm"
    lap = 4

    def setup(self) -> None:
        n = 256 if self.smoke else 1024
        self.sess = repro.session(nprocs=4, cost_model="Paragon")
        self.vfe = self.sess.engine()
        self.original = np.random.default_rng(self.seed).standard_normal((n, n))
        self.V = self.vfe.declare(
            "V", (n, n), dist=dist_type(":", "BLOCK"), dynamic=True)
        self.V.from_global(self.original)
        self.types = [dist_type(*spec) for spec in RING]
        self.edges = []
        for ty in self.types:  # the warm-up lap; also the expected reports
            (report,) = self.vfe.distribute("V", ty)
            self.edges.append(_report_exact(report))
        self._check_lap()
        self.bytes_per_op = sum(b for _, b in self.edges) / len(self.edges)
        self.exact = {
            "edge_messages": [m for m, _ in self.edges],
            "edge_bytes": [b for _, b in self.edges],
            "array_sha256": sha256(self.original.tobytes()),
        }

    def teardown(self) -> None:
        self.sess.close()

    def _check_lap(self) -> None:
        _expect(np.array_equal(self.V.to_global(), self.original),
                "V.to_global() differs from the original after a ring lap")

    def op(self, i: int, rec) -> None:
        with rec.span(f"runtime.distribute.{i % 4}"):
            (self.report,) = self.vfe.distribute("V", self.types[i % 4])

    def check(self, i: int) -> None:
        _expect(_report_exact(self.report) == self.edges[i % 4],
                "redistribution report differs from the warm-up lap's")
        if i % 4 == 3:
            self._check_lap()
        # reports accumulate on the engine; keep memory flat
        self.vfe.reports.clear()

    def counts(self) -> dict[str, float]:
        return plan_cache_counts(self.sess.plan_cache)


#: never-before-seen shapes for distribute_cold, process-wide so that
#: repeated set-ups do not replay a shape a previous one planned
_fresh_shape = itertools.count()


class DistributeCold(Workload):
    """op = fresh session, declare and fill an array of a shape this
    process has never planned, one lap of the ring: every transfer
    matrix, interned distribution and owner map is a miss."""

    name = "distribute_cold"
    lap = 8

    def setup(self) -> None:
        self.lap = 1 if self.smoke else 8
        self.base = 192 if self.smoke else 768
        self.pool = np.random.default_rng(self.seed).standard_normal(
            (self.base + 48, self.base + 1))
        self.caches = {"plan_cache_hits": 0, "plan_cache_lookups": 0,
                       "owner_cache_hits": 0, "owner_cache_lookups": 0}
        # the expected-output op: a seed-determined shape outside the
        # family the timed ops draw from, so expected.json can pin it
        pinned = self.base + 40 + self.seed % 8, self.base + 1
        self.pending = pinned, np.ascontiguousarray(self.pool[:pinned[0]])
        self.op(0, NullRecorder())
        self.check(0)
        edges = self.result[1]
        self.exact = {
            "pinned_shape": list(pinned),
            "edge_messages": [m for m, _ in edges],
            "edge_bytes": [b for _, b in edges],
        }

    def _next_shape(self) -> tuple[int, int]:
        # (base + k % 8, base - k // 8): all distinct.  Op time depends
        # on the row extent modulo the processor count, so a lap is one
        # cycle of 8 and every window holds the same mix of shapes; the
        # column extent shrinks by one per lap (under 4% over a run).
        k = next(_fresh_shape) + 8 * (self.seed % 4)
        return self.base + k % 8, self.base - k // 8

    def _prepare(self) -> None:
        """Generate the next op's input (untimed)."""
        shape = self._next_shape()
        self.pending = shape, np.ascontiguousarray(
            self.pool[:shape[0], :shape[1]])

    def op(self, i: int, rec) -> None:
        shape, data = self.pending
        with rec.span("api.session_open"):
            sess = repro.session(nprocs=4, cost_model="Paragon")
            vfe = sess.engine()
        try:
            with rec.span("runtime.declare"):
                V = vfe.declare(
                    "V", shape, dist=dist_type(":", "BLOCK"), dynamic=True)
                V.from_global(data)
            edges = []
            for j, spec in enumerate(RING):
                with rec.span("core.dist_type"):
                    ty = dist_type(*spec)
                with rec.span(f"runtime.distribute.{j}"):
                    (report,) = vfe.distribute("V", ty)
                edges.append(_report_exact(report))
            self.result = V, edges, plan_cache_counts(sess.plan_cache)
        finally:
            with rec.span("api.session_close"):
                sess.close()

    def check(self, i: int) -> None:
        (shape, data), (V, edges, stats) = self.pending, self.result
        self._prepare()
        _expect(np.array_equal(V.to_global(), data),
                "V.to_global() differs from the original after the lap")
        # owner caches are process-wide: report the growth over the op
        for k in ("plan_cache_hits", "plan_cache_lookups"):
            self.caches[k] += stats[k]
        for k in ("owner_cache_hits", "owner_cache_lookups"):
            self.caches[k] = stats[k]
        _expect(stats["plan_cache_hits"] == 0 and
                stats["plan_cache_lookups"] == len(RING),
                f"expected {len(RING)} plan-cache misses, saw {stats}")

    def counts(self) -> dict[str, float]:
        return dict(self.caches)


# -- mp_backend --------------------------------------------------------------


class MpBackend(Workload):
    """op = one round on one ``backend="multiprocess"`` session with as
    many workers as cores: ADI run, smoothing run, and a distribute
    pair on the session's engine."""

    name = "mp_backend"
    NPROCS = 2

    def setup(self) -> None:
        size = 16 if self.smoke else 64
        n = 128 if self.smoke else 512
        params = {"adi": dict(size=size, iterations=4),
                  "smoothing": dict(size=size, steps=10)}
        with repro.session(nprocs=self.NPROCS, cost_model="Paragon",
                           seed=self.seed) as serial:
            self.serial = {k: serial.workload(k, **p).run()
                           for k, p in params.items()}
        self.sess = repro.session(
            nprocs=self.NPROCS, cost_model="Paragon",
            backend="multiprocess", seed=self.seed)
        self.handles = {k: self.sess.workload(k, **p)
                        for k, p in params.items()}
        self.vfe = self.sess.engine()
        self.original = np.random.default_rng(self.seed).standard_normal((n, n))
        self.V = self.vfe.declare(
            "V", (n, n), dist=dist_type(":", "BLOCK"), dynamic=True)
        self.V.from_global(self.original)
        self.rows, self.cols = dist_type("BLOCK", ":"), dist_type(":", "BLOCK")
        self.op(0, NullRecorder())
        self.pair = [_report_exact(r) for r in self.reports]
        self.check(0)
        self.exact = {f"{k}.{f}": v for k, r in self.serial.items()
                      for f, v in run_exact(r).items()}
        self.exact["pair_messages"] = [m for m, _ in self.pair]
        self.exact["pair_bytes"] = [b for _, b in self.pair]
        for _ in range(0 if self.smoke else 2):
            self.op(0, NullRecorder())

    def teardown(self) -> None:
        self.sess.close()

    def op(self, i: int, rec) -> None:
        self.runs = {}
        for name, handle in self.handles.items():
            with rec.span(f"backend.run.{name}"):
                self.runs[name] = handle.run()
        with rec.span("backend.distribute.rows"):
            (a,) = self.vfe.distribute("V", self.rows)
        with rec.span("backend.distribute.cols"):
            (b,) = self.vfe.distribute("V", self.cols)
        self.reports = (a, b)

    def check(self, i: int) -> None:
        for name, run in self.runs.items():
            ref = self.serial[name]
            _expect(run.backend == "multiprocess", "run did not use workers")
            _expect(np.array_equal(run.solution, ref.solution),
                    f"{name}: multiprocess solution differs from serial")
            _expect((run.messages, run.bytes, run.time)
                    == (ref.messages, ref.bytes, ref.time),
                    f"{name}: accounting differs from serial")
        _expect([_report_exact(r) for r in self.reports] == self.pair,
                "distribute pair reports differ from the first round's")
        _expect(np.array_equal(self.V.to_global(), self.original),
                "V.to_global() differs from the original after the pair")
        self.vfe.reports.clear()

    def counts(self) -> dict[str, float]:
        return plan_cache_counts(self.sess.plan_cache)


# -- serve_mix ---------------------------------------------------------------


def request_set() -> list[tuple[str, str, dict]]:
    """(endpoint, workload, params) for every registered workload ×
    stage at the load test's smoke sizes: 11 pairs on this registry."""
    items = []
    for name in REGISTRY.names():
        spec = REGISTRY.get(name)
        params: dict = {}
        if "size" in spec.defaults:
            params["size"] = 12
        if "iterations" in spec.defaults:
            params["iterations"] = 1
        if "steps" in spec.defaults:
            params["steps"] = 2
        if spec.plannable:
            items.append(("plan", name, params))
        items.append(("run", name, params))
        items.append(("trace", name, dict(params, compact=True)))
    return items


def library_body(sess, endpoint: str, workload: str, params: dict,
                 seed: int) -> bytes:
    """The bytes the service must answer with, through the library."""
    params = dict(params)
    compact = params.pop("compact", False)
    handle = sess.workload(workload, seed=seed, **params)
    if endpoint == "plan":
        return handle.plan().json_str().encode()
    if endpoint == "run":
        return handle.run().json_str().encode()
    return json.dumps(
        handle.trace().to_json(intervals=not compact), indent=2).encode()


class ServerChild:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self, workdir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=workdir, env=child_env(workdir), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            line = self.proc.stdout.readline().decode()
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            host, port = line.rsplit("http://", 1)[1].strip().split(":")
            self.host, self.port = host, int(port)
        except BaseException:
            self.stop()
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def post(conn, endpoint: str, payload: dict, rec=NullRecorder()):
    """One keep-alive POST; returns ``(status, cache header, body)``."""
    body = json.dumps(payload)
    with rec.span("serve.send"):
        conn.request("POST", "/" + endpoint, body=body,
                     headers={"Content-Type": "application/json"})
    with rec.span("serve.wait"):
        resp = conn.getresponse()
    with rec.span("serve.read"):
        data = resp.read()
    return resp.status, resp.getheader("X-Repro-Cache"), data


class ServeMix(Workload):
    """op = one HTTP request on a keep-alive connection to a serve
    child; two clients, exactly one request in four a cache miss."""

    name = "serve_mix"
    lap = 4
    CLIENTS = 2
    #: misses whose bodies are recomputed through the library afterwards
    VERIFY_EVERY = 10

    def setup(self) -> None:
        self.items = request_set()
        random.Random(self.seed).shuffle(self.items)
        self.lib = repro.session(nprocs=4, cost_model="Paragon")
        self.hot = [library_body(self.lib, ep, w, p, self.seed)
                    for ep, w, p in self.items]
        self.exact = {f"body_sha256.{ep}.{w}": sha256(body)
                      for (ep, w, _), body in zip(self.items, self.hot)}
        self.server = ServerChild(self.workdir)
        try:
            conn = self.server.connect()
            for (ep, w, p), want in zip(self.items, self.hot):
                status, cache, body = post(conn, ep, self._payload(w, p, self.seed))
                _expect(status == 200 and cache == "miss" and body == want,
                        f"prewarm /{ep} {w}: {status} {cache}")
            conn.close()
        except BaseException:
            self.teardown()
            raise
        self.generation = 0

    def teardown(self) -> None:
        self.server.stop()
        self.lib.close()

    @staticmethod
    def _payload(workload: str, params: dict, seed: int) -> dict:
        return dict(params, workload=workload, seed=seed)

    def _client(self, c: int, rec, seconds, max_ops, m: Measurement) -> None:
        items, hot, n = self.items, self.hot, len(self.items)
        # fresh seeds never collide with the hot seed, another client,
        # or an earlier measure() against this server
        fresh = ((self.seed + 1) * 10_000_000
                 + (self.generation * self.CLIENTS + c) * 1_000_000)
        conn = self.server.connect()
        sampled = []
        tally = self._tally[c] = {"hit": 0, "miss": 0}

        def op(i, rec):
            k = (i + c * 5) % n if i % 4 != 3 else (i // 4 + c * 5) % n
            ep, w, p = items[k]
            miss = i % 4 == 3
            seed = fresh + i if miss else self.seed
            status, cache, body = post(conn, ep, self._payload(w, p, seed), rec)
            _expect(status == 200, f"/{ep} {w}: HTTP {status}")
            tally[cache] = tally.get(cache, 0) + 1
            _expect(cache == ("miss" if miss else "hit"),
                    f"/{ep} {w}: X-Repro-Cache {cache}, scheduled "
                    f"{'miss' if miss else 'hit'}")
            if miss:
                if (i // 4) % self.VERIFY_EVERY == 0:
                    sampled.append((i, k, seed, body))
            else:
                _expect(body == hot[k], f"/{ep} {w}: hit body differs")

        try:
            self._loop(rec, seconds, max_ops, m, m.clients[c], op,
                       lambda i: None, base=c * 10_000_000)
        finally:
            conn.close()
        self._sampled[c] = sampled

    def measure(self, seconds: float, trace: bool, max_ops: int | None = None
                ) -> Measurement:
        recs = [Recorder(tid=c) if trace else NullRecorder()
                for c in range(self.CLIENTS)]
        m = Measurement(clients=[[] for _ in range(self.CLIENTS)],
                        lap=self.lap, recorders=recs if trace else [])
        self._sampled, self._tally = {}, {}
        per_client = None if max_ops is None else max(4, max_ops // self.CLIENTS)
        threads = [
            threading.Thread(
                target=self._client, args=(c, recs[c], seconds, per_client, m))
            for c in range(self.CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.generation += 1
        checked = 0
        for c, sampled in self._sampled.items():
            for i, k, seed, body in sampled:
                ep, w, p = self.items[k]
                checked += 1
                if body != library_body(self.lib, ep, w, p, seed):
                    m.failures.setdefault(
                        c * 10_000_000 + i,
                        f"/{ep} {w} seed {seed}: miss body differs from "
                        f"the library's")
        m.counts = {
            "miss_bodies_verified": checked,
            "cache_hits": sum(t["hit"] for t in self._tally.values()),
            "cache_misses": sum(t["miss"] for t in self._tally.values()),
        }
        return m


WORKLOADS = {
    w.name: w for w in
    (CliCold, LibStages, DistributeWarm, DistributeCold, MpBackend, ServeMix)
}
