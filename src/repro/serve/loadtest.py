"""Load-test harness: N concurrent clients × registered workloads.

The acceptance story of the service tier, executed: spin the asyncio
server up in-process (or point ``url=`` at a running one), hammer it
from ``clients`` concurrent threads, and verify the three properties
the serving design claims —

1. **zero failed requests** under concurrency;
2. **reproducibility**: identical requests (same workload, params,
   seed) get byte-identical JSON bodies, across clients and phases;
3. **cross-session caching**: the repeated-config phase's hit rate on
   the shared response cache exceeds 50% (each distinct config is
   computed once, every other request replays bytes).

Two phases drive those properties:

- ``unique`` — every request carries a fresh seed, so every response
  is computed: the cold-path latency floor;
- ``repeated`` — all clients replay one fixed config set ``rounds``
  times: everything after the first computation of each config is a
  cache hit (the millions-of-users steady state in miniature).

Latency p50/p99/mean per phase, cache behaviour (from the
``X-Repro-Cache`` response headers *and* the server's ``/stats``), and
the byte-identity verdict land in ``BENCH_SERVE.json`` next to
``BENCH_PERF.json``; the properties are the ``serve`` gates of
:data:`repro.obs.compare.FAMILIES`, a CI gate under ``check=True``.  Run
via ``python -m repro serve --loadtest`` or ``benchmarks/bench_serve.py``.

**Chaos mode** (``chaos=True`` / ``--chaos``) reruns the same phases
with a seeded :class:`~repro.faults.FaultPlan` active — injected
request delays, 500s, and dropped connections at the HTTP layer —
then drives a *recovery* phase: multiprocess ``/run`` requests under
a worker-crash + transport-delay plan, whose ``solution_sha256`` must
match a serial run of the same config bit for bit (the fleet restarts
mid-op and replays from the last barrier).  The report lands in
``BENCH_CHAOS.json`` and the gates are the ``chaos`` row's robustness
properties: zero byte-identity violations, every 5xx carrying an
``X-Repro-Incident-Id``, no 4xx, and the recovered runs
bitwise-identical with at least one fleet restart observed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from urllib.parse import urlsplit

import numpy as np

from ..api.registry import REGISTRY, WorkloadRegistry
from ..defaults import DEFAULT_SEED

__all__ = ["run_loadtest"]


@dataclass
class _Observation:
    """One request as the client saw it."""

    key: str          # canonical request descriptor (identity group)
    phase: str
    status: int
    seconds: float
    cache: str        # X-Repro-Cache header: hit | miss | bypass
    digest: str       # sha256 of the body bytes
    error: str | None = None
    incident: str | None = None  # X-Repro-Incident-Id header, if any


#: series the /metrics scrape must contain at least one sample of for
#: the ``check`` gate to pass (satellite of the observability spine)
REQUIRED_SERIES = (
    "repro_http_requests_total",
    "repro_http_request_seconds_bucket",
    "repro_plan_cache_lookups_total",
    "repro_response_cache_lookups_total",
    "repro_planner_candidates_total",
    "repro_planner_plans_total",
    "repro_session_stages_total",
)


def _connect(base_url: str, timeout: float) -> http.client.HTTPConnection:
    """A keep-alive connection (http.client reopens it once closed)."""
    return http.client.HTTPConnection(urlsplit(base_url).netloc, timeout=timeout)


def _request(conn, method: str, path: str,
             payload: dict | None = None) -> tuple[int, dict, bytes]:
    """``(status, headers, body)``; a failure (a ``drop``) closes ``conn``."""
    body = None if payload is None else json.dumps(payload).encode()
    try:
        conn.request(method, path, body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, dict(resp.headers), resp.read()
    except Exception:
        conn.close()
        raise


def _scrape_metrics(conn: http.client.HTTPConnection) -> dict:
    """GET /metrics and summarize which required series have samples."""
    try:
        status, _, body = _request(conn, "GET", "/metrics")
        error = None if status == 200 else f"HTTP {status}"
    except Exception as exc:
        error = str(exc)
    if error:
        return {"scraped": False, "error": error, "text": None,
                "missing_series": list(REQUIRED_SERIES)}
    text = body.decode()
    # a series "exists" when a sample line starts with its name (HELP /
    # TYPE comments alone mean the metric is registered but empty)
    sampled = {
        line.split("{", 1)[0].split(" ", 1)[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    missing = [s for s in REQUIRED_SERIES if s not in sampled]
    return {
        "scraped": True,
        "error": None,
        "text": text,
        "series_sampled": len(sampled),
        "missing_series": missing,
    }


def _request_set(
    registry: WorkloadRegistry, workloads: list[str] | None, smoke: bool
) -> list[tuple[str, str, dict]]:
    """(endpoint, workload, params) for every workload × stage.

    Sizes are deliberately small — the harness measures the *service*
    (dispatch, pooling, caching, concurrency), not the workloads.
    """
    knobs = (
        {"size": 12, "iterations": 1, "steps": 2} if smoke
        else {"size": 24, "iterations": 2, "steps": 4}
    )
    items: list[tuple[str, str, dict]] = []
    for name in workloads or registry.names():
        spec = registry.get(name)
        params = spec.accepted(knobs)
        if spec.plannable:
            items.append(("plan", name, params))
        items.append(("run", name, params))
        items.append(("trace", name, dict(params, compact=True)))
    return items


#: how the percentiles below are computed (recorded in BENCH_SERVE.json)
LATENCY_METHOD = "linear_interpolation"


def _percentiles(seconds: list[float]) -> dict:
    if not seconds:
        return {"p50_ms": None, "p99_ms": None, "mean_ms": None,
                "max_ms": None, "method": LATENCY_METHOD}
    # numpy's default ``linear`` method: rank = q * (n - 1), linearly
    # interpolated between the bracketing order statistics (the cut
    # points of ``statistics.quantiles(..., method="inclusive")``)
    ms = np.asarray(seconds, dtype=float) * 1e3
    p50, p99 = np.quantile(ms, (0.50, 0.99))
    return {
        "p50_ms": float(p50),
        "p99_ms": float(p99),
        "mean_ms": float(ms.mean()),
        "max_ms": float(ms.max()),
        "method": LATENCY_METHOD,
    }


def _run_phase(
    base_url: str,
    phase: str,
    per_client: list[list[tuple[str, dict]]],
    timeout: float,
) -> list[_Observation]:
    """Each client thread walks its own request list sequentially; all
    clients run concurrently."""

    def client(requests: list[tuple[str, dict]]) -> list[_Observation]:
        out: list[_Observation] = []
        conn = _connect(base_url, timeout)
        for endpoint, payload in requests:
            key = json.dumps({"endpoint": endpoint, **payload}, sort_keys=True)
            t0 = time.perf_counter()
            try:
                status, headers, body = _request(
                    conn, "POST", f"/{endpoint}", payload
                )
                out.append(_Observation(
                    key=key, phase=phase, status=status,
                    seconds=time.perf_counter() - t0,
                    cache=headers.get("X-Repro-Cache", "unknown"),
                    digest=hashlib.sha256(body).hexdigest(),
                    error=None if status == 200 else body.decode(errors="replace")[:200],
                    incident=headers.get("X-Repro-Incident-Id"),
                ))
            except Exception as exc:
                out.append(_Observation(
                    key=key, phase=phase, status=0,
                    seconds=time.perf_counter() - t0,
                    cache="error", digest="", error=str(exc),
                ))
        conn.close()
        return out

    with ThreadPoolExecutor(max_workers=len(per_client)) as pool:
        results = list(pool.map(client, per_client))
    return [obs for client_obs in results for obs in client_obs]


def _phase_report(name: str, observations: list[_Observation]) -> dict:
    mine = [o for o in observations if o.phase == name]
    failures = [o for o in mine if o.status != 200]
    hits = sum(1 for o in mine if o.cache == "hit")
    lookups = sum(1 for o in mine if o.cache in ("hit", "miss"))
    return {
        "name": name,
        "requests": len(mine),
        "failures": len(failures),
        "failure_samples": [o.error for o in failures[:3]],
        "cache_hits": hits,
        "cache_lookups": lookups,
        "cache_hit_rate": (hits / lookups) if lookups else None,
        "latency": _percentiles([o.seconds for o in mine]),
    }


def _recovery_plan(seed: int, nprocs: int = 4):
    """The fault plan for the recovery phase: one worker crash early
    enough that *every* multiprocess run hits it (op seq 3 is reached
    by any run that redistributes), plus transport delays on two links
    so recovery is exercised under perturbed message timing."""
    import random

    from ..faults import FaultPlan, TransportDelay, WorkerCrash

    rng = random.Random(int(seed))
    return FaultPlan(
        faults=(
            WorkerCrash(rank=rng.randrange(nprocs), at_op=3),
            TransportDelay(src=0, dst=1, seconds=0.002, last=16),
            TransportDelay(src=rng.randrange(1, nprocs), dst=0,
                           seconds=0.001, last=16),
        ),
        seed=int(seed),
    )


def _run_recovery(
    conn: http.client.HTTPConnection,
    registry: WorkloadRegistry,
    smoke: bool,
    seed: int,
) -> dict:
    """The chaos acceptance property, executed over HTTP: a serial
    ``/run`` and two multiprocess ``/run``s of the same config, where
    the multiprocess fleet crashes mid-workload (per the active fault
    plan), restarts, and replays.  Recovered runs must produce the
    same ``solution_sha256`` as the uninterrupted serial run."""
    name = "adi" if "adi" in registry.names() else registry.names()[0]
    params = registry.get(name).accepted(
        {"size": 12 if smoke else 16, "iterations": 1, "steps": 2}
    )

    probes = []
    for probe_seed in (seed + 7701, seed + 7702):
        probe: dict = {"workload": name, "seed": probe_seed, "params": params}
        for backend in ("serial", "multiprocess"):
            payload = dict(
                params, workload=name, seed=probe_seed, backend=backend
            )
            t0 = time.perf_counter()
            try:
                status, headers, body = _request(
                    conn, "POST", "/run", payload
                )
                sha = None
                if status == 200:
                    try:
                        sha = json.loads(body).get("solution_sha256")
                    except (ValueError, AttributeError):
                        sha = None
                probe[backend] = {
                    "status": status,
                    "solution_sha256": sha,
                    "seconds": round(time.perf_counter() - t0, 4),
                    "incident": headers.get("X-Repro-Incident-Id"),
                    "error": None if status == 200
                             else body.decode(errors="replace")[:200],
                }
            except Exception as exc:
                probe[backend] = {
                    "status": 0, "solution_sha256": None,
                    "seconds": round(time.perf_counter() - t0, 4),
                    "incident": None, "error": str(exc),
                }
        probe["identical"] = (
            probe["serial"]["solution_sha256"] is not None
            and probe["serial"]["solution_sha256"]
            == probe["multiprocess"]["solution_sha256"]
        )
        probes.append(probe)

    failures = sum(
        1 for p in probes for b in ("serial", "multiprocess")
        if p[b]["status"] != 200
    )
    return {
        "workload": name,
        "probes": probes,
        "failures": failures,
        "identical": all(p["identical"] for p in probes),
    }


def run_loadtest(
    url: str | None = None,
    clients: int = 8,
    rounds: int = 3,
    workloads: list[str] | None = None,
    registry: WorkloadRegistry | None = None,
    *,
    smoke: bool = False,
    seed: int = DEFAULT_SEED,
    out: str | None = None,
    metrics_out: str | None = None,
    trajectory: str | None = None,
    check: bool = False,
    quiet: bool = False,
    timeout: float = 120.0,
    chaos: bool = False,
    chaos_seed: int | None = None,
) -> dict:
    """Run the two-phase load test; return (and optionally write) the report.

    ``url=None`` starts an in-process :class:`~repro.serve.ServerThread`
    around a fresh :class:`~repro.serve.PlanningService` and tears it
    down afterwards; otherwise the running server at ``url`` is
    tested (its caches are *not* cleared — hit rates then reflect its
    real state).  The run ends through
    :func:`~repro.obs.compare.finish_bench` as family ``"serve"`` (or
    ``"chaos"``), whose ``out`` / ``trajectory`` / ``check`` these are:
    ``check=True`` raises unless all three serving properties hold *and*
    the final ``/metrics`` scrape has samples for every series in
    :data:`REQUIRED_SERIES`.  The raw Prometheus exposition is written
    to ``metrics_out`` (the artifact CI uploads next to the report).

    ``chaos=True`` activates a seeded :class:`~repro.faults.FaultPlan`
    for the duration of the test (in-process server only — the plan
    lives in this process), injects request-level faults during both
    phases, and appends a *recovery* phase exercising worker-crash
    fleet restarts; the gates are then the robustness properties
    instead of the steady-state ones (see module docstring).
    """
    from ..obs.compare import FAMILIES, finish_bench
    from ..obs.trajectory import environment_fingerprint

    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if chaos and url is not None:
        raise ValueError(
            "chaos mode needs the in-process server (url=None): the "
            "fault plan is activated in this process and cannot reach "
            "a remote one"
        )
    registry = registry if registry is not None else REGISTRY
    items = _request_set(registry, workloads, smoke)

    chaos_plan = recovery_plan = None
    if chaos:
        from ..faults import FaultPlan, injected
        from ..obs.flight import flight_recorder

        cseed = int(chaos_seed if chaos_seed is not None else seed)
        chaos_plan = FaultPlan.chaos(cseed)
        recovery_plan = _recovery_plan(cseed)

    started_server = None
    if url is None:
        from .http import ServerThread
        from .service import PlanningService

        started_server = ServerThread(
            PlanningService(registry=registry), max_workers=clients
        ).start()
        url = started_server.url
    base_url = url.rstrip("/")
    # the harness's own requests (recovery probes, /stats, /metrics)
    conn = _connect(base_url, timeout)

    try:
        # phase 1 — unique configs: every request gets its own seed, so
        # every response is computed (cold-path latencies, all misses)
        unique_lists = [
            [
                (endpoint, dict(params, workload=name,
                                seed=seed + 1000 + client * len(items) + i))
                for i, (endpoint, name, params) in enumerate(items)
            ]
            for client in range(clients)
        ]
        # phase 2 — repeated configs: one fixed seed, all clients replay
        # the same set `rounds` times (steady-state cache behaviour)
        repeated = [
            (endpoint, dict(params, workload=name, seed=seed))
            for endpoint, name, params in items
        ]
        repeated_lists = [list(repeated) * rounds for _ in range(clients)]

        # under chaos the phases run under the request-fault plan
        # (delays / 500s / dropped connections at the HTTP layer)
        with injected(chaos_plan) if chaos else nullcontext():
            observations = _run_phase(base_url, "unique", unique_lists, timeout)
            observations += _run_phase(base_url, "repeated", repeated_lists, timeout)

        recovery = None
        if chaos:
            def _restarts() -> set:
                # ids, not a count: the incident ring is bounded
                return {
                    i["incident_id"] for i in flight_recorder.incidents()
                    if i.get("reason") == "backend fleet restart"
                }

            # the recovery phase swaps in the worker-crash + transport-
            # delay plan: every multiprocess run crashes a worker and
            # must restart + replay to a bitwise-identical result
            restarts_before = _restarts()
            with injected(recovery_plan):
                recovery = _run_recovery(
                    conn, registry, smoke, seed
                )
            recovery["fleet_restarts"] = len(_restarts() - restarts_before)

        # byte-identity: within each identical-request group, every
        # response body must hash the same
        groups: dict[str, set[str]] = {}
        for o in observations:
            if o.status == 200:
                groups.setdefault(o.key, set()).add(o.digest)
        divergent = sorted(k for k, v in groups.items() if len(v) > 1)

        try:
            status, _, stats_body = _request(conn, "POST", "/stats", {})
            server_stats = json.loads(stats_body) if status == 200 else None
        except Exception:
            server_stats = None

        # scrape the Prometheus exposition while the server is still up
        metrics = _scrape_metrics(conn)
    finally:
        conn.close()
        if started_server is not None:
            started_server.stop()

    phases = [
        _phase_report("unique", observations),
        _phase_report("repeated", observations),
    ]
    kind = "chaos" if chaos else "serve"
    report = {
        "schema": FAMILIES[kind].schema,
        "smoke": bool(smoke),
        "env": environment_fingerprint(),
        "base_url": base_url,
        "in_process_server": started_server is not None,
        "clients": clients,
        "rounds": rounds,
        "workloads": list(workloads or registry.names()),
        "request_set": [
            {"endpoint": e, "workload": w, "params": p} for e, w, p in items
        ],
        "phases": phases,
        "total_requests": len(observations),
        "total_failures": sum(p["failures"] for p in phases),
        # None, not a vacuous True, when no 200 response was grouped
        "byte_identical": (not divergent) if groups else None,
        "divergent_requests": divergent[:5],
        "latency": _percentiles([o.seconds for o in observations]),
        "latency_method": LATENCY_METHOD,
        "server_stats": server_stats,
        "metrics": {k: v for k, v in metrics.items() if k != "text"},
    }
    if chaos:
        # injected failures are expected; what must hold is that every
        # server-side failure is *attributable* — a 5xx without an
        # incident ID is a hole in the post-mortem story
        def count(pred) -> int:
            return sum(1 for o in observations if pred(o))

        report["chaos"] = {
            "seed": cseed,
            "request_fault_plan": chaos_plan.to_json(),
            "recovery_fault_plan": recovery_plan.to_json(),
            "injected_failures": count(
                lambda o: o.status >= 500 or o.status == 0),
            "uncovered_5xx": count(lambda o: o.status >= 500 and not o.incident),
            # injected faults must never surface as client errors
            "client_errors": count(lambda o: 400 <= o.status < 500),
            "recovery": recovery,
        }

    if not quiet:
        for p in phases:
            lat = p["latency"]
            rate = p["cache_hit_rate"]
            print(
                f"  {p['name']:9s} {p['requests']:4d} requests, "
                f"{p['failures']} failed, "
                f"p50 {lat['p50_ms']:.1f} ms, p99 {lat['p99_ms']:.1f} ms, "
                f"hit rate {'n/a' if rate is None else f'{rate:.0%}'}"
            )
        print(f"  byte-identical responses: {report['byte_identical']}")
        if chaos:
            c = report["chaos"]
            print(
                f"  chaos: {c['injected_failures']} injected failure(s), "
                f"{c['uncovered_5xx']} uncovered 5xx, "
                f"{c['recovery']['fleet_restarts']} fleet restart(s), "
                f"recovery identical: {c['recovery']['identical']}"
            )

    if metrics_out and metrics.get("text"):
        with open(metrics_out, "w") as fh:
            fh.write(metrics["text"])
        if not quiet:
            print(f"  wrote {metrics_out}")
    return finish_bench(
        kind, report, out=out, trajectory=trajectory, check=check,
        quiet=quiet,
    )
