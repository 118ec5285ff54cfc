"""Serve bench — the planning service under concurrent load (ISSUE 6).

The service tier's three claims, measured against a real in-process
asyncio HTTP server:

1. **zero failures** with N concurrent clients hammering every
   registered workload's plan/run/trace endpoints;
2. **reproducibility** — identical requests (workload, params, seed)
   return byte-identical JSON across clients and phases;
3. **cross-session caching** — the repeated-config phase's response
   cache hit rate exceeds 50% (each distinct config computed once,
   every other request replayed from stored bytes).

The report (``repro-bench-serve/2`` schema: per-phase p50/p99/mean
latency, hit rates, server-side cache and pool counters) is written to
``BENCH_SERVE.json`` next to ``BENCH_PERF.json``.  The CLI spelling is
``python -m repro serve --loadtest [--smoke] [--check]``; this bench
is the pytest spelling the CI smoke step exercises.
"""

from __future__ import annotations

import pytest

from conftest import emit_table
from repro.serve import run_loadtest


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("serve") / "BENCH_SERVE.json"
    return run_loadtest(
        clients=8, rounds=3, smoke=True, out=str(out), check=True, quiet=True,
    )


def test_serve_loadtest_properties(report):
    emit_table(
        "serve load test (8 clients, all workloads)",
        ["phase", "requests", "failed", "p50 ms", "p99 ms", "hit rate"],
        [
            [
                p["name"], p["requests"], p["failures"],
                f"{p['latency']['p50_ms']:.1f}",
                f"{p['latency']['p99_ms']:.1f}",
                ("n/a" if p["cache_hit_rate"] is None
                 else f"{p['cache_hit_rate']:.0%}"),
            ]
            for p in report["phases"]
        ],
    )
    assert report["total_failures"] == 0
    assert report["byte_identical"] is True
    unique, repeated = report["phases"]
    assert unique["cache_hits"] == 0
    assert repeated["cache_hit_rate"] > 0.5


def test_serve_pool_actually_reuses_sessions(report):
    sessions = report["server_stats"]["sessions"]
    assert sessions["reused"] > sessions["created"]


def test_serve_shared_plan_cache_hits(report):
    plan_cache = report["server_stats"]["plan_cache"]
    assert plan_cache["hits"] > 0


def test_serve_latency_bench(benchmark):
    """Wall-clock the single-request hot path (cache hit) for the record."""
    from repro.serve import PlanningService

    with PlanningService() as svc:
        target = "/plan?workload=adi&size=16&seed=0"
        svc.dispatch("GET", target)  # warm: compute + fill the cache

        result = benchmark(svc.dispatch, "GET", target)
        assert result.status == 200
        assert result.headers["X-Repro-Cache"] == "hit"
