"""Response-cache hits are answered on the event loop.

Only a request that has to be computed crosses to the server's thread
pool; a hit is a replay of stored bytes, so it must neither queue
behind a running miss nor be counted twice, and a route whose circuit
breaker is open still sheds it.
"""

import json
import logging
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import ExecutionOutcome, WorkloadRegistry, register_workload
from repro.faults.breaker import OPEN
from repro.obs import flight_recorder
from repro.obs import metrics as _obs
from repro.serve import PlanningService, ServerThread


def _get(url, timeout=30.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), exc.read()


def _gated_registry(entered: threading.Event, release: threading.Event):
    """One workload whose ``n=2`` run holds its thread until released."""
    reg = WorkloadRegistry()

    @register_workload("gated", defaults={"n": 1}, registry=reg)
    def gated(ctx):
        if ctx.params["n"] == 2:
            entered.set()
            release.wait(30)
        return ExecutionOutcome(solution=np.zeros(ctx.params["n"]))

    return reg


def test_a_hit_does_not_queue_behind_a_miss():
    entered, release = threading.Event(), threading.Event()
    svc = PlanningService(_gated_registry(entered, release), observability=False)
    with ServerThread(svc, max_workers=1) as url:
        status, headers, cached = _get(f"{url}/run?workload=gated&n=1")
        assert (status, headers["X-Repro-Cache"]) == (200, "miss")
        blocked = {}
        miss = threading.Thread(
            target=lambda: blocked.update(
                zip(("status", "headers", "body"),
                    _get(f"{url}/run?workload=gated&n=2"))))
        miss.start()
        try:
            assert entered.wait(10), "the miss never reached the pool"
            t0 = time.perf_counter()
            status, headers, body = _get(
                f"{url}/run?workload=gated&n=1", timeout=5)
            elapsed = time.perf_counter() - t0
        finally:
            release.set()
            miss.join(30)
        assert not miss.is_alive()
        assert (status, headers["X-Repro-Cache"]) == (200, "hit")
        assert body == cached
        assert elapsed < 1.0
        assert blocked["status"] == 200
        assert blocked["headers"]["X-Repro-Cache"] == "miss"


def test_each_request_is_counted_once():
    lookups = _obs.counter("repro_response_cache_lookups_total",
                           labelnames=("result",))
    requests = _obs.counter("repro_http_requests_total",
                            labelnames=("route", "status", "cache"))
    target = "/plan?workload=pic&size=16&seed=1234"
    with ServerThread(PlanningService()) as url:
        def snapshot():
            stats = json.loads(_get(f"{url}/stats")[2])["response_cache"]
            return {
                "stats": (stats["hits"], stats["misses"]),
                "metric": (lookups.value(result="hit"),
                           lookups.value(result="miss")),
                "requests": tuple(
                    requests.value(route="/plan", status=200, cache=tier)
                    for tier in ("hit", "miss")),
                "notes": len(flight_recorder.notes("serve.request")),
            }

        ids = []
        for tier in ("miss", "hit"):
            before = snapshot()
            status, headers, _ = _get(f"{url}{target}")
            after = snapshot()
            assert (status, headers["X-Repro-Cache"]) == (200, tier)
            ids.append(headers["X-Repro-Request-Id"])
            one = (1, 0) if tier == "hit" else (0, 1)
            for key in ("stats", "metric", "requests"):
                assert tuple(
                    a - b for a, b in zip(after[key], before[key])
                ) == one, key
            # the request itself and the /stats call that follows it
            assert after["notes"] - before["notes"] == 2
        assert len(set(ids)) == 2


def test_an_open_breaker_still_sheds_a_cached_request():
    svc = PlanningService(breaker_threshold=1, breaker_cooldown=60.0,
                          observability=False)
    target = "/run?workload=adi&size=12&iterations=1"
    with ServerThread(svc) as url:
        assert _get(f"{url}{target}")[0] == 200
        assert svc.lookup("GET", target) is not None
        svc._breaker("/run").record_failure()
        assert svc.breaker_stats()["/run"]["state"] == OPEN
        assert svc.lookup("GET", target) is None
        status, headers, body = _get(f"{url}{target}")
    assert status == 503
    assert headers["Retry-After"]
    assert "circuit open" in json.loads(body)["error"]


def test_a_miss_and_a_hit_log_the_same_line_as_before(caplog):
    svc = PlanningService(observability=False)
    target = "/plan?workload=adi&size=12&seed=77"
    caplog.set_level(logging.INFO, logger="repro.serve")
    with svc:
        answers = [svc.dispatch("GET", target), svc.lookup("GET", target),
                   svc.dispatch("GET", target)]
    notes = {
        note["request_id"]: note
        for note in flight_recorder.notes("serve.request")
    }
    lines = [r.getMessage() for r in caplog.records if r.name == "repro.serve"]
    assert [a.headers["X-Repro-Cache"] for a in answers] == ["miss", "hit", "hit"]
    assert lines == [
        json.dumps(
            {"event": "request", "request_id": rid, "route": "/plan",
             "status": 200, "ms": notes[rid]["ms"],
             "cache": answer.headers["X-Repro-Cache"]},
            sort_keys=True)
        for answer in answers
        for rid in [answer.headers["X-Repro-Request-Id"]]
    ]


@pytest.mark.parametrize("target, body", [
    ("/bench?workload=adi", None),
    ("/healthz", None),
    ("/run?workload=adi&sizzle=1", None),
    ("/run", b"[1]"),
])
def test_lookup_leaves_everything_else_to_dispatch(target, body):
    with PlanningService(observability=False) as svc:
        assert svc.lookup("GET", target, body) is None
        assert svc.responses.stats()["misses"] == 0
