"""Response-cache hits are answered on the event loop.

Only a request that has to be computed crosses to the server's thread
pool; a hit is a replay of stored bytes, so it must neither queue
behind a running miss nor be counted twice, and a route whose circuit
breaker is open still sheds it.  The admission step that answers it
reads every request once; the pool only computes what it admitted.
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
from repro.serve import PlanningService, ServeResponse, ServerThread
from repro.serve.service import Admitted


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
        assert svc.admit("GET", target).headers["X-Repro-Cache"] == "hit"
        svc._breaker("/run").record_failure()
        assert svc.breaker_stats()["/run"]["state"] == OPEN
        before = svc.responses.stats()
        assert isinstance(svc.admit("GET", target), Admitted)
        after = svc.responses.stats()
        assert (after["hits"], after["misses"]) == (before["hits"],
                                                    before["misses"])
        status, headers, body = _get(f"{url}{target}")
    assert status == 503
    assert headers["Retry-After"]
    assert "circuit open" in json.loads(body)["error"]


def test_a_miss_and_a_hit_log_the_same_line_as_before(caplog):
    svc = PlanningService(observability=False)
    target = "/plan?workload=adi&size=12&seed=77"
    caplog.set_level(logging.INFO, logger="repro.serve")
    with svc:
        answers = [svc.dispatch("GET", target), svc.admit("GET", target),
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
        assert not isinstance(svc.admit("GET", target, body), ServeResponse)
        assert svc.responses.stats()["misses"] == 0


def test_a_request_is_resolved_once(monkeypatch):
    from repro.serve import service as service_module

    calls = []
    real = service_module.resolve

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(service_module, "resolve", counted)
    target = "/plan?workload=adi&size=12&seed=5"
    with ServerThread(PlanningService(observability=False)) as url:
        for tier in ("miss", "hit"):
            calls.clear()
            status, headers, _ = _get(f"{url}{target}")
            assert (status, headers["X-Repro-Cache"]) == (200, tier)
            assert calls == ["plan"], tier
    with PlanningService(observability=False) as svc:
        for tier in ("miss", "hit"):
            calls.clear()
            response = svc.dispatch("GET", "/run?workload=adi&size=12")
            assert response.headers["X-Repro-Cache"] == tier
            assert calls == ["run"], tier


def test_spelled_out_session_defaults_hit_the_same_entry():
    with PlanningService(observability=False) as svc:
        bare = svc.dispatch("GET", "/plan?workload=adi&size=12")
        spelled = svc.dispatch(
            "GET", "/plan?workload=adi&size=12&nprocs=4&cost_model=Paragon")
    assert bare.headers["X-Repro-Cache"] == "miss"
    assert spelled.headers["X-Repro-Cache"] == "hit"
    assert (spelled.headers["X-Repro-Fingerprint"]
            == bare.headers["X-Repro-Fingerprint"])
    assert spelled.body == bare.body


def test_a_miss_stored_by_a_concurrent_request_is_computed_again():
    """A request that missed at admission is computed and answered
    ``miss`` even if the entry appeared before it reached the pool."""
    target = "/plan?workload=adi&size=12&seed=9"
    with PlanningService(observability=False) as svc:
        admitted = svc.admit("GET", target)
        assert isinstance(admitted, Admitted)
        stored = svc.dispatch("GET", target)
        late = svc.complete(admitted)
        lookups = svc.responses.stats()
    assert stored.headers["X-Repro-Cache"] == "miss"
    assert late.headers["X-Repro-Cache"] == "miss"
    assert late.body == stored.body
    assert (lookups["hits"], lookups["misses"]) == (0, 2)


def test_stopping_mid_request_answers_503(capfd):
    entered, release = threading.Event(), threading.Event()
    svc = PlanningService(_gated_registry(entered, release), observability=False)
    server = ServerThread(svc, max_workers=1).start()
    answer = {}

    def client():
        try:
            answer["got"] = _get(f"{server.url}/run?workload=gated&n=2")
        except Exception as exc:  # noqa: BLE001 - the parent's failure
            answer["got"] = exc

    thread = threading.Thread(target=client)
    thread.start()
    try:
        assert entered.wait(10), "the miss never reached the pool"
        server.stop()
        thread.join(30)
    finally:
        release.set()
    assert not thread.is_alive()
    assert not isinstance(answer["got"], Exception), answer["got"]
    status, headers, body = answer["got"]
    assert status == 503
    assert headers["Retry-After"] == "1"
    assert headers["X-Repro-Incident-Id"]
    assert headers["Connection"] == "close"
    assert "server closed" in json.loads(body)["error"]
    assert "Exception in callback" not in capfd.readouterr().err
