"""The serving tier's degradation ladder (ISSUE 9).

Retry → circuit breaker → 503 + Retry-After, pool eviction of
poisoned sessions, per-request deadlines, injected request faults at
the HTTP front end, and the chaos load test end to end.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.backend import BackendError
from repro.faults import FaultPlan, RequestFault, deactivate, injected
from repro.faults.breaker import CLOSED, OPEN
from repro.obs import FAMILIES, compare_reports, flight_recorder
from repro.serve import PlanningService, run_loadtest
from repro.serve.http import ServerThread

CHAOS_SCHEMA = FAMILIES["chaos"].schema
from repro.serve.service import ServeResponse

from repro.api.config import SessionConfig
from repro.serve.pool import SessionPool


@pytest.fixture(autouse=True)
def _clean_activation():
    deactivate()
    yield
    deactivate()


def _get(url, timeout=30.0):
    req = urllib.request.Request(url, method="GET")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestDegradationLadder:
    def test_recoverable_fault_becomes_503_with_incident(self):
        svc = PlanningService(
            breaker_threshold=2, get_retries=0, observability=False
        )
        with svc:
            svc._stage = _always_broken
            r = svc.dispatch("GET", "/run?workload=adi&size=12")
        assert r.status == 503
        assert "backend unavailable" in r.json["error"]
        assert int(r.headers["Retry-After"]) >= 1
        assert r.headers["X-Repro-Incident-Id"]

    def test_breaker_opens_then_sheds_then_recovers(self):
        svc = PlanningService(
            breaker_threshold=1, breaker_cooldown=0.05,
            get_retries=0, observability=False,
        )
        with svc:
            svc._stage = _always_broken
            first = svc.dispatch("GET", "/run?workload=adi&size=12")
            assert first.status == 503
            assert svc.breaker_stats()["/run"]["state"] == OPEN
            # while open: shed without touching the stage at all
            svc._stage = _must_not_be_called
            shed = svc.dispatch("GET", "/run?workload=adi&size=12")
            assert shed.status == 503
            assert "circuit open" in shed.json["error"]
            assert shed.headers["X-Repro-Incident-Id"]
            # after the cooldown the half-open probe heals the route
            time.sleep(0.06)
            svc._stage = lambda endpoint, params: ServeResponse(200, "{}")
            probe = svc.dispatch("GET", "/run?workload=adi&size=12")
            assert probe.status == 200
            assert svc.breaker_stats()["/run"]["state"] == CLOSED

    def test_idempotent_get_retries_then_succeeds(self):
        svc = PlanningService(
            get_retries=2, retry_backoff=0.001, observability=False
        )
        with svc:
            calls = []

            def flaky(endpoint, params):
                calls.append(endpoint)
                if len(calls) == 1:
                    raise BackendError("fleet died mid-run", retryable=True)
                return ServeResponse(200, "{}")

            svc._stage = flaky
            retries_before = len(flight_recorder.notes("serve.retry"))
            r = svc.dispatch("GET", "/run?workload=adi&size=12")
        assert r.status == 200
        assert len(calls) == 2
        assert len(flight_recorder.notes("serve.retry")) == retries_before + 1

    def test_post_is_never_retried(self):
        svc = PlanningService(
            breaker_threshold=5, get_retries=2, retry_backoff=0.001,
            observability=False,
        )
        with svc:
            calls = []

            def flaky(endpoint, params):
                calls.append(endpoint)
                raise BackendError("fleet died mid-run", retryable=True)

            svc._stage = flaky
            r = svc.dispatch(
                "POST", "/run", json.dumps({"workload": "adi", "size": 12})
            )
        assert r.status == 503
        assert len(calls) == 1  # non-idempotent: one attempt only

    def test_client_errors_do_not_feed_the_breaker(self):
        svc = PlanningService(breaker_threshold=1, observability=False)
        with svc:
            r = svc.dispatch("GET", "/run?workload=no_such_workload")
            assert r.status == 404
            r2 = svc.dispatch("GET", "/run")  # missing workload param
            assert r2.status == 400
            assert svc.breaker_stats()["/run"]["failures"] == 0
            assert svc.breaker_stats()["/run"]["state"] == CLOSED


    def test_client_error_on_the_half_open_probe_frees_the_slot(self):
        """A probe answered 4xx gives no verdict, but must not keep the
        probe slot: the next valid request probes and closes the
        route."""
        svc = PlanningService(
            breaker_threshold=1, breaker_cooldown=0.05,
            get_retries=0, observability=False,
        )
        with svc:
            svc._stage = _a_bug
            assert svc.dispatch("GET", "/run?workload=adi&size=12").status \
                == 500
            assert svc.breaker_stats()["/run"]["state"] == OPEN
            del svc._stage
            time.sleep(0.06)
            probe = svc.dispatch("GET", "/run?workload=adi&size=12&nprocs=0")
            assert probe.status == 400
            valid = svc.dispatch("GET", "/run?workload=adi&size=12")
            assert valid.status == 200, valid.body
            assert svc.breaker_stats()["/run"]["state"] == CLOSED


class TestPoolEviction:
    def test_poisoned_session_is_evicted_not_restacked(self):
        pool = SessionPool(max_idle=4)
        with pool:
            config = SessionConfig(nprocs=4)
            sess = pool.acquire(config)
            sess.mark_poisoned("fleet died under test")
            evicted_before = len(flight_recorder.notes("pool.evicted"))
            pool.release(sess)
            stats = pool.stats()
            assert stats["evictions"] == 1
            assert stats["discarded"] == 1
            assert stats["idle"] == 0
            assert sess.closed
            notes = flight_recorder.notes("pool.evicted")
            assert len(notes) == evicted_before + 1
            assert notes[-1]["cause"] == "poisoned"
            # the next tenant gets a clean slate, not the poisoned one
            fresh = pool.acquire(config)
            assert pool.stats()["created"] == 2
            pool.release(fresh)

    def test_healthy_session_is_restacked(self):
        pool = SessionPool(max_idle=4)
        with pool:
            config = SessionConfig(nprocs=4)
            sess = pool.acquire(config)
            pool.release(sess)
            assert pool.stats()["evictions"] == 0
            assert pool.stats()["idle"] == 1
            assert pool.acquire(config) is sess


class TestHttpFrontEnd:
    def test_request_deadline_unblocks_the_client(self):
        svc = PlanningService(observability=False)
        svc.dispatch = lambda method, target, body=None: (
            time.sleep(0.5) or ServeResponse(200, "{}")
        )
        with ServerThread(svc, request_deadline=0.1) as url:
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(f"{url}/healthz")
            assert info.value.code == 503
            assert info.value.headers["Retry-After"]
            assert info.value.headers["X-Repro-Incident-Id"]
            assert "deadline" in json.loads(info.value.read())["error"]

    def test_probe_past_its_deadline_frees_the_slot(self):
        """A half-open probe answered 503 by the request deadline must
        not keep the probe slot while its stage runs on: the next valid
        request probes and closes the route."""
        svc = PlanningService(
            breaker_threshold=1, breaker_cooldown=0.05,
            get_retries=0, observability=False,
        )
        gate, calls = threading.Event(), []

        def gated(endpoint, params):
            calls.append(endpoint)
            if len(calls) == 1:  # the probe outlives its deadline
                gate.wait(10.0)
            return ServeResponse(200, "{}")

        with svc, ServerThread(svc, request_deadline=0.2) as url:
            try:
                svc._stage = _a_bug
                assert svc.dispatch("GET", "/run?workload=adi&size=12").status \
                    == 500
                assert svc.breaker_stats()["/run"]["state"] == OPEN
                time.sleep(0.06)
                svc._stage = gated
                with pytest.raises(urllib.error.HTTPError) as info:
                    _get(f"{url}/run?workload=adi&size=12")
                assert info.value.code == 503
                assert "deadline" in json.loads(info.value.read())["error"]
                status, _, _ = _get(f"{url}/run?workload=adi&size=12")
                assert status == 200
                assert svc.breaker_stats()["/run"]["state"] == CLOSED
                assert len(calls) == 2
            finally:
                gate.set()

    def test_injected_request_faults_delay_error_drop(self):
        plan = FaultPlan([
            RequestFault(route="/healthz", at_request=2, kind="delay",
                         seconds=0.2),
            RequestFault(route="/healthz", at_request=3, kind="error"),
            RequestFault(route="/healthz", at_request=4, kind="drop"),
        ])
        with injected(plan):
            with ServerThread(PlanningService(observability=False)) as url:
                status, _, _ = _get(f"{url}/healthz")  # request 1: clean
                assert status == 200
                t0 = time.perf_counter()
                status, _, _ = _get(f"{url}/healthz")  # request 2: delayed
                assert status == 200
                assert time.perf_counter() - t0 >= 0.2
                with pytest.raises(urllib.error.HTTPError) as info:
                    _get(f"{url}/healthz")             # request 3: 500
                assert info.value.code == 500
                assert info.value.headers["X-Repro-Incident-Id"]
                assert "injected fault" in json.loads(info.value.read())["error"]
                # dropped on the floor: RemoteDisconnected reaches the
                # client raw (it is a ConnectionResetError subclass)
                with pytest.raises((urllib.error.URLError,
                                    ConnectionResetError)):
                    _get(f"{url}/healthz", timeout=5)  # request 4: dropped
                status, _, _ = _get(f"{url}/healthz")  # request 5: clean
                assert status == 200

    def test_faults_off_by_default(self):
        with ServerThread(PlanningService(observability=False)) as url:
            for _ in range(3):
                status, _, _ = _get(f"{url}/healthz")
                assert status == 200


class TestChaosLoadtest:
    def test_chaos_needs_in_process_server(self):
        with pytest.raises(ValueError, match="in-process server"):
            run_loadtest(url="http://127.0.0.1:1", chaos=True, out="")

    def test_chaos_smoke_passes_the_check_gate(self):
        """The acceptance run: request faults + a worker-crash recovery
        phase, zero byte-identity violations, every 5xx attributable,
        and the recovered multiprocess run identical to serial."""
        report = run_loadtest(
            clients=2, rounds=1, smoke=True, chaos=True, check=True,
            out="", quiet=True,
        )
        assert report["schema"] == CHAOS_SCHEMA
        assert report["byte_identical"]
        chaos = report["chaos"]
        assert chaos["injected_failures"] >= 1
        assert chaos["uncovered_5xx"] == 0
        assert chaos["recovery"]["identical"]
        assert chaos["recovery"]["fleet_restarts"] >= 1
        assert not chaos["recovery"]["failures"]
        # the sentinel accepts its own artifact
        verdict = compare_reports("chaos", report, report)
        assert verdict.ok


class TestChaosSentinel:
    def _report(self, **over):
        base = {
            "schema": CHAOS_SCHEMA,
            "byte_identical": True,
            "chaos": {
                "uncovered_5xx": 0,
                "recovery": {
                    "failures": 0, "identical": True, "fleet_restarts": 2,
                },
            },
        }
        for key, value in over.items():
            parts = key.split(".")
            node = base
            for p in parts[:-1]:
                node = node[p]
            node[parts[-1]] = value
        return base

    def test_clean_report_passes(self):
        assert compare_reports("chaos", self._report(), self._report()).ok

    def test_byte_divergence_is_a_hard_failure(self):
        bad = self._report(byte_identical=False)
        verdict = compare_reports("chaos", bad, self._report())
        assert verdict.hard_failures

    def test_uncovered_5xx_is_a_hard_failure(self):
        bad = self._report(**{"chaos.uncovered_5xx": 3})
        assert compare_reports("chaos", bad, self._report()).hard_failures

    def test_recovery_divergence_is_a_hard_failure(self):
        bad = self._report(**{"chaos.recovery.identical": False})
        assert compare_reports("chaos", bad, self._report()).hard_failures

    def test_no_restart_is_a_soft_failure(self):
        meh = self._report(**{"chaos.recovery.fleet_restarts": 0})
        verdict = compare_reports("chaos", meh, self._report())
        assert not verdict.hard_failures
        assert verdict.soft_failures


def _always_broken(endpoint, params):
    raise BackendError("fleet died mid-run", retryable=True)


def _a_bug(endpoint, params):
    raise RuntimeError("a bug in the stage")


def _must_not_be_called(endpoint, params):  # pragma: no cover - guard
    raise AssertionError("stage reached while the circuit was open")
