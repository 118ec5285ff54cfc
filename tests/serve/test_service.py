"""PlanningService dispatch: routing, caching, validation, stats."""

import json

import pytest

from repro.api import REGISTRY
from repro.serve import ENDPOINTS, PlanningService


@pytest.fixture
def service():
    with PlanningService() as svc:
        yield svc


# -- fixed endpoints -------------------------------------------------------


def test_workloads_lists_registry(service):
    resp = service.dispatch("GET", "/workloads")
    assert resp.status == 200
    payload = resp.json
    assert payload["schema"] == "repro-serve-workloads/1"
    names = {w["name"] for w in payload["workloads"]}
    assert names == set(REGISTRY.names())
    for spec in payload["workloads"]:
        assert {"name", "description", "defaults", "plannable"} <= set(spec)


def test_healthz_reports_version(service):
    import repro

    resp = service.dispatch("GET", "/healthz")
    assert resp.status == 200
    payload = resp.json
    assert payload["ok"] is True
    assert payload["version"] == repro.__version__
    assert payload["uptime_seconds"] >= 0


def test_stats_schema(service):
    service.dispatch("GET", "/run?workload=adi&size=16&iterations=1&seed=0")
    resp = service.dispatch("GET", "/stats")
    stats = resp.json
    assert stats["schema"] == "repro-serve-stats/1"
    assert {"plan_cache", "response_cache", "sessions", "requests",
            "errors", "workloads"} <= set(stats)
    assert stats["requests"]["/run"] == 1
    assert stats["sessions"]["created"] == 1


def test_stats_plan_cache_counts_run_lookups(service):
    """The pool's store is the store of every stage, not only of the
    planner: one ``/run`` miss moves the ``/stats`` plan-cache lookups."""

    def lookups():
        cache = service.dispatch("GET", "/stats").json["plan_cache"]
        return cache["hits"] + cache["misses"]

    before = lookups()
    resp = service.dispatch("GET", "/run?workload=adi&size=16&iterations=2")
    assert resp.headers["X-Repro-Cache"] == "miss"
    assert lookups() > before
    # replayed from the response cache: no stage ran, nothing looked up
    after = lookups()
    service.dispatch("GET", "/run?workload=adi&size=16&iterations=2")
    assert lookups() == after


# -- stage endpoints -------------------------------------------------------


def test_run_get_and_post_are_equivalent(service):
    get = service.dispatch(
        "GET", "/run?workload=adi&size=16&iterations=1&seed=7")
    post = service.dispatch(
        "POST", "/run",
        json.dumps({"workload": "adi", "size": 16, "iterations": 1,
                    "seed": 7}))
    assert get.status == post.status == 200
    # same fingerprint, so the POST replays the GET's bytes
    assert get.headers["X-Repro-Cache"] == "miss"
    assert post.headers["X-Repro-Cache"] == "hit"
    assert (get.headers["X-Repro-Fingerprint"]
            == post.headers["X-Repro-Fingerprint"])
    assert get.body == post.body


def test_body_keys_override_query(service):
    resp = service.dispatch(
        "POST", "/run?workload=adi&size=16&seed=1",
        json.dumps({"seed": 2, "iterations": 1}))
    assert resp.status == 200
    assert resp.json["seed"] == 2


def test_plan_response_is_typed_plan_result(service):
    resp = service.dispatch("GET", "/plan?workload=adi&size=16&seed=0")
    assert resp.status == 200
    payload = resp.json
    assert payload["workload"] == "adi"
    assert {"plan", "cost_model", "cost_mode", "method"} <= set(payload)


def test_trace_compact_omits_per_processor_intervals(service):
    full = service.dispatch(
        "GET", "/trace?workload=smoothing&size=16&steps=2&seed=0")
    compact = service.dispatch(
        "GET",
        "/trace?workload=smoothing&size=16&steps=2&seed=0&compact=true")
    assert full.status == compact.status == 200
    assert "processors" in full.json["blocking"]
    assert "processors" not in compact.json["blocking"]
    # different options -> different fingerprints, no false sharing
    assert (full.headers["X-Repro-Fingerprint"]
            != compact.headers["X-Repro-Fingerprint"])


def test_bench_is_never_cached(service):
    target = "/bench?workload=adi&size=16&iterations=1&repeats=1&seed=0"
    first = service.dispatch("GET", target)
    second = service.dispatch("GET", target)
    assert first.status == second.status == 200
    assert first.headers["X-Repro-Cache"] == "bypass"
    assert second.headers["X-Repro-Cache"] == "bypass"


def test_identical_requests_are_byte_identical(service):
    target = "/trace?workload=pic&size=16&steps=2&seed=5"
    bodies = {service.dispatch("GET", target).body for _ in range(3)}
    assert len(bodies) == 1


def test_different_seeds_share_one_pooled_session(service):
    for seed in range(4):
        resp = service.dispatch(
            "GET", f"/run?workload=adi&size=16&iterations=1&seed={seed}")
        assert resp.status == 200
    stats = service.pool.stats()
    assert stats["created"] == 1
    assert stats["reused"] == 3


# -- validation and errors -------------------------------------------------


def test_unknown_endpoint_404(service):
    resp = service.dispatch("GET", "/nope")
    assert resp.status == 404
    for endpoint in ENDPOINTS:
        assert endpoint in resp.json["error"]


def test_unknown_workload_404(service):
    resp = service.dispatch("GET", "/plan?workload=bogus")
    assert resp.status == 404
    assert "bogus" in resp.json["error"]


def test_missing_workload_400(service):
    resp = service.dispatch("GET", "/run")
    assert resp.status == 400
    assert "workload" in resp.json["error"]


def test_unknown_param_400(service):
    resp = service.dispatch("GET", "/run?workload=adi&sizzle=16")
    assert resp.status == 400
    assert "sizzle" in resp.json["error"]
    # ... and so is an ill-typed one: the 400 names the workload, the
    # parameter, what its table row expects and the offending value
    for stage, key, value, expects in [
        ("run", "size", "16.9", "int"),
        ("run", "size", "true", "int"),
        ("run", "size", "abc", "int"),
        ("run", "iterations", "null", "int"),
        ("run", "nprocs", "2.5", "int"),
        ("trace", "compact", "no", "bool"),
        ("plan", "method", "bogus", "one of ('auto', 'dp', 'greedy')"),
    ]:
        resp = service.dispatch("GET", f"/{stage}?workload=adi&{key}={value}")
        assert resp.status == 400, (key, value)
        assert resp.json["error"] == (
            f"workload 'adi' parameter {key!r} expects {expects}, "
            f"got {value!r}")
        as_json = json.loads(value) if value not in ("abc", "bogus", "no") \
            else value
        resp = service.dispatch(
            "POST", f"/{stage}", json.dumps({"workload": "adi", key: as_json}))
        assert resp.status == 400, (key, as_json)
        assert f"parameter {key!r} expects {expects}" in resp.json["error"]
    # nothing ill-typed ran, so nothing was cached under a fingerprint
    assert service.responses.stats()["size"] == 0


def test_equivalent_spellings_share_one_cache_entry(service):
    """``16``, ``"16"`` and ``16.0`` are one value: one ``params`` echo,
    one fingerprint, one response-cache entry."""
    first = service.dispatch("GET", "/run?workload=adi&size=16&iterations=1")
    assert first.headers["X-Repro-Cache"] == "miss"
    assert first.json["params"]["size"] == 16
    for spelled in ("GET /run?workload=adi&size=16.0&iterations=1",
                    'GET /run?workload="adi"&size=16&iterations=1.0',
                    'POST /run {"workload": "adi", "size": "16", '
                    '"iterations": 1.0}'):
        method, target, *body = spelled.split(" ", 2)
        again = service.dispatch(method, target, *body)
        assert again.headers["X-Repro-Cache"] == "hit", spelled
        assert again.body == first.body
        assert (again.headers["X-Repro-Fingerprint"]
                == first.headers["X-Repro-Fingerprint"])
    assert service.responses.stats()["size"] == 1


def test_unknown_backend_400(service):
    resp = service.dispatch("GET", "/run?workload=adi&backend=gpu")
    assert resp.status == 400
    assert "gpu" in resp.json["error"]


def test_bad_json_body_400(service):
    resp = service.dispatch("POST", "/run", "{not json")
    assert resp.status == 400
    resp = service.dispatch("POST", "/run", "[1, 2]")
    assert resp.status == 400


def test_method_not_allowed_405(service):
    resp = service.dispatch("DELETE", "/run?workload=adi")
    assert resp.status == 405


def test_errors_counted_in_stats(service):
    service.dispatch("GET", "/nope")
    service.dispatch("GET", "/run")
    assert service.dispatch("GET", "/stats").json["errors"] == 2


# -- the /adapt stage ------------------------------------------------------


ADAPT_TARGET = (
    "/adapt?workload=pic&size=32&npart=400&steps=12"
    "&rebalance_every=4&drift=0.03&seed=0"
)


def test_adapt_endpoint_is_advertised():
    assert "/adapt" in ENDPOINTS


def test_adapt_returns_typed_adapt_result(service):
    resp = service.dispatch("GET", ADAPT_TARGET)
    assert resp.status == 200
    doc = resp.json
    assert doc["workload"] == "pic"
    assert doc["mode"] == "adaptive"
    run = doc["run"]
    assert run["solution_digest"] and run["decision_digest"]
    assert isinstance(run["replans"], list)


def test_adapt_is_cached_and_byte_identical(service):
    first = service.dispatch("GET", ADAPT_TARGET)
    second = service.dispatch("GET", ADAPT_TARGET)
    assert first.headers["X-Repro-Cache"] == "miss"
    assert second.headers["X-Repro-Cache"] == "hit"
    assert first.body == second.body


def test_adapt_matches_the_cli_bytes(service, capsys):
    """The service/CLI consistency contract extends to /adapt."""
    from repro.__main__ import main

    resp = service.dispatch("GET", ADAPT_TARGET)
    main(["adapt", "--workload", "pic", "--size", "32", "--steps", "12",
          "--drift", "0.03", "--seed", "0", "--json"])
    cli = capsys.readouterr().out
    # the CLI maps npart/rebalance_every through the registry defaults,
    # so align the knobs the CLI does not expose via the POST body
    post = service.dispatch(
        "POST", "/adapt",
        json.dumps({"workload": "pic", "size": 32, "steps": 12,
                    "drift": 0.03, "seed": 0}),
    )
    assert post.status == resp.status == 200
    assert post.body == cli.rstrip("\n")


def test_adapt_mode_option_is_honored(service):
    resp = service.dispatch("GET", ADAPT_TARGET + "&mode=static")
    assert resp.status == 200
    doc = resp.json
    assert doc["mode"] == "static"
    assert doc["run"]["replans"] == []


def test_adapt_unsupported_workload_400(service):
    resp = service.dispatch("GET", "/adapt?workload=adi")
    assert resp.status == 400
    assert "no adaptive driver" in resp.json["error"]


def test_adapt_bad_mode_400(service):
    resp = service.dispatch("GET", ADAPT_TARGET + "&mode=turbo")
    assert resp.status == 400
