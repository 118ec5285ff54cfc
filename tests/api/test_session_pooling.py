"""Pool-safety of Session (ISSUE 6 satellite) and cross-session PlanCache
sharing: lifecycle guards, cheap construction, bitwise-identical plans from
concurrent sessions over one shared cache, monotone hit counters."""

import json
import multiprocessing
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.api import Session, SessionClosedError, SessionConfig
from repro.runtime.redistribute import PlanCache


# -- lifecycle (satellite: Session safe to pool) ---------------------------


def test_close_is_idempotent():
    sess = Session()
    sess.close()
    sess.close()  # second close is a no-op, not an error
    assert sess.closed


def test_use_after_close_raises_session_closed_error():
    sess = Session()
    sess.close()
    with pytest.raises(SessionClosedError, match="closed"):
        sess.workload("adi")
    with pytest.raises(SessionClosedError):
        sess.machine()
    with pytest.raises(SessionClosedError):
        sess.engine()
    with pytest.raises(SessionClosedError):
        with sess:
            pass
    with pytest.raises(SessionClosedError):
        with sess.attach(Session().machine()):
            pass


def test_session_closed_error_is_a_runtime_error():
    # pool code that catches RuntimeError keeps working
    assert issubclass(SessionClosedError, RuntimeError)
    assert repro.SessionClosedError is SessionClosedError


def test_construction_is_cheap():
    # pooling relies on sessions not building machines/backends eagerly
    workers = multiprocessing.active_children()
    sess = Session(SessionConfig(nprocs=8, backend="multiprocess"))
    assert multiprocessing.active_children() == workers
    sess.close()  # nothing was built, nothing to tear down
    assert sess.closed


def test_workloads_listing_survives_close():
    # introspection of a closed session is fine; only *work* raises
    sess = Session()
    sess.close()
    assert "adi" in sess.workloads()
    assert "closed" in repr(sess)


# -- cross-session plan-cache sharing (satellite: test coverage) -----------


def _plan_json(sess: Session, seed: int) -> str:
    return sess.workload("adi", size=16, seed=seed).plan().json_str()


def test_shared_plan_cache_is_used_by_both_sessions():
    shared = PlanCache()
    a = Session(plan_cache=shared)
    b = Session(plan_cache=shared)
    assert a.plan_cache is shared and b.plan_cache is shared
    # independent sessions get independent caches
    assert Session().plan_cache is not Session().plan_cache


def test_sequential_sessions_hit_the_shared_cache():
    shared = PlanCache()
    first = _plan_json(Session(plan_cache=shared), seed=0)
    before = shared.stats()
    second = _plan_json(Session(plan_cache=shared), seed=0)
    after = shared.stats()
    assert first == second  # bitwise-identical plans
    assert after["hits"] > before["hits"]
    assert after["misses"] == before["misses"]  # nothing recomputed


def test_concurrent_sessions_share_one_cache_bitwise():
    shared = PlanCache()
    # warm the cache once so the concurrent phase measures pure sharing
    # (a cold start would race 6 benign duplicate computations)
    reference = _plan_json(Session(plan_cache=shared), seed=0)
    warm = shared.stats()
    sessions = [Session(plan_cache=shared) for _ in range(6)]

    with ThreadPoolExecutor(max_workers=6) as pool:
        bodies = list(pool.map(lambda s: _plan_json(s, 0), sessions))

    # every concurrent session produced byte-identical plan JSON
    assert set(bodies) == {reference}
    stats = shared.stats()
    # the cache was genuinely shared: hits grew, nothing was recomputed
    assert stats["hits"] > warm["hits"]
    assert stats["misses"] == warm["misses"]
    for sess in sessions:
        sess.close()


def test_hit_counters_are_monotone_across_sessions():
    shared = PlanCache()
    seen_hits = []
    for _ in range(4):
        _plan_json(Session(plan_cache=shared), seed=0)
        seen_hits.append(shared.stats()["hits"])
    assert seen_hits == sorted(seen_hits)
    assert seen_hits[-1] > seen_hits[0]


def test_shared_cache_does_not_leak_across_configs():
    # different seeds are different planner inputs: distinct entries,
    # but both still land in the one shared store
    shared = PlanCache()
    a = _plan_json(Session(plan_cache=shared), seed=0)
    b = _plan_json(Session(plan_cache=shared), seed=1)
    payload_a, payload_b = json.loads(a), json.loads(b)
    assert payload_a["workload"] == payload_b["workload"] == "adi"
    # replaying either seed now hits
    before = shared.stats()["hits"]
    assert _plan_json(Session(plan_cache=shared), seed=1) == b
    assert shared.stats()["hits"] > before
