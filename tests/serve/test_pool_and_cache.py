"""SessionPool checkout/checkin semantics and the fingerprinted ResponseCache."""

import pytest

from repro.api import SessionConfig
from repro.serve import ResponseCache, SessionPool, request_fingerprint


# -- pool ------------------------------------------------------------------


def test_acquire_creates_then_reuses():
    with SessionPool() as pool:
        cfg = SessionConfig(nprocs=4)
        first = pool.acquire(cfg)
        pool.release(first)
        second = pool.acquire(cfg)
        pool.release(second)
        assert second is first
        stats = pool.stats()
        assert stats["created"] == 1
        assert stats["reused"] == 1
        assert stats["idle"] == 1


def test_distinct_configs_get_distinct_sessions():
    with SessionPool() as pool:
        a = pool.acquire(SessionConfig(nprocs=4))
        b = pool.acquire(SessionConfig(nprocs=8))
        assert a is not b
        pool.release(a)
        pool.release(b)
        assert pool.stats()["configs"] == 2


def test_equal_configs_share_even_across_instances():
    # the key is the config *fingerprint*, not object identity
    with SessionPool() as pool:
        a = pool.acquire(SessionConfig(nprocs=4, cost_model="Paragon"))
        pool.release(a)
        b = pool.acquire(SessionConfig(nprocs=4, cost_model="Paragon"))
        assert b is a


def test_max_idle_bounds_the_stack():
    with SessionPool(max_idle=1) as pool:
        cfg = SessionConfig(nprocs=4)
        a, b = pool.acquire(cfg), pool.acquire(cfg)
        pool.release(a)
        pool.release(b)  # over the bound: discarded and closed
        assert pool.stats()["idle"] == 1
        assert pool.stats()["discarded"] == 1
        assert b.closed and not a.closed


def test_closed_sessions_are_not_restacked():
    with SessionPool() as pool:
        cfg = SessionConfig(nprocs=4)
        sess = pool.acquire(cfg)
        sess.close()
        pool.release(sess)
        assert pool.stats()["idle"] == 0
        assert pool.acquire(cfg) is not sess


def test_idle_sessions_keep_their_fleet_until_the_pool_closes():
    import multiprocessing

    def workers():
        return [p for p in multiprocessing.active_children()
                if p.name.startswith("vfe-worker-")]

    with SessionPool() as pool:
        cfg = SessionConfig(nprocs=2, backend="multiprocess")
        sess = pool.acquire(cfg)
        assert pool.stats()["idle_with_fleet"] == 0
        assert sess.workload("adi", size=12).run().backend == "multiprocess"
        pool.release(sess)
        pool.release(pool.acquire(SessionConfig(nprocs=2)))  # serial: no fleet
        assert pool.stats()["idle"] == 2
        assert pool.stats()["idle_with_fleet"] == 1
        pids = {p.pid for p in workers()}
        again = pool.acquire(cfg)  # the next tenant inherits the workers
        again.workload("smoothing", size=12).run()
        assert {p.pid for p in workers()} == pids and len(pids) == 2
        pool.release(again)
    assert workers() == []


def test_pool_close_drains_idle_sessions():
    pool = SessionPool()
    sess = pool.acquire(SessionConfig(nprocs=4))
    pool.release(sess)
    pool.close()
    assert sess.closed
    with pytest.raises(RuntimeError, match="closed"):
        pool.acquire(SessionConfig(nprocs=4))


def test_all_pooled_sessions_share_the_plan_cache():
    with SessionPool() as pool:
        a = pool.acquire(SessionConfig(nprocs=4))
        b = pool.acquire(SessionConfig(nprocs=8))
        assert a.plan_cache is pool.plan_cache
        assert b.plan_cache is pool.plan_cache
        pool.release(a)
        pool.release(b)


def test_bad_max_idle_rejected():
    with pytest.raises(ValueError, match="max_idle"):
        SessionPool(max_idle=-1)


# -- response cache --------------------------------------------------------


def test_response_cache_roundtrip_and_stats():
    cache = ResponseCache(capacity=4)
    assert cache.get("fp") is None
    cache.put("fp", "{}")
    assert cache.get("fp") == "{}"
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    assert stats["size"] == 1
    assert stats["capacity"] == 4


def test_response_cache_evicts_lru():
    cache = ResponseCache(capacity=2)
    cache.put("a", "1")
    cache.put("b", "2")
    cache.get("a")        # a is now most recently used
    cache.put("c", "3")   # evicts b
    assert cache.get("a") == "1"
    assert cache.get("b") is None
    assert cache.get("c") == "3"


def test_lookups_count_exactly_once_under_eviction():
    """Every lookup is one hit or one miss, and the outcome it returns
    is the one it counts, even while other threads evict the entry it
    is reading."""
    import sys
    import threading

    cache = ResponseCache(capacity=2)
    found = [0] * 8
    rounds = 3000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker(t):
            for i in range(rounds):
                if t % 2:
                    cache.put(str(i % 3), "{}")
                elif cache.get(str(i % 3)) is not None:
                    found[t] += 1

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    stats = cache.stats()
    assert stats["hits"] == sum(found)
    assert stats["hits"] + stats["misses"] == 4 * rounds


def test_request_fingerprint_is_order_insensitive():
    fp1 = request_fingerprint(
        "run", "adi", nprocs=4, cost_model="Paragon", backend=None,
        seed=0, params={"size": 16, "iterations": 1}, options={})
    fp2 = request_fingerprint(
        "run", "adi", nprocs=4, cost_model="Paragon", backend=None,
        seed=0, params={"iterations": 1, "size": 16}, options={})
    assert fp1 == fp2
    assert len(fp1) == 64  # sha256 hex


def test_request_fingerprint_separates_every_dimension():
    base = dict(nprocs=4, cost_model="Paragon", backend=None, seed=0,
                params={"size": 16}, options={})
    fp = request_fingerprint("run", "adi", **base)
    for variant in (
        request_fingerprint("trace", "adi", **base),
        request_fingerprint("run", "pic", **base),
        request_fingerprint("run", "adi", **{**base, "nprocs": 8}),
        request_fingerprint("run", "adi", **{**base, "seed": 1}),
        request_fingerprint("run", "adi", **{**base, "backend": "serial"}),
        request_fingerprint("run", "adi", **{**base, "params": {"size": 32}}),
        request_fingerprint("run", "adi",
                            **{**base, "options": {"compact": True}}),
    ):
        assert variant != fp
