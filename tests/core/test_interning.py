"""Unit tests for hash-consing and the owner-map LRU caches (PR 4)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.dimdist import Block, Cyclic, GenBlock
from repro.core.distribution import dist_type
from repro.core.interning import (
    LRUCache,
    clear_interning_caches,
    intern_dimdist,
    intern_distribution,
    owners_cache_stats,
    owners_vec_cached,
    rank_map_cached,
)
from repro.machine import ProcessorArray
from repro.runtime.redistribute import PlanCache

R = ProcessorArray("R", (4,))


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_interning_caches()
    yield
    clear_interning_caches()


class TestLRUCache:
    def test_get_put_and_counters(self):
        c = LRUCache(capacity=2)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.hits == 1 and c.misses == 1

    def test_eviction_is_least_recently_used(self):
        c = LRUCache(capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")      # refresh a: b becomes LRU
        c.put("c", 3)   # evicts b
        assert "a" in c and "c" in c and "b" not in c

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_clear_resets(self):
        c = LRUCache(capacity=2)
        c.put("a", 1)
        c.get("a")
        c.clear()
        assert len(c) == 0 and c.hits == 0 and c.misses == 0

    def test_get_or_compute(self):
        c = LRUCache(capacity=2)
        assert c.get_or_compute("k", lambda: 7) == 7
        assert c.get_or_compute("k", lambda: 8) == 7  # cached


class TestInterning:
    def test_equal_dimdists_intern_to_one_object(self):
        a, b = Cyclic(3), Cyclic(3)
        assert a is not b
        assert intern_dimdist(a) is intern_dimdist(b)

    def test_distinct_dimdists_stay_distinct(self):
        assert intern_dimdist(Cyclic(2)) is not intern_dimdist(Cyclic(3))
        assert intern_dimdist(Block()) is not intern_dimdist(Cyclic(1))

    def test_equal_distributions_intern_to_one_object(self):
        d1 = dist_type("BLOCK", ":").apply((16, 4), R)
        d2 = dist_type("BLOCK", ":").apply((16, 4), R)
        assert d1 is not d2 and d1 == d2
        assert intern_distribution(d1) is intern_distribution(d2)
        assert d1.interned() is d2.interned()

    def test_interning_preserves_equality_semantics(self):
        d1 = dist_type("BLOCK", ":").apply((16, 4), R)
        d3 = dist_type(":", "BLOCK").apply((16, 4), R)
        assert intern_distribution(d1) != intern_distribution(d3)


class TestOwnersVecLRU:
    def test_cached_equals_direct(self):
        for dd in (Block(), Cyclic(2), GenBlock([5, 3, 0, 4])):
            direct = dd.owners_vec(12, 4)
            cached = owners_vec_cached(dd, 12, 4)
            assert np.array_equal(direct, cached)

    def test_cached_result_is_shared_and_readonly(self):
        v1 = owners_vec_cached(Block(), 12, 4)
        v2 = owners_vec_cached(Block(), 12, 4)  # fresh but equal intrinsic
        assert v1 is v2
        assert not v1.flags.writeable
        with pytest.raises(ValueError):
            v1[0] = 9

    def test_hit_miss_counters(self):
        s0 = owners_cache_stats()
        owners_vec_cached(Cyclic(2), 10, 4)
        owners_vec_cached(Cyclic(2), 10, 4)
        s1 = owners_cache_stats()
        assert s1["owners_vec_misses"] == s0["owners_vec_misses"] + 1
        assert s1["owners_vec_hits"] == s0["owners_vec_hits"] + 1


class TestRankMapLRU:
    def test_rank_map_shared_across_equal_instances(self):
        d1 = dist_type("BLOCK", ":").apply((16, 4), R)
        d2 = dist_type("BLOCK", ":").apply((16, 4), R)
        rm1 = d1.rank_map()
        rm2 = d2.rank_map()
        assert rm1 is rm2  # served from the shared LRU
        by_definition = [[d1.owner((i, j)) for j in range(4)] for i in range(16)]
        assert np.array_equal(np.asarray(rm1), by_definition)

    def test_rank_map_readonly(self):
        d = dist_type("BLOCK", ":").apply((16, 4), R)
        with pytest.raises(ValueError):
            np.asarray(d.rank_map())[0, 0] = 3

    def test_hit_miss_counters(self):
        d1 = dist_type("CYCLIC", ":").apply((16, 4), R)
        d2 = dist_type("CYCLIC", ":").apply((16, 4), R)
        s0 = owners_cache_stats()
        d1.rank_map()
        d2.rank_map()
        d2.rank_map()  # the LRU is the one holder: every call asks it
        s1 = owners_cache_stats()
        assert s1["rank_map_misses"] == s0["rank_map_misses"] + 1
        assert s1["rank_map_hits"] == s0["rank_map_hits"] + 2

    def test_the_bound_bounds_the_maps_alive(self):
        """Past capacity the LRU evicts, and an evicted map is freed —
        interned instances (pinned by the 4 096-entry table) included."""
        capacity = 256
        alive = []
        for n in range(capacity + 40):
            d = dist_type("BLOCK", ":").apply((16 + n, 2), R).interned()
            alive.append(weakref.ref(d.rank_map()))
            assert not d.rank_map().flags.writeable
        gc.collect()
        assert sum(ref() is not None for ref in alive) <= capacity


class TestStatsSurfacedThroughPlanCache:
    """The satellite requirement: the owners_vec/rank_map LRU hit/miss
    stats are observable through PlanCache.stats()."""

    def test_plan_cache_stats_carries_lru_counters(self):
        cache = PlanCache()
        old = dist_type("BLOCK", ":").apply((16, 4), R)
        new = dist_type(":", "BLOCK").apply((16, 4), R)
        before = cache.stats()
        cache.transfer_matrix(old, new, 4)
        s = cache.stats()
        for key in (
            "owners_vec_hits", "owners_vec_misses", "owners_vec_size",
            "rank_map_hits", "rank_map_misses", "rank_map_size",
            "interned_dimdists", "interned_distributions",
        ):
            assert key in s
        # a plan is composed from per-dimension owner vectors: it never
        # asks for an N-element rank map
        assert s["owners_vec_hits"] + s["owners_vec_misses"] > (
            before["owners_vec_hits"] + before["owners_vec_misses"])
        assert s["rank_map_hits"] == before["rank_map_hits"]
        assert s["rank_map_misses"] == before["rank_map_misses"]

    def test_lru_hits_grow_on_recomputation(self):
        cache = PlanCache()
        old = dist_type("BLOCK", ":").apply((16, 4), R)
        new = dist_type(":", "BLOCK").apply((16, 4), R)
        cache.transfer_matrix(old, new, 4)
        before = cache.stats()
        # structurally equal pair, fresh objects, fresh PlanCache: the
        # transfer matrix is recomputed but the owner maps come from
        # the shared LRU
        cache2 = PlanCache()
        old2 = dist_type("BLOCK", ":").apply((16, 4), R)
        new2 = dist_type(":", "BLOCK").apply((16, 4), R)
        cache2.transfer_matrix(old2, new2, 4)
        after = cache2.stats()
        assert after["owners_vec_hits"] > before["owners_vec_hits"]
