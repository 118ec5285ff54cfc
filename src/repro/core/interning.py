"""Hash-consing and owner-map caching for distribution metadata.

The planner's memo tables, the run time's :class:`PlanCache` and the
redistribution engine all key dictionaries by :class:`Distribution`
objects and repeatedly ask the same two vectorized questions —
``owners_vec(n, p)`` along one dimension and the full ``rank_map()``
of a bound distribution.  Distributions are immutable values, so both
questions are pure functions of the key; recomputing them per lookup
is the hot-path waste this module removes:

- :func:`intern_dimdist` / :func:`intern_distribution` — hash-consing:
  structurally equal instances resolve to one canonical object, so
  hashing is computed once and equality checks short-circuit on
  identity.  :func:`owners_vec_cached` interns intrinsics; nothing in
  the package interns distributions (``apply()`` returns a fresh
  object whose per-processor tables are its own, and the caches below
  key by *value*) — :meth:`Distribution.interned` is for callers;
- :func:`owners_vec_cached` / :func:`rank_map_cached` — bounded LRU
  caches over the two owner-map queries, returning read-only arrays,
  and the only holders of what they cache: what they evict is freed.
  Hit/miss counters are surfaced through
  :meth:`repro.runtime.redistribute.PlanCache.stats` so cache
  behaviour is observable wherever plan caching already is.

Everything here is semantics-free: interning and caching never change
a result, only how often it is recomputed (property-tested against the
uncached implementations).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

if TYPE_CHECKING:
    from .dimdist import DimDist
    from .distribution import Distribution

__all__ = [
    "LRUCache",
    "intern_dimdist",
    "intern_distribution",
    "owners_vec_cached",
    "rank_map_cached",
    "owners_cache_stats",
    "clear_interning_caches",
]


class LRUCache:
    """A small bounded mapping with least-recently-used eviction.

    ``get``/``put`` move the touched key to the most-recent end;
    inserting past ``capacity`` evicts the least recently used entry.
    Hit/miss counters accumulate until :meth:`clear`.

    Thread-safe: the process-wide interning tables (and any
    :class:`~repro.runtime.redistribute.PlanCache` shared across
    sessions, as the ``repro.serve`` pool does) are consulted from
    concurrent request threads, so every mutation holds an internal
    lock.  ``get_or_compute`` does **not** hold the lock across
    ``compute`` — a racing thread may compute the same pure value
    twice, which is benign; a long compute must never serialize every
    other cache user.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default=None):
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]):
        sentinel = _MISSING
        value = self.get(key, sentinel)
        if value is sentinel:
            value = compute()
            self.put(key, value)
        return value

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
            }

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data


_MISSING = object()

#: canonical instance per structurally distinct DimDist / Distribution.
#: Both tables are bounded LRUs: the *intrinsic* vocabulary of a
#: program is usually tiny, but Indirect/B_BLOCK intrinsics carry
#: per-element owner data and long-running irregular workloads mint a
#: fresh one per repartition — an unbounded table would pin them all.
_dimdist_table: LRUCache = LRUCache(capacity=512)
_dist_table: LRUCache = LRUCache(capacity=4096)

#: (dimdist, n, p) -> read-only owners vector
_owners_lru: LRUCache = LRUCache(capacity=1024)
#: distribution -> read-only rank map
_rank_map_lru: LRUCache = LRUCache(capacity=256)


def intern_dimdist(dd: "DimDist") -> "DimDist":
    """Canonical instance for a per-dimension distribution intrinsic.

    Structural equality (``type`` + ``params()``) picks the canonical
    representative; repeated interning of equal values returns the
    *same* object, so downstream caches keyed by the intrinsic share
    entries.  Bounded (LRU): data-carrying intrinsics (``Indirect``,
    ``B_BLOCK``) from churning workloads age out instead of pinning
    their owner arrays forever.
    """
    return _dimdist_table.get_or_compute(dd, lambda: dd)


def intern_distribution(dist: "Distribution") -> "Distribution":
    """Canonical instance for a bound distribution (hash-consing).

    Equal distributions (same type, domain, target section, dim_map)
    resolve to one shared object, making every dict keyed by a
    distribution — planner memos, :class:`PlanCache` entries, the
    rank-map LRU — hit on identity instead of comparing structure.
    The table pins what it holds (4 096 entries), tables included.
    """
    return _dist_table.get_or_compute(dist, lambda: dist)


def owners_vec_cached(dd: "DimDist", n: int, p: int) -> np.ndarray:
    """LRU-cached :meth:`~repro.core.dimdist.DimDist.owners_vec`.

    Returns a **read-only** array (shared between callers); copy
    before mutating.  Keyed by the interned intrinsic, so equal
    intrinsics share one entry.
    """
    key = (intern_dimdist(dd), int(n), int(p))
    vec = _owners_lru.get(key)
    if vec is None:
        vec = key[0].owners_vec(n, p)
        if vec.flags.writeable:
            vec = vec.copy()
            vec.setflags(write=False)
        _owners_lru.put(key, vec)
    return vec


def rank_map_cached(dist: "Distribution") -> np.ndarray:
    """:meth:`~repro.core.distribution.Distribution.rank_map` (which is
    this function).  The bounded LRU, keyed by the distribution's
    value, is the map's one holder: equal layouts built independently
    (the planner's candidate enumeration) share one computed map, and
    a map the LRU evicts is freed.  Read-only result.
    """
    return _rank_map_lru.get_or_compute(
        dist, lambda: dist.slot_ranks(np.ix_(*dist.owner_maps()))
    )


def owners_cache_stats() -> dict[str, int]:
    """Hit/miss/population counters of the owner-map caches.

    Surfaced through :meth:`repro.runtime.redistribute.PlanCache.stats`
    (keys prefixed ``owners_vec_`` / ``rank_map_``).
    """
    ov = _owners_lru.stats()
    rm = _rank_map_lru.stats()
    return {
        "owners_vec_hits": ov["hits"],
        "owners_vec_misses": ov["misses"],
        "owners_vec_evictions": ov["evictions"],
        "owners_vec_size": ov["size"],
        "rank_map_hits": rm["hits"],
        "rank_map_misses": rm["misses"],
        "rank_map_evictions": rm["evictions"],
        "rank_map_size": rm["size"],
        "interned_dimdists": len(_dimdist_table),
        "interned_distributions": len(_dist_table),
    }


def clear_interning_caches() -> None:
    """Drop every interning table and owner-map cache (test isolation)."""
    _dimdist_table.clear()
    _dist_table.clear()
    _owners_lru.clear()
    _rank_map_lru.clear()
