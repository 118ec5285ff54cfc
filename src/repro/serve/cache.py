"""The cross-session response cache — fingerprints in, bytes out.

Every cacheable service response is the serialized JSON of a typed
stage result, fully determined by the request's resolved configuration
(workload, params, nprocs, cost model, backend, seed, stage options).
:func:`repro.api.config_fingerprint` canonicalizes that configuration
into a SHA-256 key; this module stores the response *string* under it,
so a cache hit returns byte-identical JSON — the same guarantee two
sessions constructed from equal configs already give, lifted to the
service tier.

The store is a bounded LRU (:class:`repro.core.interning.LRUCache`,
thread-safe) shared by every session in the pool; ``stats()`` feeds
the ``/stats`` endpoint's hit-rate story alongside
:meth:`repro.runtime.redistribute.PlanCache.stats`.
"""

from __future__ import annotations

from ..api.results import config_fingerprint
from ..core.interning import LRUCache
from ..obs import metrics as _obs

__all__ = ["ResponseCache", "request_fingerprint"]

_RESPONSE_CACHE_LOOKUPS = _obs.counter(
    "repro_response_cache_lookups_total",
    "Response-cache lookups at the serving tier, by outcome.",
    ("result",),
)
_RESPONSE_CACHE_EVICTIONS = _obs.counter(
    "repro_response_cache_evictions_total",
    "Responses evicted from the serving tier's LRU.",
)


def request_fingerprint(
    endpoint: str,
    workload: str,
    *,
    nprocs: int,
    cost_model: str,
    backend: str | None,
    seed: int,
    params: dict,
    options: dict | None = None,
) -> str:
    """The canonical cache key of one service request.

    Field order and spelling never matter — the digest is over the
    sorted-key canonical JSON (see
    :func:`repro.api.config_fingerprint`), so equivalent requests from
    different clients collapse onto one cache entry.
    """
    return config_fingerprint(
        {
            "endpoint": endpoint,
            "workload": workload,
            "nprocs": nprocs,
            "cost_model": cost_model,
            "backend": backend,
            "seed": seed,
            "params": params,
            "options": options or {},
        }
    )


class ResponseCache:
    """Fingerprint -> serialized-response LRU with hit-rate stats."""

    def __init__(self, capacity: int = 256):
        self._lru = LRUCache(capacity)

    def get(self, fingerprint: str) -> str | None:
        body = self._lru.get(fingerprint)
        _RESPONSE_CACHE_LOOKUPS.inc(
            result="hit" if body is not None else "miss")
        return body

    def put(self, fingerprint: str, body: str) -> None:
        lru = self._lru
        with lru._lock:  # re-entrant: the evictions counted are this put's
            before = lru.evictions
            lru.put(fingerprint, body)
            evicted = lru.evictions - before
        if evicted:
            _RESPONSE_CACHE_EVICTIONS.inc(evicted)

    def stats(self) -> dict:
        """Hits, misses, population, capacity and the derived hit rate
        (``None`` until the first lookup)."""
        s = self._lru.stats()
        total = s["hits"] + s["misses"]
        s["capacity"] = self._lru.capacity
        s["hit_rate"] = (s["hits"] / total) if total else None
        return s

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)
