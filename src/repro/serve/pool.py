"""The session pool — many tenants, bounded :class:`~repro.api.Session` reuse.

A service request names a session configuration (nprocs, cost model,
backend, seed policy); the pool keeps a small stack of idle sessions
per *distinct* configuration and hands them out to request threads.
Sessions are cheap to construct (no machine or backend is built until
a stage runs), so the pool's real job is sharing: every session it
creates is wired to **one** :class:`~repro.backend.plan.PlanCache`,
so a plan memoized while serving tenant A is a hit when tenant B asks
the planner the same question — the cross-session reuse the
``/stats`` endpoint quantifies.

Thread-safe; close() drains every idle session.
"""

from __future__ import annotations

import threading

from ..api.config import SessionConfig
from ..api.registry import WorkloadRegistry
from ..api.results import config_fingerprint
from ..api.session import Session
from ..backend.plan import PlanCache
from ..obs import flight as _flight
from ..obs import metrics as _obs

__all__ = ["SessionPool"]

_POOL_EVICTIONS = _obs.counter(
    "repro_pool_evictions_total",
    "Pooled sessions evicted instead of restacked, by cause.",
    ("cause",),
)


class SessionPool:
    """Bounded reuse of sessions keyed by their config fingerprint.

    ``max_idle`` bounds the idle stack *per configuration*; sessions
    released beyond it (or released closed) are discarded.  All pooled
    sessions share ``plan_cache`` (one is created if not given).  An
    idle multiprocess session keeps its worker fleet, so an idle pool
    can hold up to ``max_idle * nprocs`` sleeping worker processes per
    configuration (``stats()["idle_with_fleet"]`` says how many
    sessions do); :meth:`close` stops them.
    """

    def __init__(
        self,
        registry: WorkloadRegistry | None = None,
        plan_cache: PlanCache | None = None,
        max_idle: int = 4,
    ):
        if max_idle < 0:
            raise ValueError(f"max_idle must be >= 0, got {max_idle}")
        self.registry = registry
        #: the shared cross-session plan cache every pooled session uses
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.max_idle = int(max_idle)
        self._idle: dict[str, list[Session]] = {}
        self._lock = threading.Lock()
        self._closed = False
        self.created = 0
        self.reused = 0
        self.discarded = 0
        self.active = 0
        #: sessions retired on release because their backend tier was
        #: poisoned (use-after-fleet-death protection, ISSUE 9)
        self.evictions = 0

    @staticmethod
    def _key(config: SessionConfig) -> str:
        return config_fingerprint(config.to_json())

    # -- checkout / checkin ------------------------------------------------
    def acquire(self, config: SessionConfig) -> Session:
        """An open session for ``config`` — reused when an idle one
        with an equal config exists, freshly constructed otherwise."""
        config = config.validate()
        key = self._key(config)
        with self._lock:
            if self._closed:
                raise RuntimeError("session pool is closed")
            stack = self._idle.get(key)
            if stack:
                self.reused += 1
                self.active += 1
                return stack.pop()
            self.created += 1
            self.active += 1
        # construction happens outside the lock: it is cheap but there
        # is no reason to serialize unrelated tenants on it
        return Session(config, registry=self.registry, plan_cache=self.plan_cache)

    def release(self, session: Session) -> None:
        """Return a session to the pool (idempotent with close: a
        closed session is discarded, not restacked).

        A *poisoned* session — one whose backend fleet died during a
        stage — is evicted rather than handed to the next request: it
        still works (stages degrade to serial), but the next tenant
        deserves a clean slate, not a session that will silently run
        one-process.
        """
        key = self._key(session.config)
        poisoned = getattr(session, "poisoned", False)
        with self._lock:
            self.active = max(0, self.active - 1)
            if not self._closed and not session.closed and not poisoned:
                stack = self._idle.setdefault(key, [])
                if len(stack) < self.max_idle:
                    stack.append(session)
                    return
            self.discarded += 1
            if poisoned:
                self.evictions += 1
        if poisoned:
            _POOL_EVICTIONS.inc(cause="poisoned")
            _flight.note(
                "pool.evicted", cause="poisoned",
                backend=session.config.backend_name,
            )
        session.close()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Close every idle session; further acquires raise."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for stack in idle.values():
            for session in stack:
                session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            idle = sum(len(s) for s in self._idle.values())
            with_fleet = sum(
                1 for s in self._idle.values() for sess in s if sess.live_fleets
            )
            return {
                "created": self.created,
                "reused": self.reused,
                "discarded": self.discarded,
                "evictions": self.evictions,
                "active": self.active,
                "idle": idle,
                "idle_with_fleet": with_fleet,
                "configs": len(self._idle),
                "max_idle": self.max_idle,
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SessionPool(created={s['created']}, reused={s['reused']}, "
            f"active={s['active']}, idle={s['idle']})"
        )
