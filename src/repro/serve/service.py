"""The transport-agnostic planning service.

:class:`PlanningService` is the whole multi-tenant story with no
socket in sight: it owns the session pool (whose one cross-session
:class:`~repro.backend.plan.PlanCache` every stage of every request
looks its plans up in) and the response cache, and maps ``(method,
path, params)`` onto the workload registry:

========== ====== ======================================================
path       verbs  meaning
========== ====== ======================================================
/workloads GET    the registry: names, defaults, descriptions
/plan      GET/POST run the automatic distribution planner
/run       GET/POST execute a workload; typed RunResult JSON
/trace     GET/POST record + simulate; typed TraceResult JSON
/bench     GET/POST wall-clock repetitions (never cached)
/adapt     GET/POST online adaptive redistribution; typed AdaptResult
/stats     GET    plan-cache, response-cache, pool and request counters
/healthz   GET    liveness + version + uptime
/metrics   GET    Prometheus text exposition of the obs registry
========== ====== ======================================================

Request parameters ride in the query string and/or a JSON object body
(body keys win).  Which keys a stage accepts, their types, defaults and
choices is the parameter table of :mod:`repro.api.params` — the same
rows the CLI's flags are built from: :func:`~repro.api.params.resolve`
types every value before the request is fingerprinted, so ``size=16``,
``"16"`` and ``16.0`` are one request, and an unknown key or an
ill-typed value is a 400 naming the workload, the parameter, what it
expects and what it got.

Responses are the **byte-identical** ``json_str()`` payloads the CLI's
``--json`` flags print (that is the service/CLI consistency contract),
so deterministic stages are cached across sessions by config
fingerprint: a hit replays the stored bytes and says so in the
``X-Repro-Cache`` header, never in the body.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple
from urllib.parse import parse_qsl, urlsplit

from ..api.config import SessionConfig
from ..api.params import STAGE_OPTIONS, WORKLOAD, Request, invoke, resolve
from ..api.registry import REGISTRY, WorkloadRegistry, WorkloadSpec
from ..api.results import _jsonable
from ..api.session import SessionClosedError
from ..backend.base import BackendError
from ..faults.breaker import CLOSED, CircuitBreaker
from ..obs import metrics as _obs
from ..obs.flight import flight_recorder
from ..obs.tracing import request_scope, span as _span
from ..obs.trajectory import environment_fingerprint
from .cache import ResponseCache, request_fingerprint
from .pool import SessionPool

__all__ = ["PlanningService", "ServeResponse", "Admitted", "ENDPOINTS"]

#: the service surface: one stage endpoint per row of the stage table
ENDPOINTS = ("/workloads", *("/" + stage for stage in STAGE_OPTIONS),
             "/stats", "/healthz", "/metrics")

#: one structured line per request lands here (serve_forever attaches a
#: stderr handler; under test the logger stays silent unless configured)
_LOG = logging.getLogger("repro.serve")

_HTTP_REQUESTS = _obs.counter(
    "repro_http_requests_total",
    "Service requests, by route, status code and cache tier.",
    ("route", "status", "cache"),
)
_HTTP_SECONDS = _obs.histogram(
    "repro_http_request_seconds",
    "Service request latency in seconds, by route.",
    ("route",),
)
_HTTP_RETRIES = _obs.counter(
    "repro_http_retries_total",
    "Idempotent-GET retries performed inside the service, by route.",
    ("route",),
)
_CIRCUIT_TRANSITIONS = _obs.counter(
    "repro_circuit_transitions_total",
    "Per-route circuit-breaker state transitions.",
    ("route", "state"),
)

#: exceptions a fleet restart / fresh session might cure — eligible
#: for in-service retry (idempotent GETs) and mapped to 503 + Retry-After
#: rather than 500 when retries are exhausted
RECOVERABLE = (BackendError, MemoryError, SessionClosedError)

#: stage endpoints whose responses are pure functions of the request
#: fingerprint (bench is wall-clock, so it is never cached)
CACHEABLE = frozenset({"plan", "run", "trace", "adapt"})


@dataclass
class ServeResponse:
    """One HTTP-shaped answer: status, JSON body string, extra headers."""

    status: int
    body: str
    headers: dict = field(default_factory=dict)

    @property
    def json(self):
        """The parsed body (tests and in-process callers)."""
        return json.loads(self.body)


def _error(status: int, message: str) -> ServeResponse:
    return ServeResponse(
        status, json.dumps({"error": str(message)}, indent=2),
        {"X-Repro-Cache": "bypass"},
    )


def _incident(
    status: int, message: str, reason: str, attrs: dict, *,
    error: BaseException | None = None, retry_after: float | None = None,
) -> ServeResponse:
    """A ``status`` answer naming the incident it opens; a shed one
    also says when to retry."""
    incident = flight_recorder.incident(reason, error=error, attrs=attrs)
    response = _error(status, message)
    if retry_after is not None:
        response.headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
    response.headers["X-Repro-Incident-Id"] = incident["incident_id"]
    return response


def _route(target: str) -> str:
    return urlsplit(target).path.rstrip("/") or "/"


def _params(target: str, body: bytes | str | None) -> dict:
    """Query-string then JSON-body parameters (a bad body: ValueError)."""
    params = dict(parse_qsl(urlsplit(target).query))
    if body:
        if isinstance(body, bytes):
            body = body.decode("utf-8", errors="replace")
        if body.strip():
            try:
                parsed = json.loads(body)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON body: {exc}") from None
            if not isinstance(parsed, dict):
                raise ValueError("request body must be a JSON object")
            params.update(parsed)
    return params


class Admitted(NamedTuple):
    """A stage request the admission step read: what the pool computes."""

    method: str
    path: str
    spec: WorkloadSpec
    req: Request
    fingerprint: str
    #: ``perf_counter()`` at admission: the request's latency starts here
    t0: float = 0.0


class PlanningService:
    """Multi-tenant plan/run/trace/bench over the workload registry.

    One instance is the whole shared state of a server: construct it
    once, dispatch from as many threads as you like.  A stage request
    is read once: :meth:`admit` parses, resolves and fingerprints it
    and, on a closed breaker, makes its one counted response-cache
    lookup and answers a hit; :meth:`complete` computes what it
    admitted (breaker, workload, store, record) on the caller's thread.
    The asyncio front end admits on its loop and completes on its pool,
    one thread per in-flight miss.  So a request that missed at
    admission is computed and answered ``miss`` even if a concurrent
    one stored its fingerprint first (the bytes are the same).
    """

    def __init__(
        self,
        registry: WorkloadRegistry | None = None,
        *,
        max_idle_sessions: int = 4,
        response_cache_capacity: int = 256,
        observability: bool = True,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 5.0,
        get_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_after_seconds: int = 1,
    ):
        self.registry = registry if registry is not None else REGISTRY
        #: its ``plan_cache`` is the one store under every pooled
        #: session (``/stats`` proves the cross-session reuse)
        self.pool = SessionPool(
            registry=self.registry, max_idle=max_idle_sessions
        )
        self.responses = ResponseCache(capacity=response_cache_capacity)
        #: resilience policy (ISSUE 9): bounded exponential-backoff
        #: retry for idempotent GETs, then a per-route circuit breaker
        #: shedding load with 503 + Retry-After while a route is sick
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.get_retries = int(get_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_after_seconds = int(retry_after_seconds)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._errors = 0
        self._started = time.monotonic()
        #: version/git/python/numpy provenance served by /healthz (the
        #: cheap half of the fingerprint — no timed machine probes)
        self._env = environment_fingerprint(probe=False)
        #: a serving process wants its metrics recorded — flip the
        #: process-wide switch on construction unless told otherwise
        if observability:
            _obs.enable()
        _obs.registry.add_collector(self._collect_gauges)

    def _collect_gauges(self) -> None:
        """Scrape-time gauges: cache/pool state that is cheaper to pull
        than to push on every operation (includes the interning LRUs)."""
        gauge = _obs.gauge(
            "repro_cache_stat",
            "Cache and pool statistics sampled at scrape time.",
            ("source", "stat"),
        )
        for source, stats in (
            ("plan_cache", self.pool.plan_cache.stats()),
            ("response_cache", self.responses.stats()),
            ("sessions", self.pool.stats()),
        ):
            for stat, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    gauge.set(value, source=source, stat=stat)
        _obs.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the PlanningService was constructed.",
        ).set(self.uptime_seconds())

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        _obs.registry.remove_collector(self._collect_gauges)
        self.pool.close()

    def __enter__(self) -> "PlanningService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------
    def dispatch(
        self, method: str, target: str, body: bytes | str | None = None
    ) -> ServeResponse:
        """Route one request: :meth:`admit`, then :meth:`complete` what
        it admitted.  ``target`` is the request path with optional query
        string; ``body`` an optional JSON object.

        Every request gets a fresh request ID (propagated to spans via
        contextvars and returned in ``X-Repro-Request-Id``), a latency
        observation, and one structured log line on the
        ``repro.serve`` logger.
        """
        t0 = time.perf_counter()
        admitted = self.admit(method, target, body)
        if isinstance(admitted, Admitted):
            return self.complete(admitted)
        if admitted is not None:
            return admitted
        path = _route(target)
        return self._recorded(method, path, t0,
                              self._dispatch, method, path, target, body)

    def admit(
        self, method: str, target: str, body: bytes | str | None = None
    ) -> ServeResponse | Admitted | None:
        """The admission step: a stage GET/POST's recorded hit, or the
        :class:`Admitted` request for :meth:`complete` (a miss,
        ``/bench``, a breaker not closed); ``None``, having counted
        nothing, leaves the rest (other routes, 4xx, 500) to
        :meth:`dispatch`.  It runs no workload and never asks the
        breaker to admit (that admits the half-open probe)."""
        t0, path = time.perf_counter(), _route(target)
        endpoint = path.lstrip("/")
        if endpoint not in STAGE_OPTIONS or method.upper() not in ("GET", "POST"):
            return None
        try:
            params = _params(target, body)
            breaker = self._breaker(path)
            admitted = Admitted(
                method, path, *self._resolve(endpoint, params), t0)
        except Exception:  # a 4xx or a 500: dispatch's to answer
            return None
        if endpoint in CACHEABLE and breaker.state == CLOSED:
            cached = self.responses.get(admitted.fingerprint)
            if cached is not None:
                breaker.record_success()
                return self._recorded(
                    method, path, t0, ServeResponse, 200, cached,
                    {"X-Repro-Cache": "hit",
                     "X-Repro-Fingerprint": admitted.fingerprint})
        return admitted

    def complete(self, admitted: Admitted) -> ServeResponse:
        """Compute an admitted request behind its route's breaker, store
        a cacheable response and record the request (the pool's half)."""
        return self._recorded(admitted.method, admitted.path, admitted.t0,
                              self._guarded, admitted)

    def abandon(self, admitted: Admitted) -> None:
        """Nobody waits for ``admitted`` any more (its deadline passed):
        free its route's probe slot so the next request probes; the
        late verdict still lands when the stage ends."""
        self._breaker(admitted.path).release()

    def _recorded(
        self, method: str, route: str, t0: float, answer, *args
    ) -> ServeResponse:
        """``answer(*args)``, its exceptions mapped to 404/400/500, with
        the request scope, span, metrics, flight note and log line
        every request gets."""
        with request_scope() as rid:
            with _span("serve.request", route=route, method=method):
                try:
                    response = answer(*args)
                except KeyError as exc:
                    response = _error(404, exc.args[0] if exc.args else exc)
                except (TypeError, ValueError) as exc:
                    response = _error(400, exc)
                except Exception as exc:  # a bug, not a bad request
                    # the incident carries this request's IDs and spans
                    response = _incident(
                        500, f"{type(exc).__name__}: {exc}",
                        f"serve 500 on {route}",
                        {"route": route, "method": method}, error=exc)
                with self._lock:
                    self._requests[route] = self._requests.get(route, 0) + 1
                    self._errors += response.status >= 400
            elapsed = time.perf_counter() - t0
            response.headers.setdefault("X-Repro-Request-Id", rid)
            tier = response.headers.get("X-Repro-Cache", "none")
            _HTTP_REQUESTS.inc(route=route, status=response.status,
                               cache=tier)
            _HTTP_SECONDS.observe(elapsed, route=route)
            # the always-on flight recorder sees every request outcome
            # (bounded; metrics may be off, this is not)
            flight_recorder.note(
                "serve.request", request_id=rid, route=route,
                status=response.status, ms=round(elapsed * 1e3, 3),
                cache=tier,
            )
            if _LOG.isEnabledFor(logging.INFO):
                _LOG.info(json.dumps(
                    {"event": "request", "request_id": rid, "route": route,
                     "status": response.status,
                     "ms": round(elapsed * 1e3, 3), "cache": tier},
                    sort_keys=True))
        return response

    def _dispatch(
        self, method: str, path: str, target: str, body
    ) -> ServeResponse:
        """What admission left: fixed routes, 405/404, 4xx and 500."""
        fixed = {"/workloads": self._workloads, "/stats": self._stats,
                 "/healthz": self._healthz, "/metrics": self._metrics}
        params = _params(target, body)
        if method.upper() not in ("GET", "POST"):
            return _error(405, f"method {method} not allowed")
        if path in fixed:
            return fixed[path]()
        endpoint = path.lstrip("/")
        if endpoint in STAGE_OPTIONS:
            return self._guarded(
                Admitted(method, path, *self._resolve(endpoint, params)))
        return _error(404, f"no such endpoint {path!r} "
                           f"(available: {', '.join(ENDPOINTS)})")

    # -- fixed endpoints ---------------------------------------------------
    def _workloads(self) -> ServeResponse:
        specs = [
            {
                "name": spec.name,
                "description": spec.description,
                "defaults": _jsonable(spec.defaults),
                "plannable": spec.plannable,
            }
            for spec in self.registry
        ]
        body = json.dumps(
            {"schema": "repro-serve-workloads/1", "workloads": specs},
            indent=2,
        )
        return ServeResponse(200, body, {"X-Repro-Cache": "bypass"})

    def _stats(self) -> ServeResponse:
        from .. import __version__

        with self._lock:
            requests = dict(sorted(self._requests.items()))
            errors = self._errors
        breakers = self.breaker_stats()
        body = json.dumps(
            {
                "schema": "repro-serve-stats/1",
                "version": __version__,
                "uptime_seconds": round(self.uptime_seconds(), 3),
                "plan_cache": self.pool.plan_cache.stats(),
                "response_cache": self.responses.stats(),
                "sessions": self.pool.stats(),
                "breakers": breakers,
                "requests": requests,
                "errors": errors,
                "workloads": list(self.registry.names()),
                "observability": _obs.enabled(),
            },
            indent=2,
        )
        return ServeResponse(200, body, {"X-Repro-Cache": "bypass"})

    def _healthz(self) -> ServeResponse:
        from .. import __version__

        return ServeResponse(
            200,
            json.dumps(
                {
                    "ok": True,
                    "version": __version__,
                    "git_sha": self._env.get("git_sha"),
                    "python": self._env.get("python"),
                    "numpy": self._env.get("numpy"),
                    "uptime_seconds": round(self.uptime_seconds(), 3),
                    "incidents": len(flight_recorder.incidents()),
                },
                indent=2,
            ),
            {"X-Repro-Cache": "bypass"},
        )

    def _metrics(self) -> ServeResponse:
        """Prometheus text exposition of the process-wide registry."""
        return ServeResponse(
            200,
            _obs.registry.render(),
            {
                "X-Repro-Cache": "bypass",
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            },
        )

    # -- stage endpoints ---------------------------------------------------
    def _breaker(self, route: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(route)
            if breaker is None:
                def on_transition(old, new, route=route):
                    _CIRCUIT_TRANSITIONS.inc(route=route, state=new)
                    flight_recorder.note(
                        "serve.circuit", route=route, old=old, new=new,
                    )
                breaker = CircuitBreaker(
                    self.breaker_threshold, self.breaker_cooldown,
                    on_transition=on_transition,
                )
                self._breakers[route] = breaker
            return breaker

    def breaker_stats(self) -> dict:
        with self._lock:
            return {
                route: breaker.stats()
                for route, breaker in sorted(self._breakers.items())
            }

    def _guarded(self, admitted: Admitted) -> ServeResponse:
        """The resilience wrapper around :meth:`_stage`.

        Order of defenses: (1) the route's circuit breaker sheds
        immediately while open; (2) recoverable faults on idempotent
        GETs are retried with bounded exponential backoff (a fresh
        pooled session each attempt — the poisoned one was evicted on
        release); (3) exhausted recoverable faults become 503 +
        Retry-After with an incident ID; (4) everything else keeps the
        existing 4xx/500 mapping, but still feeds the breaker.
        """
        path = admitted.path
        breaker = self._breaker(path)
        if not breaker.allow():
            reason = (f"circuit open for {path} (recent failures reached "
                      f"{breaker.failure_threshold})")
            return _incident(
                503, reason, f"serve 503 on {path}",
                {"route": path, "reason": reason},
                retry_after=breaker.retry_after() or self.retry_after_seconds)
        endpoint = path.lstrip("/")
        idempotent = admitted.method.upper() == "GET"
        attempt = 0
        while True:
            try:
                response = self._stage(endpoint, admitted)
            except (KeyError, TypeError, ValueError):
                # client errors (4xx upstream) say nothing of the
                # backend: no verdict, but a probe frees its slot
                breaker.release()
                raise
            except RECOVERABLE as exc:
                if idempotent and attempt < self.get_retries:
                    delay = self.retry_backoff * (2 ** attempt)
                    attempt += 1
                    _HTTP_RETRIES.inc(route=path)
                    flight_recorder.note(
                        "serve.retry", route=path, attempt=attempt,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    time.sleep(delay)
                    continue
                breaker.record_failure()
                reason = f"backend unavailable: {type(exc).__name__}: {exc}"
                return _incident(
                    503, reason, f"serve 503 on {path}",
                    {"route": path, "reason": reason}, error=exc,
                    retry_after=self.retry_after_seconds)
            except Exception:
                # a bug: the caller's 500 path mints the incident, but
                # the breaker must still see the failure
                breaker.record_failure()
                raise
            breaker.record_success()
            return response

    def _resolve(self, endpoint: str, params: dict) -> tuple:
        """``(spec, typed request, response-cache key)`` of a stage."""
        params = dict(params)
        workload = params.pop("workload", None)
        if not workload:
            raise ValueError(
                f"/{endpoint} needs a 'workload' parameter "
                f"(registered: {', '.join(self.registry.names())})"
            )
        spec = self.registry.get(WORKLOAD.coerce(workload, "workload"))
        req = resolve(spec, endpoint, params)
        return spec, req, request_fingerprint(
            endpoint, spec.name, **req._asdict())

    def _stage(self, endpoint: str, admitted: Admitted) -> ServeResponse:
        """Compute one stage on a pooled session; store it if cacheable."""
        _, _, spec, req, fingerprint, _ = admitted
        # the per-request seed rides on the *handle*, not the session
        # config: pooled sessions stay seed-agnostic, so tenants with
        # different seeds still reuse one session per (nprocs,
        # cost_model, backend) triple
        config = SessionConfig(
            nprocs=req.nprocs, cost_model=req.cost_model, backend=req.backend
        )
        session = self.pool.acquire(config)
        try:
            handle = session.workload(spec.name, seed=req.seed, **req.params)
            body = invoke(handle, endpoint, req.options).json_str()
        finally:
            self.pool.release(session)

        cacheable = endpoint in CACHEABLE
        if cacheable:
            self.responses.put(fingerprint, body)
        return ServeResponse(
            200, body,
            {"X-Repro-Cache": "miss" if cacheable else "bypass",
             "X-Repro-Fingerprint": fingerprint},
        )
