"""Structured tracing: ``span(...)`` + contextvars-propagated IDs.

The tracing half of :mod:`repro.obs`.  A span is a named, timed region
with arbitrary attributes; spans nest via a contextvar, so a
``session.plan`` span started in an executor thread automatically
parents the ``planner.search`` span opened deeper in the same call
chain.  Trace and request IDs ride the same mechanism: the serving
tier opens a :func:`request_scope` per HTTP request, and every span
(and log line) recorded inside it carries that request ID.

Finished spans land in a bounded in-process ring buffer
(:func:`finished_spans`) from which :func:`repro.obs.export.chrome_trace`
builds a ``chrome://tracing`` file.  Like the metrics side, recording
is guarded by the module switch in :mod:`repro.obs.metrics` — with
observability off, ``span(...)`` yields a no-op context manager.
"""

from __future__ import annotations

import contextlib
import threading
import time
import uuid
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .flight import flight_recorder
from .metrics import _SWITCH, counter, registry

__all__ = [
    "SpanRecord",
    "clear_spans",
    "finished_spans",
    "get_request_id",
    "get_trace_id",
    "new_request_id",
    "request_scope",
    "reset",
    "set_request_id",
    "span",
]

#: wall-clock epoch paired with the perf_counter epoch below, so span
#: timestamps can be mapped back to absolute time
EPOCH_WALL = time.time()
_EPOCH_PERF = time.perf_counter()

_MAX_SPANS = 8192

_trace_id: ContextVar[Optional[str]] = ContextVar("repro_trace_id",
                                                  default=None)
_request_id: ContextVar[Optional[str]] = ContextVar("repro_request_id",
                                                    default=None)
_parent_span: ContextVar[Optional[str]] = ContextVar("repro_parent_span",
                                                     default=None)

_spans_lock = threading.Lock()
_finished: deque = deque(maxlen=_MAX_SPANS)

_SPANS_TOTAL = counter("repro_spans_total",
                       "Spans recorded, by span name.", ("name",))


def _now() -> float:
    """Seconds since the module epoch (monotonic)."""
    return time.perf_counter() - _EPOCH_PERF


def _new_id(nbytes: int = 8) -> str:
    return uuid.uuid4().hex[: nbytes * 2]


def new_request_id() -> str:
    """Mint a request ID (16 hex chars)."""
    return _new_id(8)


def get_trace_id() -> Optional[str]:
    """The trace ID propagated to the current context, if any."""
    return _trace_id.get()


def get_request_id() -> Optional[str]:
    """The request ID propagated to the current context, if any."""
    return _request_id.get()


def set_request_id(request_id: Optional[str]):
    """Bind a request ID to the current context; returns the reset token."""
    return _request_id.set(request_id)


@dataclass
class SpanRecord:
    """One finished span. Times are seconds since :data:`EPOCH_WALL`."""

    name: str
    span_id: str
    trace_id: str
    parent_id: Optional[str]
    request_id: Optional[str]
    start: float
    duration: float
    thread: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "span_id": self.span_id,
            "trace_id": self.trace_id, "parent_id": self.parent_id,
            "request_id": self.request_id, "start": self.start,
            "duration": self.duration, "thread": self.thread,
            "attrs": dict(self.attrs),
        }


@contextlib.contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[SpanRecord]]:
    """Record a named, timed region.

    Yields the in-flight :class:`SpanRecord` (``None`` when observability
    is disabled) so callers can attach late attributes::

        with span("planner.search", workload="adi") as sp:
            plan = ...
            if sp is not None:
                sp.attrs["steps"] = len(plan.steps)
    """
    if not _SWITCH.on:
        yield None
        return
    trace_id = _trace_id.get()
    trace_token = None
    if trace_id is None:
        trace_id = _new_id(8)
        trace_token = _trace_id.set(trace_id)
    record = SpanRecord(
        name=name,
        span_id=_new_id(4),
        trace_id=trace_id,
        parent_id=_parent_span.get(),
        request_id=_request_id.get(),
        start=_now(),
        duration=0.0,
        thread=threading.current_thread().name,
        attrs=dict(attrs),
    )
    parent_token = _parent_span.set(record.span_id)
    try:
        yield record
    finally:
        record.duration = _now() - record.start
        _parent_span.reset(parent_token)
        if trace_token is not None:
            _trace_id.reset(trace_token)
        with _spans_lock:
            _finished.append(record)
        _SPANS_TOTAL.inc(name=name)


@contextlib.contextmanager
def request_scope(request_id: Optional[str] = None) -> Iterator[str]:
    """Bind a request ID (and a fresh trace ID) to the current context.

    The serving tier opens one of these per HTTP request; every span and
    metric label recorded inside inherits the IDs via contextvars.
    """
    rid = request_id or new_request_id()
    rid_token = _request_id.set(rid)
    trace_token = _trace_id.set(rid)
    try:
        yield rid
    finally:
        _trace_id.reset(trace_token)
        _request_id.reset(rid_token)


def finished_spans(name: Optional[str] = None,
                   request_id: Optional[str] = None) -> List[SpanRecord]:
    """A copy of the finished-span ring buffer, optionally filtered."""
    with _spans_lock:
        spans = list(_finished)
    if name is not None:
        spans = [s for s in spans if s.name == name]
    if request_id is not None:
        spans = [s for s in spans if s.request_id == request_id]
    return spans


def clear_spans() -> None:
    """Empty the finished-span ring buffer."""
    with _spans_lock:
        _finished.clear()


def reset() -> None:
    """Zero every metric sample, drop recorded spans, and clear the
    flight recorder's notes and incidents (for tests)."""
    registry.reset()
    clear_spans()
    flight_recorder.reset()
