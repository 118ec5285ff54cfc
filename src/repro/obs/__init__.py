"""repro.obs — the cross-layer observability spine (ISSUEs 7 + 8).

Collection tier (ISSUE 7): one process-wide :class:`MetricsRegistry`
(``repro.obs.registry``) with labeled, thread-safe
Counter/Gauge/Histogram instruments and a Prometheus text-exposition
encoder; a structured-tracing layer (:func:`span`,
contextvars-propagated trace/request IDs); and export surfaces —
``/metrics`` on the serving tier, ``python -m repro obs`` on the CLI,
and :func:`chrome_trace` merging runtime spans with simulated
timelines into one ``chrome://tracing`` file.

Analysis tier (ISSUE 8): the **bench trajectory store**
(:class:`TrajectoryStore` — append-only JSONL history of every bench
run, stamped with schema version, git SHA and a machine fingerprint),
the **regression sentinel** (:func:`compare_reports` walking
:data:`FAMILIES`, the one table of bench families and their gates,
behind ``bench --compare`` / ``obs compare`` and, via
:func:`finish_bench`, every ``--check`` — contract drift is a hard
fail, wall-clock drift beyond the noise band a soft fail), the **attribution layer**
(:func:`attribution` / ``obs analyze`` — per-phase compute/comm/idle
breakdowns that sum to the simulated makespan, plus top-N slowness
reasons), and the always-on bounded **flight recorder**
(:data:`flight_recorder`) whose :func:`incident` records are dumped by
serve 500s and failed session stages.

Metrics and spans are **off by default**: instruments exist but record
nothing until :func:`enable` is called (the serving tier enables on
construction; set ``REPRO_OBS=1`` to enable at import).  Disabled-path
cost is one function call and a branch per instrumented seam, so hot
paths (forall, halo exchange) stay within the perf-harness gates.
The flight recorder is the deliberate exception: always on, bounded,
and cheap, so a crash in an un-instrumented process still dumps a
recent history.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "analyze": (
        "Attribution", "PhaseRow", "Reason", "analyze_workload", "attribution",
        "span_breakdown",
    ),
    "compare": (
        "BaselineError", "BenchDelta", "CompareReport", "EXIT_HARD",
        "EXIT_SOFT", "FAMILIES", "GateFailure", "compare_reports",
        "finish_bench", "load_report", "resolve_baseline",
    ),
    "export": ("chrome_trace", "dump_chrome_trace"),
    "flight": ("FlightRecorder", "flight_recorder", "incident", "note"),
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "counter",
        "disable", "enable", "enabled", "gauge", "histogram", "registry",
        "render_prometheus", "set_enabled",
    ),
    "tracing": (
        "SpanRecord", "clear_spans", "finished_spans", "get_request_id",
        "get_trace_id", "new_request_id", "request_scope", "reset",
        "set_request_id", "span",
    ),
    "trajectory": (
        "DEFAULT_TRAJECTORY_PATH", "TrajectoryStore", "env_digest",
        "environment_fingerprint", "git_sha",
    ),
})
