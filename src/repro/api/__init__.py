"""``repro.api`` — the stable public facade.

One import gives the whole surface::

    import repro

    with repro.session(nprocs=4, cost_model="Paragon",
                       backend="multiprocess", record_events=True) as sess:
        handle = sess.workload("adi", size=64, iterations=4)
        plan = handle.plan(cost_mode="simulated")   # PlanResult
        run = handle.run()                          # RunResult
        trace = handle.trace()                      # TraceResult
        bench = handle.bench(repeats=3)             # BenchResult

All four stage results share ``.summary()`` / ``.to_json()`` /
``.json_str()``.  New scenarios plug in with one decorator
(:func:`register_workload`); the CLI and the session enumerate the
same registry, so a registered workload immediately gains ``plan`` /
``run`` / ``trace`` / ``bench`` spellings everywhere — and its
parameters their CLI flags and query keys, from the one parameter
table in :mod:`repro.api.params`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "config": (
        "BACKEND_NAMES", "DEFAULT_SEED", "SessionConfig", "resolve_cost_model",
    ),
    "registry": (
        "REGISTRY", "ExecutionOutcome", "Param", "WorkloadContext",
        "WorkloadRegistry", "WorkloadSpec", "available_workloads",
        "register_workload",
    ),
    "params": (
        "SESSION_FIELDS", "STAGE_OPTIONS", "WORKLOAD", "Request",
        "accepted_names", "add_arguments", "invoke", "resolve", "supplied",
    ),
    "results": (
        "AdaptResult", "BenchResult", "PlanResult", "RunResult",
        "SessionResult", "TraceResult", "config_fingerprint",
    ),
    "handles": ("WorkloadHandle",),
    "session": ("Session", "SessionClosedError", "session"),
})

# registers the built-in workloads (adi, pic, smoothing, irregular)
from . import workloads  # noqa: E402,F401
