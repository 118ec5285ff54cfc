"""Online adaptive redistribution — closing the paper's open loop.

Vienna Fortran's dynamic distributions make redistribution
*expressible*; the planner (PR 1) makes it *schedulable* offline.
This subpackage makes it *adaptive*: a feedback controller that
measures per-processor load window by window while the program runs,
detects drift, and redistributes through the ordinary ``DISTRIBUTE``
path exactly when a tiered policy says the move pays for itself.

- :class:`LoadMonitor` — windowed busy/imbalance signals with an EWMA
  drift detector, hysteresis, and a post-replan cooldown;
- :class:`PolicyLibrary` — versioned (``repro-adapt-policy/1``)
  redistribution rules with tiered fallback: static -> sustained
  threshold -> full planner pricing; plus the registry-wide
  :meth:`~PolicyLibrary.coverage_report`;
- :class:`AdaptiveController` — workload-agnostic: drives the
  adaptive model of any workload registered with an ``.adaptive`` hook
  in ``static`` / ``balanced`` / ``offline`` / ``adaptive`` modes
  sharing one RNG stream, checkpointing at window boundaries and logging every
  decision to the flight recorder and the ``repro_adapt_*`` metrics;
- :func:`run_adapt_bench` — bench E16: adaptive must beat the best
  static layout *and* the offline plan on drifting load, bitwise
  deterministically (``BENCH_ADAPT.json``, ``repro-bench-adapt/1``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "bench": ("run_adapt_bench",),
    "controller": (
        "MODES", "AdaptiveController", "AdaptiveRun", "Checkpoint",
        "ReplanRecord",
    ),
    "monitor": ("LoadMonitor", "WindowSample"),
    "policies": (
        "COVERAGE_SCHEMA", "POLICY_SCHEMA", "TIER_NAMES", "Decision",
        "PolicyLibrary", "Rule", "dump_coverage",
    ),
})
