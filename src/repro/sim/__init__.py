"""Discrete-event SPMD execution simulator.

The machine layer's cost accounting collapses every operation into one
scalar clock update; this subpackage keeps the *timeline*.  The
engine, kernels and backends emit typed events through a recording
seam (:func:`record` on the network, ``Engine.record_events()`` one
layer up); :func:`simulate` replays the log against the machine's cost
model with either semantics:

- **blocking** — bit-for-bit the aggregate accounting (the anchor:
  with overlap disabled, the simulated per-processor clocks equal the
  network's exactly);
- **split-phase** — nonblocking post/wait with communication hidden
  behind independent computation (the optimistic bound a
  restructuring compiler could approach; see :mod:`repro.sim.overlap`).

On top of the replay: per-processor busy/idle interval histories with
imbalance and efficiency metrics (:class:`Timeline`), causal
critical-path extraction (:func:`critical_path`), and Gantt / JSON /
Chrome-trace export (:mod:`repro.sim.trace`).  ``python -m repro
trace <app>`` drives the whole pipeline from the command line, and the
planner's ``cost_mode="simulated"`` prices schedules against these
semantics instead of the closed-form aggregates.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "clock": ("BUSY_KINDS", "Interval", "ProcClock", "Timeline"),
    "critical_path": ("CriticalPath", "critical_path"),
    "events": (
        "Event", "EventArrays", "EventKind", "EventLog", "classify_tag",
        "record",
    ),
    "overlap": ("overlappable_phases", "relaxed_barriers"),
    "replay": ("BlockingReplay", "replay_blocking", "replay_split_exchange"),
    "simulate": ("simulate",),
    "trace": (
        "dump_json", "gantt", "to_chrome_trace", "to_json",
        "windowed_imbalance",
    ),
})
