"""Automatic distribution planner.

The paper's DISTRIBUTE statement changes an array's layout between
computation phases — but *when and what to redistribute* is left
entirely to the programmer (Figure 1's hand-placed x-sweep/y-sweep
flip).  This subsystem closes that loop:

1. :mod:`~repro.planner.phases` — extract a phase sequence (array
   access summaries with execution weights) from the compiler IR;
2. :mod:`~repro.planner.candidates` — enumerate feasible candidate
   layouts per array from the §2.2 intrinsics, pruned by RANGE
   constraints and memory estimates;
3. :mod:`~repro.planner.costs` — price each (phase, layout) pair via
   the machine cost model and each layout transition via the
   DISTRIBUTE transfer-matrix path (memoized, plan-cache-shared);
4. :mod:`~repro.planner.search` — dynamic programming over the
   phase x layout lattice (greedy fallback for large lattices)
   decides where to insert redistributions;
5. :mod:`~repro.planner.binding` — lower the chosen schedule onto the
   Vienna Fortran Engine, and plan whole ``PLAN``-annotated programs.

:mod:`~repro.planner.workloads` packages the paper's §4 programs (ADI,
PIC, smoothing) as ready-made planning problems.

The headline guarantee (property-tested): a planned schedule's modeled
cost is never worse than the best static single-layout alternative.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "binding": ("PlanExecutor", "bind_pattern", "plan_program"),
    "candidates": ("dim_menu", "enumerate_layouts"),
    "costs": ("CostEngine", "SimulatedCostEngine"),
    "phases": (
        "ArrayLoad", "HandDistribute", "Phase", "PhaseSequence",
        "extract_phases",
    ),
    "search": (
        "Plan", "ScheduleStep", "dp_schedule", "greedy_schedule", "plan_array",
    ),
    "workloads": (
        "Workload", "adi_workload", "hand_schedule_cost", "pic_workload",
        "plan_workload", "smoothing_workload",
    ),
})
