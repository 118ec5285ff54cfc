"""The paper's §4 application workloads.

- :mod:`~repro.apps.tridiag` — the TRIDIAG solver of Figure 1;
- :mod:`~repro.apps.adi` — the ADI iteration under the four
  distribution strategies §4 discusses;
- :mod:`~repro.apps.smoothing` — the grid-smoothing distribution
  choice (columns vs. 2-D blocks) with the paper's cost model;
- :mod:`~repro.apps.pic` — the Figure 2 particle-in-cell loop with
  B_BLOCK load balancing;
- :mod:`~repro.apps.irregular` — relaxation on an unstructured mesh
  with INDIRECT distributions and the PARTI inspector/executor (the
  one module that needs ``networkx``, imported when a mesh is built);
- :mod:`~repro.apps.load_balance` — the ``balance`` routine (greedy
  and optimal contiguous partitioners).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "adi": ("ADIResult", "PhaseStats", "adi_reference", "execute_adi"),
    "irregular": (
        "RelaxationResult", "edge_cut", "make_mesh", "partition_bfs",
        "relaxation_reference", "run_relaxation",
    ),
    "load_balance": (
        "balance_greedy", "balance_optimal", "block_loads", "imbalance",
    ),
    "pic": ("PICConfig", "PICResult", "StepRecord", "execute_pic", "initpos"),
    "smoothing": (
        "SmoothingResult", "best_distribution", "execute_smoothing",
        "predicted_step_cost", "smooth_step_func", "smoothing_reference",
    ),
    "tridiag": ("thomas", "thomas_const", "tridiag_matvec"),
})
