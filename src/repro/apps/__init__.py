"""The paper's §4 application workloads.

- :mod:`~repro.apps.tridiag` — the TRIDIAG solver of Figure 1;
- :mod:`~repro.apps.adi` — the ADI iteration under the four
  distribution strategies §4 discusses;
- :mod:`~repro.apps.smoothing` — the grid-smoothing distribution
  choice (columns vs. 2-D blocks) with the paper's cost model;
- :mod:`~repro.apps.pic` — the Figure 2 particle-in-cell loop with
  B_BLOCK load balancing;
- :mod:`~repro.apps.load_balance` — the ``balance`` routine (greedy
  and optimal contiguous partitioners).
"""

from .adi import ADIResult, PhaseStats, adi_reference, execute_adi

try:  # the unstructured-mesh workload needs networkx (optional)
    from .irregular import (  # noqa: F401
        RelaxationResult,
        edge_cut,
        make_mesh,
        partition_bfs,
        relaxation_reference,
        run_relaxation,
    )

    _HAVE_NETWORKX = True
except ImportError:  # pragma: no cover - exercised only without networkx
    _HAVE_NETWORKX = False
from .load_balance import balance_greedy, balance_optimal, block_loads, imbalance
from .pic import PICConfig, PICResult, StepRecord, execute_pic, initpos
from .smoothing import (
    SmoothingResult,
    best_distribution,
    execute_smoothing,
    predicted_step_cost,
    smooth_step_func,
    smoothing_reference,
)
from .tridiag import thomas, thomas_const, tridiag_matvec

__all__ = [
    "ADIResult",
    "PhaseStats",
    "execute_adi",
    "adi_reference",
    "balance_greedy",
    "balance_optimal",
    "block_loads",
    "imbalance",
    "PICConfig",
    "PICResult",
    "StepRecord",
    "execute_pic",
    "initpos",
    "SmoothingResult",
    "execute_smoothing",
    "smoothing_reference",
    "smooth_step_func",
    "predicted_step_cost",
    "best_distribution",
    "thomas",
    "thomas_const",
    "tridiag_matvec",
]
