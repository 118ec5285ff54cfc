"""The Vienna Fortran Engine (VFE) — run-time support (paper §3.2).

Distributed arrays with global addressing, access functions and
translation tables, overlap areas, section/element communication
routines, the DISTRIBUTE redistribution algorithm, a PARTI-style
inspector/executor, and the :class:`Engine` facade tying them to a
simulated machine.
"""

from .batched import BatchedReadAccessor, forall_batched
from .communication import broadcast_from, gather_to, reduce_scalar, shift_exchange
from .darray import DistributedArray
from .engine import Engine
from .forall import ReadAccessor, forall, forall_gathered
from .inspector import CommSchedule, Inspector
from .overlap import OverlapManager
from .redistribute import (
    PlanCache,
    RedistributionReport,
    communicate,
    default_plan_cache,
    transfer_matrix,
    transfer_matrix_naive,
)
from .translation import DimTranslationTable, TranslationTable

__all__ = [
    "DistributedArray",
    "Engine",
    "forall",
    "forall_gathered",
    "forall_batched",
    "ReadAccessor",
    "BatchedReadAccessor",
    "Inspector",
    "CommSchedule",
    "OverlapManager",
    "RedistributionReport",
    "PlanCache",
    "communicate",
    "default_plan_cache",
    "transfer_matrix",
    "transfer_matrix_naive",
    "TranslationTable",
    "DimTranslationTable",
    "shift_exchange",
    "gather_to",
    "broadcast_from",
    "reduce_scalar",
]
