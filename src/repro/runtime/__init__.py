"""The Vienna Fortran Engine (VFE) — run-time support (paper §3.2).

Distributed arrays with global addressing, access functions and
translation tables, overlap areas and their halo shifts, the
DISTRIBUTE redistribution algorithm, a PARTI-style inspector/executor,
and the :class:`Engine` facade tying them to a simulated machine.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "batched": ("BatchedReadAccessor", "forall_batched"),
    "darray": ("DistributedArray",),
    "engine": ("Engine",),
    "forall": ("ReadAccessor", "forall"),
    "inspector": ("CommSchedule", "Inspector"),
    "overlap": ("OverlapManager",),
    "redistribute": (
        "PlanCache", "RedistributionReport", "communicate", "transfer_matrix",
    ),
    "translation": ("DimTranslationTable", "TranslationTable"),
})
