"""Simulated distributed-memory machine substrate.

This subpackage stands in for the hardware the paper targets (Intel
iPSC-class multicomputers): a Cartesian grid of processors, each with a
private local memory, connected by a message-passing network modeled by
a linear ``alpha + beta * bytes`` cost function.  Everything above it —
the distribution model, the Vienna Fortran Engine, the compiler — is
machine-independent, exactly as the paper argues.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cost_model": (
        "CostModel", "IPSC860", "MODERN_CLUSTER", "PARAGON", "PRESETS",
        "ZERO_COST",
    ),
    "machine": ("Machine",),
    "measured": ("Calibration", "MeasuredMachine"),
    "memory": ("AllocationRecord", "LocalMemory", "MemoryError_"),
    "network": ("MessageRecord", "Network", "NetworkStats"),
    "report": (
        "link_matrix", "per_processor_table", "summary", "timeline_summary",
        "timeline_table",
    ),
    "topology": ("ProcessorArray", "ProcessorSection", "grid_shapes"),
})
