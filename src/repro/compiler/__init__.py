"""Compile-time support (paper §3.1).

A mini-IR for Vienna Fortran-shaped programs, CFG construction, the
reaching-distributions dataflow analysis (plausible-distribution
sets), partial evaluation of IDT/DCASE queries, per-reference
communication and memory estimates, and SPMD lowering of the paper's
access patterns into executable kernels.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cfg": ("CFG", "CFGEdge", "CFGNode", "build_cfg"),
    "codegen": ("LineSweepKernel", "StencilKernel"),
    "comm_analysis": (
        "CommEstimate", "MemoryEstimate", "estimate_memory", "estimate_ref",
        "infer_overlap",
    ),
    "optimize": ("OptimizeStats", "optimize"),
    "ir": (
        "AccessKind", "ArrayRef", "Assign", "Block", "Call", "DCaseStmt",
        "DistributeStmt", "If", "IRProgram", "Loop", "ProcDef", "Stmt",
    ),
    "partial_eval": (
        "ALWAYS", "MAYBE", "NEVER", "TOP", "PlausibleSet", "decide_pattern",
        "decide_querylist", "dim_implies", "dim_overlaps", "pattern_implies",
        "pattern_overlaps", "refine_pattern",
    ),
    "reaching": ("AnalysisResult", "ReachingDistributions", "analyze"),
})
