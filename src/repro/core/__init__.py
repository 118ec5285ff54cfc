"""The paper's distribution model — Vienna Fortran's primary contribution.

Index domains, per-dimension distribution intrinsics, distribution
types and bound distributions (Definition 1), alignments and the
CONSTRUCT composition (Definition 2), dynamic arrays with the connect
relation (§2.3), run-time descriptors (§3.2.1), and the query
machinery behind RANGE / IDT / DCASE (§2.5).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "alignment": ("Alignment", "AxisMap", "construct"),
    "descriptor": ("ArrayDescriptor", "DistributionUndefinedError"),
    "dimdist": (
        "Block", "Cyclic", "DimDist", "GenBlock", "Indirect", "NoDist",
        "Replicated", "SBlock",
    ),
    "distribution": ("Distribution", "DistributionType", "dist_type"),
    "dynamic": (
        "Aligned", "ConnectClass", "Connection", "DynamicAttr", "Extraction",
    ),
    "generators": (
        "DistributionGenerator", "get_generator", "register_generator",
    ),
    "index_domain": ("IndexDomain",),
    "interning": (
        "clear_interning_caches", "intern_dimdist", "intern_distribution",
        "owners_cache_stats",
    ),
    "query": (
        "ANY", "DCase", "DEFAULT", "QueryList", "Range", "TypePattern", "Wild",
        "idt",
    ),
})
