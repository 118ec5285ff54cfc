"""Package-surface sanity: every advertised name exists and resolves."""

import importlib

import pytest

SUBPACKAGES = [
    "repro",
    "repro.machine",
    "repro.core",
    "repro.runtime",
    "repro.lang",
    "repro.compiler",
    "repro.planner",
    "repro.backend",
    "repro.apps",
    "repro.api",
    "repro.sim",
    "repro.serve",
    "repro.obs",
    "repro.faults",
    "repro.adapt",
]

# The root surface, pinned (ISSUE 5): changing what `from repro import *`
# exposes must be a deliberate edit of this list, not a side effect of a
# subpackage's star-export.  Regenerate with
#   python -c "import repro; print('\n'.join(sorted(repro.__all__)))"
EXPORT_SNAPSHOT = sorted([
    "ALWAYS", "ANY", "AccessKind", "AdaptResult", "AdaptiveController",
    "Aligned", "Alignment",
    "AllocationRecord", "AnalysisResult", "ArrayDescriptor", "ArrayLoad",
    "ArrayRef", "Assign", "Attribution", "AxisMap", "BUSY_KINDS", "Backend",
    "BackendError", "BatchedReadAccessor", "BenchResult", "Block",
    "BlockMeta", "BlockingReplay", "CFG", "CFGEdge", "CFGNode",
    "Calibration", "Call", "CircuitBreaker", "CommEstimate", "CommSchedule",
    "ConnectClass",
    "Connection", "CostEngine", "CostModel", "CriticalPath", "Cyclic",
    "DCase", "DCaseStmt", "DEFAULT", "DEFAULT_SEED", "Declaration",
    "DimDist", "DimTranslationTable", "DistributeStmt", "DistributedArray",
    "Distribution", "DistributionGenerator", "DistributionType",
    "DistributionUndefinedError", "DynamicAttr", "Engine", "Event",
    "EventArrays", "EventKind", "EventLog", "Extraction", "FaultPlan",
    "FleetSupervisor", "FormalArg",
    "GenBlock", "HandDistribute", "IPSC860", "IRProgram", "If",
    "IndexDomain", "Indirect", "Inspector", "Interval", "LineSweepKernel",
    "LoadMonitor", "LocalMemory", "Loop", "MAYBE", "MODERN_CLUSTER",
    "Machine",
    "MeasuredMachine", "MemoryError_", "MemoryEstimate", "MessageRecord",
    "MetricsRegistry",
    "MultiprocessBackend", "NEVER", "Network", "NetworkStats", "NoDist",
    "OptimizeStats", "OverlapManager", "PARAGON", "PRESETS", "Phase",
    "PhaseSequence", "Plan", "PlanCache", "PlanExecutor", "PlanResult",
    "PlanningService",
    "PlausibleSet", "PolicyLibrary", "ProcClock", "ProcDef", "Procedure", "ProcessorArray",
    "ProcessorSection", "QueryList", "Range", "ReachingDistributions",
    "ReadAccessor", "RedistributionReport", "Replicated", "RunResult",
    "SBlock", "ScheduleStep", "Scope", "SerialBackend", "Session",
    "SessionClosedError",
    "SessionConfig", "SessionResult", "SharedSegmentAllocator",
    "SimulatedCostEngine", "StencilKernel", "Stmt", "TOP", "Timeline",
    "TraceResult", "TrajectoryStore",
    "TranslationTable", "Transport", "TransportBroken", "TransportTimeout",
    "TypePattern", "VFProgram", "VFSyntaxError", "Wild",
    "Workload", "WorkloadHandle", "WorkloadRegistry", "WorkloadSpec",
    "ZERO_COST", "__version__", "adapt", "adi_workload", "analyze", "api", "apps",
    "attached_backend", "attribution",
    "available_workloads", "backend", "bind_pattern",
    "broadcast_from", "build_cfg", "calibrate", "classify_tag",
    "clear_interning_caches", "communicate", "compare_reports",
    "compiler", "config_fingerprint", "construct",
    "critical_path", "decide_pattern", "decide_querylist",
    "dim_implies", "dim_menu", "dim_overlaps",
    "dist_type", "dp_schedule", "dump_json", "enumerate_layouts",
    "estimate_memory", "estimate_ref", "extract_phases", "faults",
    "fit_alpha_beta",
    "flight_recorder",
    "forall", "forall_batched", "gantt", "gather_to",
    "get_generator", "get_request_id", "get_trace_id",
    "greedy_schedule", "grid_shapes",
    "hand_schedule_cost", "idt", "infer_overlap", "intern_dimdist",
    "intern_distribution", "lang", "link_matrix", "lower_line_sweep",
    "lower_stencil", "measured_machine", "metrics_registry", "obs",
    "optimize", "overlappable_phases",
    "owners_cache_stats", "parse_alignment", "parse_declaration",
    "parse_dist_expr", "parse_pattern", "parse_processors",
    "parse_program", "parse_section", "pattern_implies",
    "pattern_overlaps", "per_processor_table", "perf", "pic_workload",
    "plan_array", "plan_program", "plan_workload", "planner", "record",
    "reduce_scalar", "refine_pattern", "register_generator",
    "run_adapt_bench",
    "register_workload", "relaxed_barriers", "replay_blocking",
    "replay_split_exchange", "run_loadtest",
    "serve",
    "session", "shift_exchange", "shift_plan", "sim", "simulate",
    "smoothing_workload", "span", "summary", "timeline_summary",
    "timeline_table",
    "to_chrome_trace", "to_json", "transfer_matrix",
    "transfer_plan",
])


@pytest.mark.parametrize("modname", SUBPACKAGES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    assert hasattr(mod, "__all__"), f"{modname} must declare __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{modname}.{name} missing"


def test_star_import_clean():
    ns: dict = {}
    exec("from repro import *", ns)  # noqa: S102 - deliberate smoke test
    for required in ("Engine", "Machine", "ProcessorArray", "dist_type",
                     "DynamicAttr", "DCase", "idt", "communicate"):
        assert required in ns


def test_backend_reexported_from_root():
    """The v1.2.0 surface: the execution-backend tier is one import
    away (ISSUE 2 satellite)."""
    import repro

    assert repro.backend.__name__ == "repro.backend"
    assert repro.Backend is repro.backend.Backend
    assert repro.SerialBackend is repro.backend.SerialBackend
    assert repro.MultiprocessBackend is repro.backend.MultiprocessBackend
    assert repro.calibrate is repro.backend.calibrate  # the module
    assert callable(repro.calibrate.calibrate)
    # the measured-machine types ride along on the machine layer
    assert repro.MeasuredMachine and repro.Calibration

    ns: dict = {}
    exec("from repro import *", ns)  # noqa: S102
    for required in ("Backend", "SerialBackend", "MultiprocessBackend",
                     "MeasuredMachine", "Calibration"):
        assert required in ns


def test_export_snapshot_pinned():
    """The ISSUE 5 surface snapshot: additions/removals are deliberate."""
    import repro

    assert sorted(repro.__all__) == EXPORT_SNAPSHOT
    assert len(set(repro.__all__)) == len(repro.__all__), "duplicate exports"
    # the one deliberate collision casualty: the compiler IR's Block is
    # NOT at the root (the BLOCK distribution intrinsic is)
    from repro.compiler.ir import Block as IRBlock
    from repro.core.dimdist import Block as CoreBlock

    assert repro.Block is CoreBlock
    assert repro.Block is not IRBlock


def test_session_facade_reexported_from_root():
    """The v1.5.0 surface: the session API is one import away."""
    import repro

    assert repro.api.__name__ == "repro.api"
    assert repro.session is repro.api.session
    assert repro.Session is repro.api.Session
    assert repro.SessionConfig is repro.api.SessionConfig
    assert repro.WorkloadHandle is repro.api.WorkloadHandle
    assert repro.register_workload is repro.api.register_workload
    for result in ("PlanResult", "RunResult", "TraceResult", "BenchResult"):
        assert getattr(repro, result) is getattr(repro.api, result)

    ns: dict = {}
    exec("from repro import *", ns)  # noqa: S102
    for required in ("session", "Session", "SessionConfig",
                     "register_workload", "available_workloads",
                     "RunResult", "DEFAULT_SEED"):
        assert required in ns


def test_version():
    import repro

    assert repro.__version__ == "1.10.0"


def test_sim_reexported_from_root():
    import repro

    assert repro.sim.__name__ == "repro.sim"
    assert repro.EventLog is repro.sim.EventLog
    assert repro.simulate is repro.sim.simulate
    assert repro.Timeline is repro.sim.Timeline
    assert repro.critical_path is repro.sim.critical_path
    assert "sim" in repro.__all__

    ns: dict = {}
    exec("from repro import *", ns)  # noqa: S102
    for required in ("EventLog", "simulate", "Timeline", "critical_path",
                     "gantt"):
        assert required in ns


def test_serve_reexported_from_root():
    """The v1.6.0 surface: the serving tier is one import away (ISSUE 6)."""
    import repro

    assert repro.serve.__name__ == "repro.serve"
    assert repro.PlanningService is repro.serve.PlanningService
    assert repro.run_loadtest is repro.serve.run_loadtest
    assert repro.SessionClosedError is repro.api.SessionClosedError
    assert repro.config_fingerprint is repro.api.config_fingerprint

    ns: dict = {}
    exec("from repro import *", ns)  # noqa: S102
    for required in ("PlanningService", "run_loadtest",
                     "SessionClosedError", "config_fingerprint"):
        assert required in ns


def test_obs_reexported_from_root():
    """The v1.7.0 surface: observability is one import away (ISSUE 7)."""
    import repro

    assert repro.obs.__name__ == "repro.obs"
    assert repro.MetricsRegistry is repro.obs.MetricsRegistry
    assert repro.metrics_registry is repro.obs.registry
    assert repro.span is repro.obs.span
    assert repro.get_request_id is repro.obs.get_request_id
    assert repro.get_trace_id is repro.obs.get_trace_id

    ns: dict = {}
    exec("from repro import *", ns)  # noqa: S102
    for required in ("MetricsRegistry", "metrics_registry", "span",
                     "get_request_id", "get_trace_id"):
        assert required in ns


def test_faults_reexported_from_root():
    """The v1.9.0 surface: fault injection and resilience are one
    import away (ISSUE 9)."""
    import repro

    assert repro.faults.__name__ == "repro.faults"
    assert repro.FaultPlan is repro.faults.FaultPlan
    assert repro.CircuitBreaker is repro.faults.CircuitBreaker
    assert repro.FleetSupervisor is repro.backend.FleetSupervisor
    assert repro.TransportBroken is repro.backend.TransportBroken
    assert issubclass(repro.TransportBroken, repro.TransportTimeout)

    ns: dict = {}
    exec("from repro import *", ns)  # noqa: S102
    for required in ("FaultPlan", "CircuitBreaker", "FleetSupervisor",
                     "TransportBroken"):
        assert required in ns


def test_main_module_runs(capsys):
    from repro.__main__ import main

    main()
    out = capsys.readouterr().out
    assert "Figure 1" in out and "Figure 2" in out
    assert "dynamic" in out


def test_irregular_workload_is_always_exported():
    """networkx is an install requirement, imported where a mesh is
    built: the mesh app and its registration are unconditional."""
    import repro.apps as apps
    from repro.api import REGISTRY

    assert "run_relaxation" in apps.__all__
    assert callable(apps.run_relaxation) and callable(apps.make_mesh)
    assert "irregular" in REGISTRY
