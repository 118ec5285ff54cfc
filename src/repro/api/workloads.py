"""The paper's §4 workloads, registered with the session facade.

Each registration wraps the application's ``execute_*`` implementation,
so the ``Session`` path is bitwise-identical to calling the
application directly.  Parameter names and defaults mirror the
historical CLI:

========== ===============================================================
workload   parameters (defaults)
========== ===============================================================
adi        size=32, iterations=2, strategy="dynamic"
pic        size=32 (cells), steps=10, strategy="bblock", npart=8*size, ...
smoothing  size=32, steps=10, distribution="columns"
irregular  size=32 (nodes), steps=10, distribution="partitioned", kind=...
========== ===============================================================

The decorated name is bound to the :class:`~repro.api.WorkloadSpec`,
whose ``.machine_factory`` / ``.planning`` / ``.adaptive`` decorators
attach the remaining hooks.  The ``.adaptive`` hooks are where this
vocabulary (``size``, ``steps``) meets the adaptive models' own
(``ncell``, ``n``, ``sweeps``) and where each workload's natural
monitoring window is chosen.
"""

from __future__ import annotations

import numpy as np

from ..machine.machine import Machine
from ..machine.topology import ProcessorArray
from .registry import ExecutionOutcome, WorkloadContext, register_workload

__all__ = ["adi", "pic", "smoothing", "irregular"]


# -- ADI (Figure 1) ----------------------------------------------------------


@register_workload(
    "adi",
    defaults={"size": 32, "iterations": 2, "strategy": "dynamic"},
    description="ADI iteration (Figure 1): x-sweep / y-sweep alternation",
)
def adi(ctx: WorkloadContext) -> ExecutionOutcome:
    from ..apps.adi import execute_adi

    size = int(ctx.params["size"])
    r = execute_adi(
        ctx.machine,
        size,
        size,
        int(ctx.params["iterations"]),
        str(ctx.params["strategy"]),
        seed=ctx.seed,
    )
    return ExecutionOutcome(
        solution=r.solution,
        headline={
            "sweep_msgs": r.sweep_messages,
            "redist_msgs": r.redistribution.messages,
            "modeled_time_ms": r.total_time * 1e3,
        },
        result=r,
    )


@adi.machine_factory
def _adi_machine(ctx: WorkloadContext) -> Machine:
    return Machine(ProcessorArray("R", (ctx.nprocs,)), cost_model=ctx.cost_model)


@adi.planning
def _adi_planning(ctx: WorkloadContext):
    from ..planner.workloads import adi_workload

    size = int(ctx.params["size"])
    return adi_workload(
        nx=size,
        ny=size,
        iterations=int(ctx.params["iterations"]),
        nprocs=ctx.nprocs,
        cost_model=ctx.cost_model,
    )


# -- PIC (Figure 2) ----------------------------------------------------------


@register_workload(
    "pic",
    defaults={
        "size": 32,          # NCELL
        "steps": 10,         # MAX_TIME
        "strategy": "bblock",
        "npart": None,       # None -> 8 * size (the historical CLI rule)
        "drift": None,       # None -> the PICConfig default
        "diffusion": None,
        "rebalance_every": None,
        "cluster_width": None,
        "imbalance_threshold": None,
    },
    description="particle-in-cell with B_BLOCK load balancing (Figure 2)",
)
def pic(ctx: WorkloadContext) -> ExecutionOutcome:
    from ..apps.pic import PICConfig, execute_pic

    p = ctx.params
    size = int(p["size"])
    extra = {
        k: p[k]
        for k in (
            "drift", "diffusion", "rebalance_every", "cluster_width",
            "imbalance_threshold",
        )
        if p[k] is not None
    }
    cfg = PICConfig(
        strategy=str(p["strategy"]),
        ncell=size,
        npart=int(p["npart"]) if p["npart"] is not None else 8 * size,
        max_time=int(p["steps"]),
        nprocs=ctx.nprocs,
        seed=ctx.seed,
        **extra,
    )
    r = execute_pic(ctx.machine, cfg)
    solution = np.array([s.imbalance for s in r.steps], dtype=np.float64)
    return ExecutionOutcome(
        solution=solution,
        headline={
            "mean_imbalance": r.mean_imbalance,
            "redistributions": r.redistributions,
            "modeled_time_ms": r.total_time * 1e3,
        },
        result=r,
    )


@pic.planning
def _pic_planning(ctx: WorkloadContext):
    from ..planner.workloads import pic_workload

    kwargs: dict = {
        "ncell": int(ctx.params["size"]),
        "steps": int(ctx.params["steps"]),
        "nprocs": ctx.nprocs,
        "cost_model": ctx.cost_model,
        "seed": ctx.seed,
    }
    if ctx.params["npart"] is not None:
        kwargs["npart"] = int(ctx.params["npart"])
    return pic_workload(**kwargs)


@pic.adaptive
def _pic_adaptive(ctx: WorkloadContext):
    from ..apps.pic import PICDrift

    p = ctx.params
    size = int(p["size"])
    chosen = {
        k: float(p[k])
        for k in ("drift", "diffusion", "cluster_width")
        if p[k] is not None
    }
    return PICDrift(
        ncell=size,
        npart=int(p["npart"]) if p["npart"] is not None else 8 * size,
        steps=int(p["steps"]),
        # Figure 2's every-10th-iteration checkpoint
        window=int(p["rebalance_every"] or 10),
        **chosen,
    )


# -- smoothing (§4 distribution choice) --------------------------------------


@register_workload(
    "smoothing",
    defaults={"size": 32, "steps": 10, "distribution": "columns"},
    description="grid smoothing (§4): columns vs 2-D blocks choice",
)
def smoothing(ctx: WorkloadContext) -> ExecutionOutcome:
    from ..apps.smoothing import execute_smoothing

    r = execute_smoothing(
        int(ctx.params["size"]),
        int(ctx.params["steps"]),
        str(ctx.params["distribution"]),
        ctx.nprocs,
        ctx.cost_model,
        seed=ctx.seed,
        machine=ctx.machine,
    )
    return ExecutionOutcome(
        solution=r.solution,
        headline={
            "msgs_per_proc_step": r.msgs_per_proc_step,
            "modeled_time_ms": r.time * 1e3,
        },
        result=r,
    )


@smoothing.machine_factory
def _smoothing_machine(ctx: WorkloadContext) -> Machine:
    dist = str(ctx.params["distribution"])
    if dist == "blocks2d":
        side = int(round(ctx.nprocs ** 0.5))
        if side * side != ctx.nprocs:
            raise ValueError(
                f"blocks2d needs a square processor count, got {ctx.nprocs}"
            )
        shape: tuple[int, ...] = (side, side)
    else:
        shape = (ctx.nprocs,)
    return Machine(shape, cost_model=ctx.cost_model)


@smoothing.planning
def _smoothing_planning(ctx: WorkloadContext):
    from ..planner.workloads import smoothing_workload

    return smoothing_workload(
        n=int(ctx.params["size"]),
        nprocs=ctx.nprocs,
        steps=int(ctx.params["steps"]),
        cost_model=ctx.cost_model,
    )


# -- irregular (PARTI unstructured mesh) -------------------------------------


@register_workload(
    "irregular",
    defaults={
        "size": 32,       # mesh nodes
        "steps": 10,      # relaxation sweeps
        "distribution": "partitioned",
        "kind": "geometric",
        "drift": 0.0,     # hot-spot motion per sweep (0 = historical)
    },
    description="unstructured-mesh relaxation via INDIRECT (PARTI)",
)
def irregular(ctx: WorkloadContext) -> ExecutionOutcome:
    from ..apps.irregular import make_mesh, run_relaxation

    graph = make_mesh(
        int(ctx.params["size"]), seed=ctx.seed, kind=str(ctx.params["kind"])
    )
    r = run_relaxation(
        ctx.machine,
        graph,
        str(ctx.params["distribution"]),
        sweeps=int(ctx.params["steps"]),
        seed=ctx.seed,
        drift=float(ctx.params["drift"]),
    )
    return ExecutionOutcome(
        solution=r.solution,
        headline={
            "cut_edges": r.cut_edges,
            "messages": r.messages,
            "modeled_time_ms": r.time * 1e3,
        },
        result=r,
    )


@irregular.adaptive
def _irregular_adaptive(ctx: WorkloadContext):
    from ..apps.irregular import DriftingRelaxation

    steps = int(ctx.params["steps"])
    return DriftingRelaxation(
        n=int(ctx.params["size"]),
        sweeps=steps,
        window=max(1, steps // 4),
        drift=float(ctx.params["drift"]),
        kind=str(ctx.params["kind"]),
    )
