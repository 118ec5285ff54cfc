"""The paper's §4 workloads, registered with the session facade.

Each registration wraps the application's ``execute_*`` implementation,
so the ``Session`` path is bitwise-identical to calling the
application directly.  Each ``defaults=`` table below is the only
declaration of that workload's parameters: README's parameter table,
the CLI flags and the service's query validation are all written from
it (a plain value is shorthand for a row of its own type; ``None``
defaults declare theirs).

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
from .registry import (
    ExecutionOutcome, Param, WorkloadContext, register_workload,
)

__all__ = ["adi", "pic", "smoothing", "irregular"]


# -- ADI (Figure 1) ----------------------------------------------------------


@register_workload(
    "adi",
    defaults={
        "size": Param(int, 32, "grid extent NX=NY"),
        "iterations": Param(int, 2, "outer iterations"),
        "strategy": Param(
            str, "dynamic",
            "dynamic / planned / static_cols / static_rows / two_arrays"),
    },
    description="ADI iteration (Figure 1): x-sweep / y-sweep alternation",
)
def adi(ctx: WorkloadContext) -> ExecutionOutcome:
    from ..apps.adi import execute_adi

    size = ctx.params["size"]
    r = execute_adi(
        ctx.machine,
        size,
        size,
        ctx.params["iterations"],
        ctx.params["strategy"],
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

    size = ctx.params["size"]
    return adi_workload(
        nx=size,
        ny=size,
        iterations=ctx.params["iterations"],
        nprocs=ctx.nprocs,
        cost_model=ctx.cost_model,
    )


# -- PIC (Figure 2) ----------------------------------------------------------


@register_workload(
    "pic",
    # a None default defers to the PICConfig field of the same name
    defaults={
        "size": Param(int, 32, "cells NCELL"),
        "steps": Param(int, 10, "time steps MAX_TIME"),
        "strategy": Param(str, "bblock", "bblock / static / planned"),
        "npart": Param(int, None, "particles (default 8 * size)"),
        "drift": Param(float, None, "mean particle velocity per step"),
        "diffusion": Param(float, None, "random-walk scale"),
        "rebalance_every": Param(int, None, "steps between checks"),
        "cluster_width": Param(float, None, "initial cluster stddev"),
        "imbalance_threshold": Param(
            float, None, "max/mean load that triggers a rebalance"),
    },
    description="particle-in-cell with B_BLOCK load balancing (Figure 2)",
)
def pic(ctx: WorkloadContext) -> ExecutionOutcome:
    from ..apps.pic import PICConfig, execute_pic

    p = ctx.params
    size = p["size"]
    extra = {
        k: p[k]
        for k in (
            "drift", "diffusion", "rebalance_every", "cluster_width",
            "imbalance_threshold",
        )
        if p[k] is not None
    }
    cfg = PICConfig(
        strategy=p["strategy"],
        ncell=size,
        npart=p["npart"] if p["npart"] is not None else 8 * size,
        max_time=p["steps"],
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
        "ncell": ctx.params["size"],
        "steps": ctx.params["steps"],
        "nprocs": ctx.nprocs,
        "cost_model": ctx.cost_model,
        "seed": ctx.seed,
    }
    if ctx.params["npart"] is not None:
        kwargs["npart"] = ctx.params["npart"]
    return pic_workload(**kwargs)


@pic.adaptive
def _pic_adaptive(ctx: WorkloadContext):
    from ..apps.pic import PICDrift

    p = ctx.params
    size = p["size"]
    chosen = {
        k: p[k]
        for k in ("drift", "diffusion", "cluster_width")
        if p[k] is not None
    }
    return PICDrift(
        ncell=size,
        npart=p["npart"] if p["npart"] is not None else 8 * size,
        steps=p["steps"],
        # Figure 2's every-10th-iteration checkpoint
        window=p["rebalance_every"] or 10,
        **chosen,
    )


# -- smoothing (§4 distribution choice) --------------------------------------


@register_workload(
    "smoothing",
    defaults={
        "size": Param(int, 32, "grid extent N"),
        "steps": Param(int, 10, "smoothing steps"),
        "distribution": Param(str, "columns", "columns / blocks2d"),
    },
    description="grid smoothing (§4): columns vs 2-D blocks choice",
)
def smoothing(ctx: WorkloadContext) -> ExecutionOutcome:
    from ..apps.smoothing import execute_smoothing

    r = execute_smoothing(
        ctx.params["size"],
        ctx.params["steps"],
        ctx.params["distribution"],
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
    dist = ctx.params["distribution"]
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
        n=ctx.params["size"],
        nprocs=ctx.nprocs,
        steps=ctx.params["steps"],
        cost_model=ctx.cost_model,
    )


# -- irregular (PARTI unstructured mesh) -------------------------------------


@register_workload(
    "irregular",
    defaults={
        "size": Param(int, 32, "mesh nodes"),
        "steps": Param(int, 10, "relaxation sweeps"),
        "distribution": Param(str, "partitioned", "partitioned / block"),
        "kind": Param(str, "geometric", "geometric / ring"),
        "drift": Param(float, 0.0, "hot-spot motion per sweep"),
    },
    description="unstructured-mesh relaxation via INDIRECT (PARTI)",
)
def irregular(ctx: WorkloadContext) -> ExecutionOutcome:
    from ..apps.irregular import make_mesh, run_relaxation

    graph = make_mesh(
        ctx.params["size"], seed=ctx.seed, kind=ctx.params["kind"]
    )
    r = run_relaxation(
        ctx.machine,
        graph,
        ctx.params["distribution"],
        sweeps=ctx.params["steps"],
        seed=ctx.seed,
        drift=ctx.params["drift"],
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

    steps = ctx.params["steps"]
    return DriftingRelaxation(
        n=ctx.params["size"],
        sweeps=steps,
        window=max(1, steps // 4),
        drift=ctx.params["drift"],
        kind=ctx.params["kind"],
    )
