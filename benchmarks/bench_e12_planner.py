"""E12 — the automatic distribution planner vs the paper's choices.

The paper leaves redistribution scheduling to the programmer; E12
measures how the planner's cost-driven schedules compare against (a)
the best *static* single layout and (b) the paper's hand-annotated
dynamic schedule, on all three §4 workloads and all machine presets.

Claims asserted:

- the planned schedule's modeled cost is never worse than any static
  alternative (the DP guarantee) nor than the hand schedule (which is
  a path in the planner's own lattice);
- on ADI the planner independently recovers Figure 1's
  ``(:, BLOCK)`` / ``(BLOCK, :)`` flip on every preset machine;
- the executed planned ADI run matches the hand-written dynamic
  strategy message-for-message.
"""

import pytest

from conftest import emit_table
from repro.core.distribution import dist_type
from repro.machine import IPSC860, Machine, MODERN_CLUSTER, PARAGON, ProcessorArray
from repro.planner import (
    CostEngine,
    adi_workload,
    hand_schedule_cost,
    pic_workload,
    plan_workload,
    smoothing_workload,
)

MODELS = (IPSC860, PARAGON, MODERN_CLUSTER)
WORKLOADS = {
    "adi": adi_workload,
    "pic": pic_workload,
    "smoothing": smoothing_workload,
}


def test_e12_planner_vs_static_vs_hand():
    rows = []
    for name in WORKLOADS:
        for cm in MODELS:
            wl = WORKLOADS[name](cost_model=cm)
            engine = CostEngine(wl.machine)
            plan = plan_workload(wl, cost_engine=engine)
            best_static = min(plan.static.values())
            hand = hand_schedule_cost(wl, cost_engine=engine)
            rows.append(
                [
                    name,
                    cm.name,
                    len(plan.redistributions),
                    plan.total_cost * 1e3,
                    best_static * 1e3,
                    (hand if hand is not None else float("nan")) * 1e3,
                    best_static / plan.total_cost
                    if plan.total_cost > 0
                    else float("inf"),
                ]
            )
            assert plan.total_cost <= best_static + 1e-12
            if hand is not None:
                assert plan.total_cost <= hand + 1e-12
    emit_table(
        "E12: planned vs best-static vs hand schedule (modeled ms)",
        ["workload", "machine", "redists", "planned_ms", "static_ms",
         "hand_ms", "static/planned"],
        rows,
    )


def test_e12_adi_recovers_figure1_on_every_preset():
    rows = []
    for cm in MODELS:
        wl = adi_workload(cost_model=cm)
        plan = plan_workload(wl)
        schedule = [s.dist.dtype for s in plan.steps]
        want = [
            dist_type(":", "BLOCK"),
            dist_type("BLOCK", ":"),
        ] * (len(plan.steps) // 2)
        assert schedule == want
        rows.append([cm.name, len(plan.redistributions),
                     plan.total_cost * 1e3])
    emit_table(
        "E12: ADI planner schedule per machine (Figure 1 recovered)",
        ["machine", "redists", "planned_ms"],
        rows,
    )


def test_e12_executed_planned_adi_matches_dynamic():
    from repro.apps.adi import execute_adi

    rows = []
    for cm in MODELS:
        dyn = execute_adi(
            Machine(ProcessorArray("R", (4,)), cost_model=cm),
            64, 64, 2, "dynamic", seed=0,
        )
        pln = execute_adi(
            Machine(ProcessorArray("R", (4,)), cost_model=cm),
            64, 64, 2, "planned", seed=0,
        )
        rows.append(
            [cm.name, dyn.total_time * 1e3, pln.total_time * 1e3,
             pln.redistribution.messages]
        )
        assert pln.sweep_messages == 0
        assert pln.redistribution.messages == dyn.redistribution.messages
        assert pln.total_time == pytest.approx(dyn.total_time)
    emit_table(
        "E12: executed ADI — hand dynamic vs planned (ms)",
        ["machine", "dynamic_ms", "planned_ms", "redist_msgs"],
        rows,
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_e12_planner_benchmark(benchmark, name):
    wl = WORKLOADS[name]()

    def run():
        return plan_workload(wl, cost_engine=CostEngine(wl.machine))

    benchmark(run)
