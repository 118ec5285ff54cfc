"""Session-path results are bitwise-identical to the direct paths.

The acceptance bar of the API redesign: for every registered workload,
``Session`` runs reproduce a direct call of the application's
``execute_*`` function exactly — solutions, per-processor clocks,
recorded event logs — and ``handle.plan()`` reproduces the schedule of
the planner factory called by hand.  Property-tested over sizes and
seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import sim
from repro.api import REGISTRY, session
from repro.machine import Machine, PARAGON, ProcessorArray

NPROCS = 4


def _legacy_adi(size, iterations, seed, log):
    from repro.apps.adi import execute_adi

    machine = Machine(ProcessorArray("R", (NPROCS,)), cost_model=PARAGON)
    with sim.record(machine, log):
        r = execute_adi(
            machine, size, size, iterations, "dynamic", seed=seed
        )
    return r.solution, tuple(machine.network.clocks)


def _legacy_pic(size, steps, seed, log):
    from repro.apps.pic import PICConfig, execute_pic

    machine = Machine(ProcessorArray("P", (NPROCS,)), cost_model=PARAGON)
    cfg = PICConfig(
        strategy="bblock", ncell=size, npart=8 * size, max_time=steps,
        nprocs=NPROCS, seed=seed,
    )
    with sim.record(machine, log):
        r = execute_pic(machine, cfg)
    sol = np.array([s.imbalance for s in r.steps], dtype=np.float64)
    return sol, tuple(machine.network.clocks)


def _legacy_smoothing(size, steps, seed, log):
    from repro.apps.smoothing import execute_smoothing

    machine = Machine((NPROCS,), cost_model=PARAGON)
    with sim.record(machine, log):
        r = execute_smoothing(
            size, steps, "columns", NPROCS, PARAGON, seed=seed,
            machine=machine,
        )
    return r.solution, tuple(machine.network.clocks)


def _legacy_irregular(size, steps, seed, log):
    from repro.apps.irregular import make_mesh, run_relaxation

    machine = Machine(ProcessorArray("P", (NPROCS,)), cost_model=PARAGON)
    graph = make_mesh(size, seed=seed)
    with sim.record(machine, log):
        r = run_relaxation(
            machine, graph, "partitioned", sweeps=steps, seed=seed
        )
    return r.solution, tuple(machine.network.clocks)


LEGACY = {
    "adi": lambda size, seed, log: _legacy_adi(size, 2, seed, log),
    "pic": lambda size, seed, log: _legacy_pic(size, 4, seed, log),
    "smoothing": lambda size, seed, log: _legacy_smoothing(size, 4, seed, log),
    "irregular": lambda size, seed, log: _legacy_irregular(size, 4, seed, log),
}
PARAMS = {
    "adi": {"iterations": 2},
    "pic": {"steps": 4},
    "smoothing": {"steps": 4},
    "irregular": {"steps": 4},
}
WORKLOADS = sorted(set(LEGACY) & set(REGISTRY.names()))


@pytest.mark.parametrize("name", WORKLOADS)
@given(size=st.sampled_from([8, 16]), seed=st.integers(0, 3))
@settings(max_examples=6, deadline=None)
def test_run_bitwise_identical_to_legacy(name, size, seed):
    run = session(nprocs=NPROCS, seed=seed, record_events=True).workload(
        name, size=size, **PARAMS[name]
    ).run()
    legacy_log = sim.EventLog()
    legacy_solution, legacy_clocks = LEGACY[name](size, seed, legacy_log)
    assert np.array_equal(run.solution, legacy_solution)
    assert run.solution.dtype == legacy_solution.dtype
    assert run.clocks == legacy_clocks
    assert run.events.events == legacy_log.events


@pytest.mark.parametrize("name", ["adi", "pic", "smoothing"])
@given(seed=st.integers(0, 2))
@settings(max_examples=3, deadline=None)
def test_plan_identical_to_legacy(name, seed):
    from repro import planner
    from repro.planner import CostEngine, plan_workload

    size = 16
    steps = 4
    handle_params = {"size": size}
    legacy_kwargs = {"nprocs": NPROCS, "cost_model": PARAGON}
    if name == "adi":
        handle_params["iterations"] = 2
        legacy_kwargs.update(nx=size, ny=size, iterations=2)
    elif name == "pic":
        handle_params["steps"] = steps
        legacy_kwargs.update(ncell=size, steps=steps, seed=seed)
    else:
        handle_params["steps"] = steps
        legacy_kwargs.update(n=size, steps=steps)

    sess_seed = seed if name == "pic" else 0
    result = session(nprocs=NPROCS, seed=sess_seed).workload(
        name, **handle_params
    ).plan()

    legacy_workload = getattr(planner, f"{name}_workload")(**legacy_kwargs)
    legacy_plan = plan_workload(
        legacy_workload, cost_engine=CostEngine(legacy_workload.machine)
    )
    assert result.plan.layouts() == legacy_plan.layouts()
    assert result.plan.total_cost == legacy_plan.total_cost
    assert result.plan.to_dict() == legacy_plan.to_dict()


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_blocking_matches_aggregate(name):
    t = session(nprocs=NPROCS).workload(name, size=16, **PARAMS[name]).trace()
    assert t.matches_aggregate is True
