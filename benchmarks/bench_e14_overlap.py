"""E14 — split-phase communication overlap: simulated makespans.

Until this PR every modeled time was one scalar per processor; the
discrete-event simulator replays the recorded event stream of a real
run and separates what the aggregate accounting folds together: idle
time, load imbalance, and — the headline — the communication a
split-phase (nonblocking post/wait) lowering could hide behind
independent computation.

For each §4 workload (ADI Figure 1, smoothing, PIC Figure 2, and the
irregular PARTI relaxation) this bench records the typed event trace
of one execution and replays it twice:

- **blocking** — the exact semantics of the machine's aggregate
  accounting;
- **split-phase** — message posts cost ``alpha`` per endpoint, the
  ``beta*n`` transfers pipeline in the background, and communication-
  only barriers are relaxed so the waits migrate past the independent
  kernels that follow (the maximal legal overlap bound).

Claims asserted:

- with overlap *disabled* the simulator reproduces the aggregate cost
  accounting **bit for bit** — per-processor clocks and makespan — on
  all four applications (the conformance anchor);
- split-phase overlap never increases the simulated makespan, and
  strictly reduces it on at least two applications (ADI's
  redistribution transfers and smoothing's halo exchanges both hide
  behind sweeps);
- the planner's ``cost_mode="simulated"`` prices the same ADI
  transition no higher than the blocking closed form.
"""

from __future__ import annotations

import pytest

from conftest import emit_table
from repro.machine import IPSC860, Machine, PARAGON, ProcessorArray
from repro.planner import CostEngine, SimulatedCostEngine, adi_workload
from repro.planner.workloads import plan_workload
from repro.sim import EventLog, overlappable_phases, record, simulate


def _trace_adi(cost_model):
    from repro.apps.adi import execute_adi

    machine = Machine(ProcessorArray("R", (4,)), cost_model=cost_model)
    log = EventLog()
    with record(machine, log):
        execute_adi(machine, 48, 48, 2, strategy="dynamic", seed=0)
    return machine, log


def _trace_smoothing(cost_model):
    from repro.apps.smoothing import execute_smoothing

    machine = Machine((4,), cost_model=cost_model)
    log = EventLog()
    with record(machine, log):
        execute_smoothing(
            48, 8, "columns", 4, cost_model, seed=0, machine=machine
        )
    return machine, log


def _trace_pic(cost_model):
    from repro.apps.pic import PICConfig, execute_pic

    machine = Machine(ProcessorArray("P", (4,)), cost_model=cost_model)
    log = EventLog()
    with record(machine, log):
        execute_pic(
            machine,
            PICConfig(
                strategy="bblock", ncell=64, npart=512, max_time=8,
                nprocs=4, seed=0,
            ),
        )
    return machine, log


def _trace_irregular(cost_model):
    from repro.apps.irregular import make_mesh, run_relaxation

    machine = Machine(ProcessorArray("P", (4,)), cost_model=cost_model)
    graph = make_mesh(160, seed=0)
    log = EventLog()
    with record(machine, log):
        run_relaxation(machine, graph, "partitioned", sweeps=4, seed=0)
    return machine, log


TRACERS = [
    ("adi", _trace_adi),
    ("smoothing", _trace_smoothing),
    ("pic", _trace_pic),
    ("irregular", _trace_irregular),
]


def test_e14_blocking_matches_aggregate_accounting():
    """Overlap disabled == the existing cost accounting, bitwise."""
    rows = []
    for name, tracer in TRACERS:
        machine, log = tracer(PARAGON)
        timeline = simulate(log, machine.cost_model, machine.nprocs)
        assert timeline.clocks == machine.network.clocks, name
        assert timeline.makespan == machine.time, name
        rows.append(
            [name, len(log), timeline.makespan * 1e3,
             machine.time * 1e3, "bitwise"]
        )
    emit_table(
        "E14a: simulator (overlap off) vs aggregate accounting (Paragon)",
        ["app", "events", "sim makespan (ms)", "machine time (ms)", "match"],
        rows,
    )


def test_e14_split_phase_overlap_reduces_makespan():
    """Split-phase halo/redistribution overlap vs blocking."""
    rows = []
    strict = {}
    for model in (PARAGON, IPSC860):
        for name, tracer in TRACERS:
            machine, log = tracer(model)
            blocking = simulate(log, machine.cost_model, machine.nprocs)
            split = simulate(
                log, machine.cost_model, machine.nprocs, overlap=True
            )
            assert split.makespan <= blocking.makespan * (1 + 1e-9), name
            hideable = overlappable_phases(log)
            reduction = (
                1.0 - split.makespan / blocking.makespan
                if blocking.makespan > 0
                else 0.0
            )
            if model is PARAGON:
                strict[name] = split.makespan < blocking.makespan
            rows.append(
                [
                    name,
                    model.name,
                    blocking.makespan * 1e3,
                    split.makespan * 1e3,
                    f"{reduction:.1%}",
                    split.relaxed,
                    sum(hideable.values()),
                ]
            )
    emit_table(
        "E14b: blocking vs split-phase simulated makespan",
        ["app", "machine", "blocking (ms)", "split-phase (ms)",
         "hidden", "relaxed barriers", "hideable phases"],
        rows,
    )
    # the acceptance claim: strict reduction on at least two apps
    assert sum(strict.values()) >= 2, strict
    assert strict["adi"] and strict["smoothing"], strict


def test_e14_simulated_cost_mode_exploits_overlap():
    """``cost_mode="simulated"`` prices transitions no higher than the
    blocking closed form, and the planned schedule is at least as
    cheap under overlap semantics."""
    wl = adi_workload(48, 48, iterations=2, cost_model=PARAGON)
    blocking_engine = CostEngine(wl.machine)
    sim_engine = SimulatedCostEngine(wl.machine)
    a = wl.initial
    b = wl.hand[1] if wl.hand is not None else wl.candidates[0]
    assert sim_engine.transition_cost(a, b) <= (
        blocking_engine.transition_cost(a, b) * (1 + 1e-9)
    )
    plan_b = plan_workload(wl, cost_engine=blocking_engine)
    plan_s = plan_workload(wl, cost_mode="simulated")
    assert plan_s.total_cost <= plan_b.total_cost * (1 + 1e-9)


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "split"])
def test_e14_replay_speed(benchmark, overlap):
    """Replay throughput of the simulator itself."""
    machine, log = _trace_smoothing(PARAGON)
    timeline = benchmark(
        simulate, log, machine.cost_model, machine.nprocs, overlap
    )
    assert timeline.makespan > 0
