"""The planner's simulated (overlap-aware) cost mode."""

import pytest

from repro.core.distribution import dist_type
from repro.machine import IPSC860, Machine, PARAGON, ProcessorArray
from repro.planner import (
    CostEngine,
    SimulatedCostEngine,
    adi_workload,
    plan_workload,
    smoothing_workload,
)

R = ProcessorArray("R", (4,))


@pytest.fixture
def machine():
    return Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)


class TestSimulatedTransitions:
    def test_identity_transition_free(self, machine):
        engine = SimulatedCostEngine(machine)
        d = dist_type(":", "BLOCK").apply((16, 16), R)
        assert engine.transition_cost(d, d) == 0.0

    def test_blocking_mode_matches_closed_form(self, machine):
        """overlap=False degrades to the base engine's bottleneck sum
        (same arithmetic, different association order)."""
        base = CostEngine(machine)
        sim = SimulatedCostEngine(machine, overlap=False)
        old = dist_type(":", "BLOCK").apply((32, 32), R)
        new = dist_type("BLOCK", ":").apply((32, 32), R)
        assert sim.transition_cost(old, new) == pytest.approx(
            base.transition_cost(old, new), rel=1e-12
        )

    def test_overlap_transition_no_more_expensive(self, machine):
        base = CostEngine(machine)
        sim = SimulatedCostEngine(machine)  # overlap=True default
        old = dist_type(":", "BLOCK").apply((32, 32), R)
        new = dist_type("BLOCK", ":").apply((32, 32), R)
        assert sim.transition_cost(old, new) <= base.transition_cost(
            old, new
        ) * (1 + 1e-9)

    def test_transition_memoized(self, machine):
        sim = SimulatedCostEngine(machine)
        old = dist_type(":", "BLOCK").apply((32, 32), R)
        new = dist_type("BLOCK", ":").apply((32, 32), R)
        first = sim.transition_cost(old, new)
        misses = machine.plans.misses
        assert sim.transition_cost(old, new) == first
        assert machine.plans.misses == misses  # cached, no recompute


class TestSimulatedPhases:
    def test_phase_cost_is_max_of_comm_and_compute(self, machine):
        wl = adi_workload(32, 32, iterations=1, machine=machine)
        sim = SimulatedCostEngine(machine)
        for phase in wl.phases:
            for dist in wl.candidates:
                comm, comp = sim.comm_compute_split(phase, wl.array, dist)
                assert sim.phase_cost(phase, wl.array, dist) == (
                    pytest.approx(max(comm, comp) * phase.repeat)
                )

    def test_phase_cost_never_exceeds_blocking(self, machine):
        wl = adi_workload(32, 32, iterations=1, machine=machine)
        base = CostEngine(machine)
        sim = SimulatedCostEngine(machine)
        for phase in wl.phases:
            for dist in wl.candidates:
                assert sim.phase_cost(phase, wl.array, dist) <= (
                    base.phase_cost(phase, wl.array, dist) * (1 + 1e-9)
                )


class TestCostModePlumbing:
    def test_plan_workload_cost_mode_validation(self):
        wl = adi_workload(16, 16, iterations=1, cost_model=PARAGON)
        with pytest.raises(ValueError, match="cost_mode"):
            plan_workload(wl, cost_mode="quantum")

    def test_simulated_plan_no_worse_than_blocking_plan(self):
        for factory in (adi_workload,):
            wl = factory(32, 32, iterations=2, cost_model=IPSC860)
            blocking = plan_workload(wl)
            simulated = plan_workload(wl, cost_mode="simulated")
            assert simulated.total_cost <= blocking.total_cost * (1 + 1e-9)

    def test_simulated_plan_keeps_static_guarantee(self):
        wl = smoothing_workload(32, 4, steps=10, cost_model=PARAGON)
        plan = plan_workload(wl, cost_mode="simulated")
        if plan.static:
            assert plan.total_cost <= min(plan.static.values()) + 1e-12

    def test_adi_flip_survives_simulated_pricing(self):
        """Overlap pricing must not lose Figure 1's redistribution
        flip on the paper's machine."""
        wl = adi_workload(64, 64, iterations=2, cost_model=PARAGON)
        plan = plan_workload(wl, cost_mode="simulated")
        assert len(plan.redistributions) >= 1
