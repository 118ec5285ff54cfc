"""Planner-backed app variants and the `plan` CLI subcommand."""

import numpy as np
import pytest

from repro.apps.adi import adi_reference, execute_adi
from repro.apps.pic import PICConfig, execute_pic
from repro.apps.smoothing import best_distribution, planned_distribution
from repro.machine import (
    IPSC860,
    Machine,
    MODERN_CLUSTER,
    PARAGON,
    ProcessorArray,
    ZERO_COST,
)


def machine(cm=PARAGON, shape=(4,)):
    return Machine(ProcessorArray("R", shape), cost_model=cm)


class TestADIPlanned:
    def test_solution_matches_reference(self):
        grid = np.random.default_rng(0).standard_normal((32, 32))
        ref = adi_reference(grid, 2, -1.0, 4.0)
        r = execute_adi(machine(), 32, 32, 2, "planned", grid=grid)
        assert np.allclose(r.solution, ref)

    def test_matches_hand_dynamic_on_paragon(self):
        """Where the flip is profitable the planned run is
        message-for-message the paper's dynamic strategy."""
        dyn = execute_adi(machine(), 64, 64, 2, "dynamic", seed=0)
        pln = execute_adi(machine(), 64, 64, 2, "planned", seed=0)
        assert pln.sweep_messages == dyn.sweep_messages == 0
        assert pln.redistribution.messages == dyn.redistribution.messages
        assert pln.total_time == pytest.approx(dyn.total_time)

    def test_zero_cost_model_never_redistributes(self):
        r = execute_adi(machine(ZERO_COST), 32, 32, 2, "planned", seed=0)
        assert r.redistribution.messages == 0

    def test_beats_static_on_paragon(self):
        pln = execute_adi(machine(), 64, 64, 2, "planned", seed=0)
        for s in ("static_cols", "static_rows"):
            static = execute_adi(machine(), 64, 64, 2, s, seed=0)
            assert pln.total_time < static.total_time


class TestPICPlanned:
    def cfg(self, strategy):
        return PICConfig(
            strategy=strategy, ncell=128, npart=3000, max_time=50,
            nprocs=4, drift=0.006, seed=5,
        )

    def test_runs_and_rebalances(self):
        r = execute_pic(machine(shape=(4,)), self.cfg("planned"))
        assert r.redistributions > 0

    def test_no_worse_imbalance_than_static(self):
        static = execute_pic(machine(shape=(4,)), self.cfg("static"))
        planned = execute_pic(machine(shape=(4,)), self.cfg("planned"))
        assert planned.mean_imbalance <= static.mean_imbalance

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            execute_pic(machine(shape=(4,)), self.cfg("nope"))


class TestSmoothingPlanned:
    @pytest.mark.parametrize("cm", [IPSC860, PARAGON, MODERN_CLUSTER])
    @pytest.mark.parametrize("n", [32, 128])
    def test_agrees_with_closed_form(self, cm, n):
        assert planned_distribution(n, 16, cm) == best_distribution(n, 16, cm)


class TestPlanCLI:
    @pytest.mark.parametrize("workload", ["adi", "pic", "smoothing"])
    def test_plan_subcommand(self, workload, capsys):
        from repro.__main__ import main

        main(["plan", workload, "--size", "32", "--iterations", "2",
              "--steps", "20"])
        out = capsys.readouterr().out
        assert "plan for" in out
        assert "best static" in out

    def test_default_is_tour(self, capsys):
        from repro.__main__ import main

        main()
        out = capsys.readouterr().out
        assert "Figure 1" in out and "planned" in out


class TestPlannedRegressions:
    def test_pic_planned_no_final_step_rebalance(self):
        """A checkpoint landing on the last step has a zero horizon:
        no redistribution can pay off there."""
        cfg = PICConfig(
            strategy="planned", ncell=64, npart=2000, max_time=10,
            nprocs=4, rebalance_every=10, drift=0.02, seed=1,
        )
        r = execute_pic(machine(shape=(4,)), cfg)
        assert not r.steps[-1].redistributed

    def test_plan_program_empty_arrays_override_plans_nothing(self):
        from repro.lang.frontend import parse_program
        from repro.planner.binding import plan_program

        src = """
PROGRAM P
REAL V(N, N) DYNAMIC, DIST (:, BLOCK)
PLAN V
V(I, J) = V(I, J)
END
"""
        program = parse_program(src, {"N": 16})
        m = machine()
        assert plan_program(program, m, {"V": (16, 16)}, arrays=[]) == {}
