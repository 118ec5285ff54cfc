"""Execution binding: ensure_dist, PlanExecutor, plan_program."""

import numpy as np
import pytest

from repro.core.distribution import dist_type
from repro.lang.frontend import parse_program
from repro.machine import Machine, PARAGON, ProcessorArray
from repro.planner.binding import PlanExecutor, bind_pattern, plan_program
from repro.planner.costs import CostEngine
from repro.planner.search import plan_array
from repro.planner.workloads import adi_workload
from repro.runtime.engine import Engine


def machine():
    return Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)


class TestEnsureDist:
    def test_noop_when_unchanged(self):
        m = machine()
        engine = Engine(m)
        engine.declare("V", (16, 16), dist=dist_type(":", "BLOCK"), dynamic=True)
        before = m.stats()
        reports = engine.ensure_dist("V", dist_type(":", "BLOCK"))
        assert reports == []
        assert m.stats().messages == before.messages

    def test_redistributes_when_changed(self):
        m = machine()
        engine = Engine(m)
        v = engine.declare(
            "V", (16, 16), dist=dist_type(":", "BLOCK"), dynamic=True
        )
        data = np.arange(256, dtype=float).reshape(16, 16)
        v.from_global(data)
        reports = engine.ensure_dist("V", dist_type("BLOCK", ":"))
        assert reports and reports[0].messages > 0
        assert np.array_equal(v.to_global(), data)

    def test_accepts_bound_distribution(self):
        m = machine()
        engine = Engine(m)
        engine.declare("V", (16, 16), dist=dist_type(":", "BLOCK"), dynamic=True)
        bound = dist_type("BLOCK", ":").apply((16, 16), m.full_section())
        engine.ensure_dist("V", bound)
        assert engine.arrays["V"].dist == bound


class TestPlanExecutor:
    def test_executes_schedule_and_preserves_data(self):
        m = machine()
        engine = Engine(m)
        workload = adi_workload(16, 16, iterations=2, machine=m)
        cost_engine = CostEngine(m)
        plan = plan_array(
            "V", workload.phases, workload.candidates, cost_engine,
            initial=workload.initial,
        )
        v = engine.declare("V", (16, 16), dist=workload.initial, dynamic=True)
        data = np.arange(256, dtype=float).reshape(16, 16)
        v.from_global(data)

        visited = []
        executor = PlanExecutor(engine, plan)
        executor.run(lambda i, ph: visited.append(i))
        assert visited == list(range(len(plan.steps)))
        assert v.dist == plan.steps[-1].dist
        assert np.array_equal(v.to_global(), data)
        # the alternating ADI schedule has actual redistributions
        assert executor.reports

    def test_shares_engine_plan_cache(self):
        m = machine()
        engine = Engine(m)
        workload = adi_workload(16, 16, iterations=2, machine=m)
        cost_engine = CostEngine(m)
        plan = plan_array(
            "V", workload.phases, workload.candidates, cost_engine,
            initial=workload.initial,
        )
        v = engine.declare("V", (16, 16), dist=workload.initial, dynamic=True)
        v.from_global(np.zeros((16, 16)))
        engine.plan_cache.clear()
        # pricing already cached the flip matrices -> execution hits
        cost_engine.transition_cost(plan.steps[0].dist, plan.steps[1].dist)
        PlanExecutor(engine, plan).run()
        assert engine.plan_cache.hits > 0


class TestBindPattern:
    def test_concrete_pattern_binds(self):
        m = machine()
        from repro.lang.parser import parse_pattern

        dist = bind_pattern(parse_pattern("(:, BLOCK)"), (16, 16), m)
        assert dist is not None
        assert dist.dtype == dist_type(":", "BLOCK")

    def test_wildcard_pattern_returns_none(self):
        m = machine()
        from repro.lang.parser import parse_pattern

        assert bind_pattern(parse_pattern("(*, BLOCK)"), (16, 16), m) is None
        assert bind_pattern(parse_pattern("*"), (16, 16), m) is None

    def test_2d_pattern_on_1d_machine_uses_factorization(self):
        m = machine()  # 4 procs, 1-D
        from repro.lang.parser import parse_pattern

        dist = bind_pattern(parse_pattern("(BLOCK, BLOCK)"), (16, 16), m)
        assert dist is not None
        assert dist.target.shape == (2, 2)

    def test_2d_pattern_binds_squarest_grid(self):
        m = Machine(ProcessorArray("R", (16,)), cost_model=PARAGON)
        from repro.lang.parser import parse_pattern

        dist = bind_pattern(parse_pattern("(BLOCK, BLOCK)"), (64, 64), m)
        assert dist.target.shape == (4, 4)  # not the lopsided (2, 8)


class TestPlanProgram:
    SRC = """
PROGRAM MAIN
REAL V(N, N) DYNAMIC, RANGE ((:, BLOCK), (BLOCK, :)), DIST (:, BLOCK)
PLAN V
DO IT = 1, 2
  DO J = 1, N
    CALL TRIDIAG(V(:, J), N)
  ENDDO
  DO I = 1, N
    CALL TRIDIAG(V(I, :), N)
  ENDDO
ENDDO
END
"""

    def test_plans_annotated_arrays(self):
        m = machine()
        program = parse_program(self.SRC, {"N": 32})
        plans = plan_program(program, m, {"V": (32, 32)})
        assert set(plans) == {"V"}
        plan = plans["V"]
        assert len(plan.steps) == 4
        # recovers the alternating schedule from source text alone
        assert [s.dist.dtype for s in plan.steps] == [
            dist_type(":", "BLOCK"),
            dist_type("BLOCK", ":"),
            dist_type(":", "BLOCK"),
            dist_type("BLOCK", ":"),
        ]
        # candidates pruned by RANGE
        assert all(
            c.dtype
            in (dist_type(":", "BLOCK"), dist_type("BLOCK", ":"))
            for c in plan.static
        )

    def test_missing_shape_raises(self):
        m = machine()
        program = parse_program(self.SRC, {"N": 32})
        with pytest.raises(KeyError):
            plan_program(program, m, {})

    def test_arrays_override(self):
        m = machine()
        program = parse_program(self.SRC, {"N": 32})
        plans = plan_program(program, m, {"V": (32, 32)}, arrays=["V"])
        assert set(plans) == {"V"}
