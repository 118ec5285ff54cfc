"""Named workloads: the planner recovers the paper's decisions.

These are the ISSUE's acceptance criteria: on ADI the planner
independently recovers Figure 1's dynamic schedule whenever the cost
model makes the flip profitable, and on ADI, PIC and smoothing its
modeled total cost is <= every static single-layout alternative.
"""

import pytest

from repro.core.dimdist import Block, GenBlock, NoDist
from repro.core.distribution import dist_type
from repro.machine import (
    IPSC860,
    MODERN_CLUSTER,
    PARAGON,
    ZERO_COST,
)
from repro.api import REGISTRY, WorkloadContext
from repro.planner import (
    CostEngine,
    adi_workload,
    hand_schedule_cost,
    pic_workload,
    plan_workload,
    smoothing_workload,
)

ALL_MODELS = [IPSC860, PARAGON, MODERN_CLUSTER]
FACTORIES = {
    "adi": adi_workload,
    "pic": pic_workload,
    "smoothing": smoothing_workload,
}


class TestADI:
    @pytest.mark.parametrize("cm", ALL_MODELS)
    def test_recovers_figure1_schedule(self, cm):
        """(:, BLOCK) for the x-sweep, (BLOCK, :) for the y-sweep —
        on every machine where the flip is profitable (all three
        presets at 64x64 on 4 processors)."""
        workload = adi_workload(64, 64, iterations=2, cost_model=cm)
        plan = plan_workload(workload)
        assert [s.dist.dtype for s in plan.steps] == [
            dist_type(":", "BLOCK"),
            dist_type("BLOCK", ":"),
            dist_type(":", "BLOCK"),
            dist_type("BLOCK", ":"),
        ]

    def test_matches_hand_schedule_cost(self):
        workload = adi_workload(64, 64, iterations=2)
        engine = CostEngine(workload.machine)
        plan = plan_workload(workload, cost_engine=engine)
        hand = hand_schedule_cost(workload, cost_engine=engine)
        assert plan.total_cost == pytest.approx(hand)

    def test_unprofitable_flip_stays_static(self):
        workload = adi_workload(64, 64, iterations=2, cost_model=ZERO_COST)
        plan = plan_workload(workload)
        assert plan.redistributions == []

    def test_built_from_surface_text(self):
        workload = adi_workload(32, 32, iterations=3)
        assert len(workload.phases) == 6
        assert workload.initial.dtype == dist_type(":", "BLOCK")


class TestPIC:
    def test_rediscovers_bblock_rebalancing(self):
        """The planner chooses the balanced general blocks and flips
        between them as the cluster drifts — Figure 2's schedule."""
        workload = pic_workload(steps=50)
        plan = plan_workload(workload)
        for step in plan.steps:
            assert isinstance(step.dist.dtype.dims[0], GenBlock)
        assert len(plan.redistributions) >= 2

    def test_not_worse_than_hand_rebalancing(self):
        workload = pic_workload(steps=50)
        engine = CostEngine(workload.machine)
        plan = plan_workload(workload, cost_engine=engine)
        hand = hand_schedule_cost(workload, cost_engine=engine)
        assert plan.total_cost <= hand + 1e-15

    def test_cells_dimension_only(self):
        workload = pic_workload(steps=20)
        for c in workload.candidates:
            assert isinstance(c.dtype.dims[1], NoDist)


class TestSmoothing:
    @pytest.mark.parametrize("cm", ALL_MODELS)
    @pytest.mark.parametrize("n,p", [(32, 16), (128, 16), (512, 16)])
    def test_agrees_with_closed_form(self, cm, n, p):
        """The planner's static pick is never worse than either of the
        paper's two closed-form alternatives."""
        from repro.apps.smoothing import predicted_step_cost

        workload = smoothing_workload(n, p, steps=50, cost_model=cm)
        plan = plan_workload(workload)
        per_step = plan.total_cost / 50
        closed = min(
            predicted_step_cost(n, p, "columns", cm),
            predicted_step_cost(n, p, "blocks2d", cm),
        )
        assert per_step <= closed + 1e-15

    def test_ipsc_picks_2d_blocks_at_128(self):
        workload = smoothing_workload(128, 16, cost_model=IPSC860)
        plan = plan_workload(workload)
        dist = plan.steps[0].dist
        assert all(isinstance(d, Block) for d in dist.dtype.dims)
        assert dist.target.shape == (4, 4)

    def test_paragon_picks_strips_at_128(self):
        workload = smoothing_workload(128, 16, cost_model=PARAGON)
        plan = plan_workload(workload)
        assert len(plan.steps[0].dist.dtype.distributed_dims) == 1


class TestAcceptance:
    """Planner cost <= every static single-layout alternative."""

    @pytest.mark.parametrize("name", ["adi", "pic", "smoothing"])
    @pytest.mark.parametrize("cm", ALL_MODELS)
    def test_planned_beats_every_static(self, name, cm):
        workload = FACTORIES[name](cost_model=cm)
        plan = plan_workload(workload)
        assert plan.static
        for dist, cost in plan.static.items():
            assert plan.total_cost <= cost + 1e-12, (
                f"{name} on {cm.name}: planned {plan.total_cost} worse "
                f"than static {dist.dtype!r} at {cost}"
            )


class TestRegistry:
    def test_get_workload_names(self):
        """The workload registry's ``.planning`` hooks are the one
        name -> planning-problem table."""
        assert REGISTRY.plannable_names() == tuple(sorted(FACTORIES))
        for name in FACTORIES:
            spec = REGISTRY.get(name)
            ctx = WorkloadContext(
                name, nprocs=4, cost_model=PARAGON, seed=0,
                params=spec.resolve_params({}),
            )
            assert spec.planning_problem(ctx).name == name
        with pytest.raises(KeyError):
            REGISTRY.get("nope")
