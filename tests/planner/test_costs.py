"""Cost engine: agreement with the paper's closed forms, memoization."""

import pytest

from repro.apps.smoothing import predicted_step_cost
from repro.compiler.ir import AccessKind, ArrayRef
from repro.core.distribution import dist_type
from repro.machine import IPSC860, Machine, PARAGON, ProcessorArray, ZERO_COST
from repro.planner.costs import CostEngine
from repro.planner.phases import ArrayLoad, Phase


def machine(shape=(4,), cm=PARAGON):
    return Machine(ProcessorArray("P", shape), cost_model=cm)


def bound(dt, shape, m):
    return dt.apply(shape, m.full_section())


SMOOTH_REFS = tuple(
    ArrayRef("U", AccessKind.SHIFT, offsets=off)
    for off in ((1, 0), (-1, 0), (0, 1), (0, -1))
)


class TestRefCost:
    def test_row_sweep_free_when_dim_undistributed(self):
        m = machine()
        engine = CostEngine(m)
        cols = bound(dist_type(":", "BLOCK"), (32, 32), m)
        ref = ArrayRef("V", AccessKind.ROW_SWEEP, dim=0)
        assert engine.ref_cost(ref, cols) == 0.0

    def test_row_sweep_costly_when_distributed(self):
        m = machine()
        engine = CostEngine(m)
        rows = bound(dist_type("BLOCK", ":"), (32, 32), m)
        ref = ArrayRef("V", AccessKind.ROW_SWEEP, dim=0)
        assert engine.ref_cost(ref, rows) > 0.0

    @pytest.mark.parametrize("cm", [IPSC860, PARAGON])
    @pytest.mark.parametrize("n,p", [(64, 16), (128, 16), (256, 4)])
    def test_smoothing_matches_paper_closed_form_columns(self, cm, n, p):
        """Per-step cost under (:, BLOCK) equals the paper's '2 messages
        of N elements per processor'."""
        m = machine((p,), cm)
        engine = CostEngine(m)
        cols = bound(dist_type(":", "BLOCK"), (n, n), m)
        ph = Phase("s", SMOOTH_REFS)
        got = engine.phase_cost(ph, "U", cols)
        want = predicted_step_cost(n, p, "columns", cm)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("cm", [IPSC860, PARAGON])
    def test_smoothing_matches_paper_closed_form_blocks2d(self, cm):
        n, p = 128, 16
        m = machine((4, 4), cm)
        engine = CostEngine(m)
        blocks = bound(dist_type("BLOCK", "BLOCK"), (n, n), m)
        ph = Phase("s", SMOOTH_REFS)
        got = engine.phase_cost(ph, "U", blocks)
        want = predicted_step_cost(n, p, "blocks2d", cm)
        assert got == pytest.approx(want, rel=1e-12)


class TestPhaseCost:
    def test_repeat_scales_linearly(self):
        m = machine()
        engine = CostEngine(m)
        rows = bound(dist_type("BLOCK", ":"), (32, 32), m)
        ref = ArrayRef("V", AccessKind.ROW_SWEEP, dim=0)
        one = engine.phase_cost(Phase("a", (ref,)), "V", rows)
        ten = engine.phase_cost(Phase("b", (ref,), repeat=10), "V", rows)
        assert ten == pytest.approx(10 * one)

    def test_other_arrays_not_charged(self):
        m = machine()
        engine = CostEngine(m)
        rows = bound(dist_type("BLOCK", ":"), (32, 32), m)
        ref = ArrayRef("W", AccessKind.ROW_SWEEP, dim=0)
        assert engine.phase_cost(Phase("a", (ref,)), "V", rows) == 0.0

    def test_memoized(self):
        m = machine()
        engine = CostEngine(m)
        rows = bound(dist_type("BLOCK", ":"), (32, 32), m)
        ph = Phase("a", (ArrayRef("V", AccessKind.ROW_SWEEP, dim=0),))
        engine.phase_cost(ph, "V", rows)
        assert (ph, "V", rows) in engine._phase_memo


class TestLoadCost:
    def test_block_bottleneck_vs_balanced(self):
        m = machine()
        engine = CostEngine(m)
        # all the work in the first quarter: BLOCK's bottleneck is the
        # whole load, a fitted general block's is a quarter of it
        weights = tuple([100.0] * 8 + [0.0] * 24)
        load = ArrayLoad("F", 0, weights, flops_per_unit=10.0)
        block = bound(dist_type("BLOCK", ":"), (32, 4), m)
        from repro.core.dimdist import GenBlock

        balanced = bound(dist_type(GenBlock([2, 2, 2, 26]), ":"), (32, 4), m)
        assert engine.load_cost(load, block) == pytest.approx(
            4 * engine.load_cost(load, balanced)
        )

    def test_boundary_traffic_punishes_cyclic(self):
        m = machine()
        engine = CostEngine(m)
        weights = tuple(float(i % 5) for i in range(32))
        load = ArrayLoad("F", 0, weights, boundary_bytes_per_unit=32.0)
        block = bound(dist_type("BLOCK", ":"), (32, 4), m)
        cyclic = bound(dist_type("CYCLIC", ":"), (32, 4), m)
        assert engine.load_cost(load, cyclic) > engine.load_cost(load, block)

    def test_undistributed_dim_has_no_boundaries(self):
        m = machine()
        engine = CostEngine(m)
        load = ArrayLoad("F", 0, tuple([1.0] * 32), boundary_bytes_per_unit=8.0)
        none = bound(dist_type(":", "BLOCK"), (32, 4), m)
        # compute still charged (split across procs), but no comm: equal
        # to the same load without boundary bytes
        plain = ArrayLoad("F", 0, tuple([1.0] * 32))
        assert engine.load_cost(load, none) == engine.load_cost(plain, none)


class TestTransitionCost:
    def test_identical_layouts_free(self):
        m = machine()
        engine = CostEngine(m)
        d = bound(dist_type("BLOCK", ":"), (32, 32), m)
        assert engine.transition_cost(d, d) == 0.0

    def test_flip_positive_and_memoized(self):
        m = machine()
        engine = CostEngine(m)
        rows = bound(dist_type("BLOCK", ":"), (32, 32), m)
        cols = bound(dist_type(":", "BLOCK"), (32, 32), m)
        t = engine.transition_cost(rows, cols)
        assert t > 0.0
        assert engine.transition_cost(rows, cols) == t
        assert (rows, cols) in engine._trans_memo

    def test_zero_cost_model_prices_everything_zero(self):
        m = machine(cm=ZERO_COST)
        engine = CostEngine(m)
        rows = bound(dist_type("BLOCK", ":"), (32, 32), m)
        cols = bound(dist_type(":", "BLOCK"), (32, 32), m)
        assert engine.transition_cost(rows, cols) == 0.0

    def test_plan_cache_shared(self):
        from repro.runtime.redistribute import PlanCache

        cache = PlanCache()
        m = machine()
        m.plans = cache
        engine = CostEngine(m)
        rows = bound(dist_type("BLOCK", ":"), (32, 32), m)
        cols = bound(dist_type(":", "BLOCK"), (32, 32), m)
        engine.transition_cost(rows, cols)
        assert len(cache) == 1

    def test_bottleneck_not_total(self):
        """The flip's time is the busiest processor's, not the sum of
        all messages (the exchange is concurrent)."""
        m = machine()
        engine = CostEngine(m)
        rows = bound(dist_type("BLOCK", ":"), (64, 64), m)
        cols = bound(dist_type(":", "BLOCK"), (64, 64), m)
        t = engine.transition_cost(rows, cols)
        # 12 pairwise messages in total; the bottleneck sees only 6
        total_naive = 12 * m.cost_model.message_time(16 * 16 * 8)
        assert t < total_naive


class TestStaticCost:
    def test_sums_phases_plus_initial_transition(self):
        m = machine()
        engine = CostEngine(m)
        rows = bound(dist_type("BLOCK", ":"), (32, 32), m)
        cols = bound(dist_type(":", "BLOCK"), (32, 32), m)
        ph = Phase("a", (ArrayRef("V", AccessKind.ROW_SWEEP, dim=0),))
        base = engine.phase_cost(ph, "V", rows)
        assert engine.static_cost([ph], "V", rows) == base
        assert engine.static_cost(
            [ph], "V", rows, initial=cols
        ) == pytest.approx(base + engine.transition_cost(cols, rows))
