"""Tests for the smoothing workload (§4) — the E1 reproduction core."""

import numpy as np
import pytest

from repro.apps.smoothing import (
    best_distribution,
    predicted_step_cost,
    execute_smoothing,
    smoothing_reference,
)
from repro.machine.cost_model import IPSC860, MODERN_CLUSTER, CostModel


class TestCorrectness:
    @pytest.mark.parametrize("distribution", ["columns", "blocks2d"])
    def test_matches_sequential(self, distribution):
        g = np.random.default_rng(0).standard_normal((32, 32))
        ref = smoothing_reference(g, 4)
        r = execute_smoothing(32, 4, distribution, 4, IPSC860, grid=g.copy())
        assert np.allclose(r.solution, ref)

    def test_distributions_agree(self):
        r1 = execute_smoothing(32, 3, "columns", 4, IPSC860, seed=5)
        r2 = execute_smoothing(32, 3, "blocks2d", 4, IPSC860, seed=5)
        assert np.allclose(r1.solution, r2.solution)


class TestPaperMessageCounts:
    def test_columns_interior_two_messages_per_proc(self):
        """'2 messages per processor, each of size N, per step'."""
        r = execute_smoothing(32, 1, "columns", 4, IPSC860, seed=0)
        # 3 interior boundaries x 2 directions = 6 total messages;
        # interior processors send/receive 2 each
        assert r.messages == 6
        # message size = N elements
        assert r.bytes == 6 * 32 * 8

    def test_blocks2d_four_messages_per_interior_proc(self):
        """'4 messages of size N/p each' (2 per distributed dim here
        on a 2x2 grid where every processor has 1 neighbour per dim)."""
        r = execute_smoothing(32, 1, "blocks2d", 4, IPSC860, seed=0)
        # 2x2 grid: 4 boundaries total (2 per dim) x 2 directions = 8
        assert r.messages == 8
        assert r.bytes == 8 * 16 * 8  # N/p = 16 elements per message

    def test_larger_grid_3x3(self):
        r = execute_smoothing(36, 1, "blocks2d", 9, IPSC860, seed=0)
        # 3x3: per dim 6 boundaries x 2 dirs = 12, two dims -> 24
        assert r.messages == 24

    def test_blocks_needs_square_proc_count(self):
        with pytest.raises(ValueError):
            execute_smoothing(16, 1, "blocks2d", 6, IPSC860)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            execute_smoothing(16, 1, "rows", 4, IPSC860)


class TestPredictedCost:
    def test_columns_formula(self):
        c = predicted_step_cost(64, 4, "columns", IPSC860)
        assert c == pytest.approx(2 * IPSC860.message_time(64 * 8))

    def test_blocks_formula(self):
        c = predicted_step_cost(64, 4, "blocks2d", IPSC860)
        assert c == pytest.approx(4 * IPSC860.message_time(32 * 8))

    def test_crossover_in_n(self):
        """§4: the ratio N/p determines the most appropriate
        distribution — small N favours columns (fewer startups), large
        N favours 2-D blocks (less volume)."""
        model = CostModel(alpha=1e-4, beta=1e-6, flop_rate=1e6)
        p = 16
        small = best_distribution(8, p, model)
        large = best_distribution(4096, p, model)
        assert small == "columns"
        assert large == "blocks2d"

    def test_crossover_point_formula(self):
        # cost_col = 2(a + bN8) ; cost_blk = 4(a + bN8/sqrt(p))
        # crossover N* = a / (b*8*(1 - 2/sqrt(p)))  [cols cheaper below]
        model = CostModel(alpha=1e-4, beta=1e-6, flop_rate=1e6)
        p = 16
        n_star = model.alpha / (model.beta * 8 * (1 - 2 / 4))
        below = int(n_star * 0.8)
        above = int(n_star * 1.25)
        assert best_distribution(below, p, model) == "columns"
        assert best_distribution(above, p, model) == "blocks2d"

    def test_machine_balance_shifts_the_crossover(self):
        """The crossover N* = alpha/(beta*w*(1 - 2/sqrt(p))) grows with
        the machine's alpha/beta ratio: the latency-dominated modern
        cluster (n_1/2 = 20 kB) sticks with columns far longer than the
        bandwidth-starved iPSC/860 (n_1/2 = 210 B)."""
        n = 64
        p = 16
        assert best_distribution(n, p, IPSC860) == "blocks2d"
        assert best_distribution(n, p, MODERN_CLUSTER) == "columns"
        # very large grids favour blocks everywhere
        assert best_distribution(40000, p, MODERN_CLUSTER) == "blocks2d"

    def test_nonsquare_p_falls_back_to_columns(self):
        assert best_distribution(64, 6, IPSC860) == "columns"


class TestMeasuredMatchesPredictedShape:
    def test_winner_agrees_with_model(self):
        """Measured per-step times must pick the same winner as the
        closed-form model (on machines where the margin is clear)."""
        n, p = 256, 16
        for model in (IPSC860, MODERN_CLUSTER):
            pred_col = predicted_step_cost(n, p, "columns", model)
            pred_blk = predicted_step_cost(n, p, "blocks2d", model)
            r_col = execute_smoothing(n, 2, "columns", p, model, seed=1)
            r_blk = execute_smoothing(n, 2, "blocks2d", p, model, seed=1)
            if pred_col < pred_blk:
                assert r_col.time <= r_blk.time * 1.5
            else:
                assert r_blk.time <= r_col.time * 1.5
