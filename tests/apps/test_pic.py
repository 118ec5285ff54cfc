"""Tests for the PIC workload (Figure 2) — the E3 reproduction core."""

import numpy as np
import pytest

from repro.apps.pic import PICConfig, initpos, execute_pic
from repro.machine import Machine, PARAGON, ProcessorArray


def machine(p=4):
    return Machine(ProcessorArray("R", (p,)), cost_model=PARAGON)


def small_config(**kw):
    defaults = dict(ncell=64, npart=1500, max_time=25, nprocs=4, seed=3)
    defaults.update(kw)
    return PICConfig(**defaults)


class TestInitpos:
    def test_positions_in_domain(self):
        cfg = small_config()
        pos = initpos(cfg, np.random.default_rng(0))
        assert (pos >= 0).all() and (pos < 1).all()
        assert len(pos) == cfg.npart

    def test_clustered(self):
        cfg = small_config()
        pos = initpos(cfg, np.random.default_rng(0))
        # most particles near x=0.2
        assert np.median(np.abs(pos - 0.2)) < 3 * cfg.cluster_width


class TestRunPic:
    def test_step_records_complete(self):
        r = execute_pic(machine(), small_config())
        assert len(r.steps) == 25
        assert all(s.imbalance >= 1.0 for s in r.steps)

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            execute_pic(machine(), small_config(strategy="magic"))

    def test_proc_count_validation(self):
        with pytest.raises(ValueError):
            execute_pic(machine(8), small_config(nprocs=4))

    def test_static_never_redistributes(self):
        r = execute_pic(machine(), small_config(strategy="static"))
        assert r.redistributions == 0
        assert all(not s.redistributed for s in r.steps)

    def test_bblock_initial_balance_good(self):
        """balance() + B_BLOCK makes the first step nearly balanced."""
        r = execute_pic(machine(), small_config(strategy="bblock"))
        assert r.steps[0].imbalance < 1.3

    def test_static_starts_imbalanced(self):
        """The clustered initpos makes uniform BLOCK badly imbalanced."""
        r = execute_pic(machine(), small_config(strategy="static"))
        assert r.steps[0].imbalance > 1.8

    def test_figure2_claim_rebalancing_wins(self):
        """B_BLOCK + periodic rebalance maintains lower imbalance than
        static BLOCK as particles drift (the paper's §4 motivation)."""
        cfg_b = small_config(strategy="bblock", max_time=40)
        cfg_s = small_config(strategy="static", max_time=40)
        r_b = execute_pic(machine(), cfg_b)
        r_s = execute_pic(machine(), cfg_s)
        assert r_b.mean_imbalance < r_s.mean_imbalance
        assert r_b.max_imbalance < r_s.max_imbalance

    def test_rebalance_only_on_schedule(self):
        """Figure 2 rebalances only every 10th step."""
        cfg = small_config(strategy="bblock", rebalance_every=10, max_time=30)
        r = execute_pic(machine(), cfg)
        for s in r.steps:
            if s.redistributed:
                assert s.step % 10 == 0

    def test_rebalance_threshold_respected(self):
        """With an infinite threshold, rebalance() never fires."""
        cfg = small_config(
            strategy="bblock", imbalance_threshold=float("inf"), max_time=30
        )
        r = execute_pic(machine(), cfg)
        assert r.redistributions == 0

    def test_rebalancing_reduces_imbalance_at_that_step(self):
        cfg = small_config(strategy="bblock", max_time=40, drift=0.008)
        r = execute_pic(machine(), cfg)
        rebal_steps = [s for s in r.steps if s.redistributed]
        if rebal_steps:  # drift strong enough to trigger at least one
            for s in rebal_steps:
                assert s.imbalance < cfg.imbalance_threshold * 1.5

    def test_motion_messages_accounted(self):
        r = execute_pic(machine(), small_config(max_time=30, drift=0.01))
        assert any(s.motion_messages > 0 for s in r.steps)
        assert all(
            s.motion_bytes % 32 == 0 for s in r.steps
        )  # particle payloads

    def test_deterministic_given_seed(self):
        r1 = execute_pic(machine(), small_config())
        r2 = execute_pic(machine(), small_config())
        assert [s.imbalance for s in r1.steps] == [
            s.imbalance for s in r2.steps
        ]

    def test_time_monotone(self):
        r = execute_pic(machine(), small_config())
        times = [s.time for s in r.steps]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_redistribution_bytes_recorded(self):
        cfg = small_config(strategy="bblock", max_time=40, drift=0.01)
        r = execute_pic(machine(), cfg)
        if r.redistributions:
            assert r.redistribution_bytes_total > 0
