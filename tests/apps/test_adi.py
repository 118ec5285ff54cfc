"""Tests for the ADI workload (Figure 1) — the E2 reproduction core."""

import numpy as np
import pytest

from repro.apps.adi import adi_reference, execute_adi
from repro.machine import Machine, PARAGON, ProcessorArray


def machine(procs=4):
    return Machine(ProcessorArray("R", (procs,)), cost_model=PARAGON)


class TestCorrectness:
    @pytest.mark.parametrize(
        "strategy", ["dynamic", "static_cols", "static_rows", "two_arrays"]
    )
    def test_matches_sequential_reference(self, strategy):
        grid = np.random.default_rng(0).standard_normal((16, 16))
        ref = adi_reference(grid, 2, -1.0, 4.0)
        r = execute_adi(machine(), 16, 16, 2, strategy, grid=grid.copy())
        assert np.allclose(r.solution, ref)

    def test_rectangular_grid(self):
        grid = np.random.default_rng(1).standard_normal((12, 20))
        ref = adi_reference(grid, 1, -1.0, 4.0)
        r = execute_adi(machine(), 12, 20, 1, "dynamic", grid=grid.copy())
        assert np.allclose(r.solution, ref)

    def test_strategies_agree_with_each_other(self):
        results = [
            execute_adi(machine(), 16, 16, 3, s, seed=7).solution
            for s in ("dynamic", "static_cols", "static_rows", "two_arrays")
        ]
        for r in results[1:]:
            assert np.allclose(results[0], r)


class TestFigure1Claims:
    def test_dynamic_sweeps_are_communication_free(self):
        """'all the communication is confined to the redistribution'."""
        r = execute_adi(machine(), 32, 32, 2, "dynamic", seed=0)
        assert r.x_sweep.messages == 0
        assert r.y_sweep.messages == 0
        assert r.redistribution.messages > 0

    def test_static_pays_in_one_sweep_direction(self):
        r = execute_adi(machine(), 32, 32, 1, "static_cols", seed=0)
        assert r.x_sweep.messages == 0     # columns are local
        assert r.y_sweep.messages > 0      # rows cross processors
        assert r.redistribution.messages == 0

    def test_static_rows_is_the_mirror_image(self):
        rc = execute_adi(machine(), 32, 32, 1, "static_cols", seed=0)
        rr = execute_adi(machine(), 32, 32, 1, "static_rows", seed=0)
        assert rr.x_sweep.messages == rc.y_sweep.messages
        assert rr.y_sweep.messages == rc.x_sweep.messages

    def test_dynamic_beats_static_in_modeled_time(self):
        """The whole point: redistribution wins despite its cost."""
        rd = execute_adi(machine(), 64, 64, 2, "dynamic", seed=0)
        rs = execute_adi(machine(), 64, 64, 2, "static_cols", seed=0)
        assert rd.total_time < rs.total_time

    def test_dynamic_moves_fewer_bytes_than_static_sweeps(self):
        rd = execute_adi(machine(), 64, 64, 2, "dynamic", seed=0)
        rs = execute_adi(machine(), 64, 64, 2, "static_cols", seed=0)
        dyn_bytes = rd.redistribution.bytes
        static_bytes = rs.y_sweep.bytes
        assert dyn_bytes < static_bytes

    def test_two_arrays_wastes_storage(self):
        """'this approach, clearly, wastes storage space'."""
        r1 = execute_adi(machine(), 32, 32, 1, "dynamic", seed=0)
        r2 = execute_adi(machine(), 32, 32, 1, "two_arrays", seed=0)
        assert r2.peak_memory >= 2 * r1.peak_memory

    def test_two_arrays_same_traffic_shape_as_dynamic(self):
        r1 = execute_adi(machine(), 32, 32, 1, "dynamic", seed=0)
        r2 = execute_adi(machine(), 32, 32, 1, "two_arrays", seed=0)
        assert r2.sweep_messages == 0
        # two_arrays copies twice per iteration (there and back), the
        # dynamic first iteration redistributes once
        assert r2.redistribution.messages == 2 * r1.redistribution.messages


class TestResultRecord:
    def test_row_fields(self):
        r = execute_adi(machine(), 16, 16, 1, "dynamic", seed=0)
        row = r.row()
        assert row["strategy"] == "dynamic"
        assert row["procs"] == 4
        assert row["msgs_sweep"] == 0

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            execute_adi(machine(), 8, 8, 1, "magic")

    def test_grid_shape_validated(self):
        with pytest.raises(ValueError):
            execute_adi(machine(), 8, 8, 1, "dynamic", grid=np.zeros((4, 4)))
