"""Tests for the halo shift (§3.2): :func:`post_shift` accounts one
boundary shift, :meth:`OverlapManager.place_halos` places its slabs."""

import numpy as np
import pytest

from repro.core.distribution import dist_type
from repro.machine import IPSC860, Machine, ProcessorArray
from repro.runtime.communication import post_shift
from repro.runtime.engine import Engine
from repro.runtime.overlap import OverlapManager


def make_1d(n=16, procs=4, dist=None):
    machine = Machine(ProcessorArray("R", (procs,)), cost_model=IPSC860)
    engine = Engine(machine)
    arr = engine.declare("A", (n,), dist=dist or dist_type("BLOCK"))
    arr.from_global(np.arange(n, dtype=float))
    return machine, arr


def make_cols(n=8, procs=4):
    machine = Machine(ProcessorArray("R", (procs,)), cost_model=IPSC860)
    engine = Engine(machine)
    arr = engine.declare("A", (n, n), dist=dist_type(":", "BLOCK"))
    arr.from_global(np.arange(n * n, dtype=float).reshape(n, n))
    return machine, arr


class TestShiftExchange:
    def test_1d_neighbors_get_boundary_values(self):
        machine, arr = make_1d()
        ov = OverlapManager(arr, (1,), boundary=-1.0)
        ov.load_interior()
        ov.exchange()
        # proc 1 owns [4..7]; its 'lo' ghost is element 3, 'hi' is 8
        assert list(ov.padded(1)) == [3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        # edge processors have one-sided halos
        assert ov.padded(0)[0] == -1.0
        assert ov.padded(3)[-1] == -1.0

    def test_message_count_interior_two_per_proc(self):
        machine, arr = make_1d()
        before = machine.stats().messages
        post_shift(arr, dim=0)
        # 3 boundaries x 2 directions
        assert machine.stats().messages - before == 6

    def test_column_distribution_message_size_is_full_column(self):
        """The §4 claim: column distribution sends messages of size N."""
        machine, arr = make_cols(n=8)
        before = machine.stats().bytes
        post_shift(arr, dim=1)
        nbytes = machine.stats().bytes - before
        assert nbytes == 6 * 8 * 8  # 6 messages x N elements x 8 bytes

    def test_width_two(self):
        machine, arr = make_1d()
        ov = OverlapManager(arr, (2,))
        ov.place_halos(0, post_shift(arr, dim=0, width=2))
        assert list(ov.padded(1)[:2]) == [2.0, 3.0]
        assert list(ov.padded(1)[-2:]) == [8.0, 9.0]

    def test_width_validation(self):
        _, arr = make_1d()
        with pytest.raises(ValueError):
            post_shift(arr, dim=0, width=0)

    def test_noncontiguous_rejected(self):
        from repro.core.dimdist import Cyclic

        machine, arr = make_1d(dist=dist_type(Cyclic(1)))
        with pytest.raises(ValueError, match="contiguously"):
            post_shift(arr, dim=0)

    def test_2d_block_exchanges_both_dims(self):
        machine = Machine(ProcessorArray("R", (2, 2)), cost_model=IPSC860)
        engine = Engine(machine)
        arr = engine.declare("A", (8, 8), dist=dist_type("BLOCK", "BLOCK"))
        arr.from_global(np.arange(64, dtype=float).reshape(8, 8))
        # every processor has exactly one neighbour per dimension
        for dim in (0, 1):
            receivers = [dst for _, dst, *_ in post_shift(arr, dim=dim)]
            assert sorted(receivers) == [0, 1, 2, 3]
