"""Tests for owner-computes FORALL loops."""

import numpy as np
import pytest

from repro.core.distribution import dist_type
from repro.machine import IPSC860, Machine, ProcessorArray
from repro.runtime.engine import Engine
from repro.runtime.forall import forall


def make(n=12, dist=None):
    machine = Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
    engine = Engine(machine)
    a = engine.declare("A", (n,), dist=dist or dist_type("BLOCK"))
    b = engine.declare("B", (n,), dist=dist or dist_type("BLOCK"))
    b.from_global(np.arange(n, dtype=float))
    return machine, engine, a, b


class TestForall:
    def test_pure_function_of_index(self):
        machine, engine, a, b = make()
        forall(a, lambda i, read: float(i[0] ** 2))
        assert np.array_equal(a.to_global(), np.arange(12.0) ** 2)

    def test_aligned_reads_are_free(self):
        machine, engine, a, b = make()
        counts = forall(a, lambda i, read: read("B", i) * 2, reads={"B": b})
        assert np.array_equal(a.to_global(), np.arange(12.0) * 2)
        assert all(c == 0 for c in counts.values())
        assert machine.stats().messages == 0

    def test_shifted_reads_cost_messages(self):
        machine, engine, a, b = make()

        def body(i, read):
            j = min(i[0] + 1, 11)
            return read("B", (j,))

        counts = forall(a, body, reads={"B": b})
        # each block boundary causes one remote read (3 boundaries)
        assert sum(counts.values()) == 3
        assert machine.stats().messages == 3

    def test_in_place_body_sees_old_values(self):
        """lhs(i) = lhs(i_prev) uses pre-loop values (forall semantics)."""
        machine, engine, a, b = make()
        a.from_global(np.arange(12.0))

        def body(i, read):
            j = (i[0] + 1) % 12
            return read("A", (j,))

        forall(a, body)
        assert np.array_equal(a.to_global(), np.roll(np.arange(12.0), -1))

    def test_2d(self):
        machine = Machine(ProcessorArray("R", (2, 2)))
        engine = Engine(machine)
        a = engine.declare("A", (4, 4), dist=dist_type("BLOCK", "BLOCK"))
        forall(a, lambda i, read: float(i[0] * 10 + i[1]))
        expect = np.add.outer(np.arange(4) * 10, np.arange(4)).astype(float)
        assert np.array_equal(a.to_global(), expect)

    def test_compute_time_charged(self):
        machine, engine, a, b = make()
        forall(a, lambda i, read: 0.0, flops_per_element=100.0)
        assert machine.time > 0

    def test_local_accessor_raises_on_remote(self):
        machine, engine, a, b = make()

        def body(i, read):
            return read.local("B", ((i[0] + 6) % 12,))

        with pytest.raises(RuntimeError, match="non-local"):
            forall(a, body, reads={"B": b})
