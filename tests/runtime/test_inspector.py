"""Tests for the PARTI-style inspector/executor (§3.2, §4)."""

import numpy as np
import pytest

from repro.core.distribution import dist_type
from repro.machine import IPSC860, Machine, ProcessorArray
from repro.runtime.engine import Engine


def make(n=16, procs=4):
    machine = Machine(ProcessorArray("R", (procs,)), cost_model=IPSC860)
    engine = Engine(machine)
    arr = engine.declare("X", (n,), dist=dist_type("BLOCK"), dynamic=True)
    arr.from_global(np.arange(n, dtype=float) * 10)
    return machine, engine, arr


class TestInspect:
    def test_owner_resolution(self):
        _, engine, arr = make()
        insp = engine.inspector("X")
        sched = insp.inspect({0: np.array([0, 5, 12])})
        assert list(sched.owner_of[0]) == [0, 1, 3]

    def test_nonlocal_counts(self):
        _, engine, arr = make()
        insp = engine.inspector("X")
        sched = insp.inspect({0: np.array([0, 1, 5, 12])})
        assert sched.nonlocal_counts() == {0: 2}

    def test_message_pairs_aggregate(self):
        _, engine, arr = make()
        insp = engine.inspector("X")
        sched = insp.inspect({0: np.array([5, 6, 12]), 1: np.array([0])})
        pairs = sched.message_pairs()
        assert pairs[(1, 0)] == 2  # elements 5, 6 from owner 1 to reader 0
        assert pairs[(3, 0)] == 1
        assert pairs[(0, 1)] == 1

    def test_shape_validation(self):
        _, engine, arr = make()
        insp = engine.inspector("X")
        with pytest.raises(ValueError):
            insp.inspect({0: np.zeros((2, 2), dtype=int)})


class TestGather:
    def test_values_correct(self):
        _, engine, arr = make()
        insp = engine.inspector("X")
        idx = np.array([3, 7, 11, 15])
        sched = insp.inspect({2: idx})
        vals = insp.gather(sched)
        assert np.array_equal(vals[2], idx * 10.0)

    def test_messages_aggregated(self):
        machine, engine, arr = make()
        insp = engine.inspector("X")
        # rank 0 reads two elements from rank 1 and one from rank 2
        sched = insp.inspect({0: np.array([4, 5, 8])})
        before = machine.stats()
        insp.gather(sched)
        diff = machine.stats() - before
        assert diff.messages == 2  # one per owning processor
        assert diff.bytes == 3 * 8

    def test_local_requests_free(self):
        machine, engine, arr = make()
        insp = engine.inspector("X")
        sched = insp.inspect({1: np.array([4, 5, 6, 7])})
        before = machine.stats().messages
        insp.gather(sched)
        assert machine.stats().messages == before

    def test_schedule_reuse(self):
        """Executor runs many times on one inspector pass."""
        machine, engine, arr = make()
        insp = engine.inspector("X")
        sched = insp.inspect({0: np.array([12])})
        v1 = insp.gather(sched)
        arr.set((12,), -1.0)
        v2 = insp.gather(sched)
        assert v1[0][0] == 120.0
        assert v2[0][0] == -1.0

    def test_stale_schedule_rejected_after_redistribute(self):
        """Redistribution invalidates schedules (the §1 bookkeeping cost)."""
        _, engine, arr = make()
        insp = engine.inspector("X")
        sched = insp.inspect({0: np.array([12])})
        engine.distribute("X", dist_type("CYCLIC"))
        with pytest.raises(RuntimeError, match="stale"):
            insp.gather(sched)

    def test_reinspect_after_redistribute(self):
        _, engine, arr = make()
        insp = engine.inspector("X")
        engine.distribute("X", dist_type("CYCLIC"))
        sched = insp.inspect({0: np.array([12])})
        vals = insp.gather(sched)
        assert vals[0][0] == 120.0

