"""Edge-case coverage across the runtime layer."""

import numpy as np
import pytest

from repro.core.dimdist import Block, Cyclic, GenBlock, Replicated
from repro.core.distribution import dist_type
from repro.core.dynamic import DynamicAttr
from repro.machine import Machine, MemoryError_, PARAGON, ProcessorArray
from repro.runtime.communication import post_shift
from repro.runtime.engine import Engine
from repro.runtime.redistribute import communicate


class TestReplicatedArrays:
    def make(self):
        machine = Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)
        engine = Engine(machine)
        arr = engine.declare(
            "A", (8,), dist=dist_type(Replicated()), dynamic=True
        )
        return machine, engine, arr

    def test_every_processor_holds_full_copy(self):
        _, _, arr = self.make()
        arr.from_global(np.arange(8.0))
        for rank in range(4):
            assert np.array_equal(arr.local(rank), np.arange(8.0))

    def test_redistribute_replicated_to_block(self):
        machine, engine, arr = self.make()
        arr.from_global(np.arange(8.0))
        rep = communicate(arr, dist_type(Block()).apply((8,), machine.processors))
        assert np.array_equal(arr.to_global(), np.arange(8.0))
        # primary copies already sit on their new owners for 1/4 of
        # the data; no fan-out is needed in this direction
        assert rep.elements_moved <= 8

    def test_redistribute_block_to_replicated_fans_out(self):
        machine = Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)
        engine = Engine(machine)
        arr = engine.declare("A", (8,), dist=dist_type(Block()), dynamic=True)
        arr.from_global(np.arange(8.0))
        rep = communicate(
            arr, dist_type(Replicated()).apply((8,), machine.processors)
        )
        assert rep.elements_moved == 8 * 3
        for rank in range(4):
            assert np.array_equal(arr.local(rank), np.arange(8.0))


class TestDegenerateSizes:
    def test_single_processor_machine(self):
        machine = Machine(ProcessorArray("R", (1,)))
        engine = Engine(machine)
        arr = engine.declare("A", (8, 8), dist=dist_type("BLOCK", ":"), dynamic=True)
        arr.from_global(np.eye(8))
        rep = engine.distribute("A", dist_type(Cyclic(3), ":"))[0]
        assert rep.messages == 0  # nowhere to send
        assert np.array_equal(arr.to_global(), np.eye(8))

    def test_single_element_array(self):
        machine = Machine(ProcessorArray("R", (4,)))
        engine = Engine(machine)
        arr = engine.declare("A", (1,), dist=dist_type("BLOCK"), dynamic=True)
        arr.set((0,), 5.0)
        engine.distribute("A", dist_type(Cyclic(1)))
        assert arr.get((0,)) == 5.0

    def test_more_processors_than_elements(self):
        machine = Machine(ProcessorArray("R", (8,)))
        engine = Engine(machine)
        arr = engine.declare("A", (3,), dist=dist_type("BLOCK"), dynamic=True)
        arr.from_global(np.array([1.0, 2.0, 3.0]))
        assert arr.owning_ranks() == [0, 1, 2]
        engine.distribute("A", dist_type(GenBlock([0, 0, 1, 1, 1, 0, 0, 0])))
        assert np.array_equal(arr.to_global(), [1.0, 2.0, 3.0])
        assert arr.owning_ranks() == [2, 3, 4]

    def test_shift_exchange_single_owner_no_messages(self):
        machine = Machine(ProcessorArray("R", (4,)))
        engine = Engine(machine)
        arr = engine.declare(
            "A", (3,), dist=dist_type(GenBlock([3, 0, 0, 0])), dynamic=True
        )
        assert post_shift(arr, 0) == []
        assert machine.stats().messages == 0


class TestMemoryCapacity:
    def test_engine_respects_capacity(self):
        machine = Machine(ProcessorArray("R", (2,)), memory_capacity=100)
        engine = Engine(machine)
        with pytest.raises(MemoryError_):
            engine.declare("BIG", (100, 100), dist=dist_type("BLOCK", ":"))

    def test_two_arrays_exceed_where_one_fits(self):
        # each local segment: 8 elements * 8 B = 64 B; capacity 100
        machine = Machine(ProcessorArray("R", (2,)), memory_capacity=100)
        engine = Engine(machine)
        engine.declare("A", (16,), dist=dist_type("BLOCK"))
        with pytest.raises(MemoryError_):
            engine.declare("B", (16,), dist=dist_type("BLOCK"))


class TestDynamicLifecycle:
    def test_initial_distribution_reallocated_fresh(self):
        """§2.3: 'An initial distribution is evaluated and associated
        with each Bi each time the array is allocated.'"""
        machine = Machine(ProcessorArray("R", (4,)))
        engine = Engine(machine)
        a = engine.declare(
            "A", (8,), dynamic=DynamicAttr(initial=dist_type("BLOCK"))
        )
        assert a.dist.dtype == dist_type("BLOCK")
        assert a.version == 1

    def test_distribute_then_access_pattern(self):
        machine = Machine(ProcessorArray("R", (4,)))
        engine = Engine(machine)
        b1 = engine.declare("B1", (8,), dynamic=True)
        from repro.core.descriptor import DistributionUndefinedError

        with pytest.raises(DistributionUndefinedError):
            b1.get((0,))
        engine.distribute("B1", dist_type("BLOCK"))
        b1.set((0,), 1.0)
        assert b1.get((0,)) == 1.0
