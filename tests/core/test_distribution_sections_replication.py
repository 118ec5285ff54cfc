"""Cross-feature coverage: replication x sections x parameterized BLOCK."""

import numpy as np

from repro.backend.plan import oracle_matrix
from repro.core.dimdist import Block, Replicated
from repro.core.distribution import dist_type
from repro.machine import Machine, ProcessorArray
from repro.runtime.communication import shift_exchange
from repro.runtime.engine import Engine
from repro.runtime.redistribute import transfer_matrix


class TestReplicationOnSections:
    def test_replicated_onto_subsection(self):
        R = ProcessorArray("R", (4,))
        sec = R.section(slice(1, 3))  # ranks 1 and 2
        d = dist_type(Replicated()).apply((6,), sec)
        assert d.owners((0,)) == (1, 2)
        assert d.local_shape(1) == (6,)
        assert d.local_shape(0) == (0,)

    def test_owner_rank_maps_on_section(self):
        R = ProcessorArray("R", (4,))
        sec = R.section(slice(1, 3))
        d = dist_type(Replicated()).apply((6,), sec)
        maps = list(d.owner_rank_maps())
        assert len(maps) == 2
        owners_at_0 = {int(m[0]) for m in maps}
        assert owners_at_0 == {1, 2}

    def test_transfer_into_replicated_section(self):
        R = ProcessorArray("R", (4,))
        old = dist_type(Block()).apply((8,), R)
        new = dist_type(Replicated()).apply((8,), R.section(slice(0, 2)))
        T = transfer_matrix(old, new, 4)
        assert (T == oracle_matrix(old, new, 4)).all()
        # ranks 2, 3 ship their blocks to both replicas; ranks 0, 1
        # ship only to each other
        assert T[2].sum() == 4  # 2 elements x 2 replicas
        assert T[0, 1] == 2 and T[0, 0] == 0


class TestBlockMWithRuntime:
    def test_block_m_shift_exchange(self):
        machine = Machine(ProcessorArray("R", (4,)))
        engine = Engine(machine)
        arr = engine.declare("A", (10,), dist=dist_type(Block(3)))
        arr.from_global(np.arange(10.0))
        recv = shift_exchange(arr, 0)
        # rank 3 owns only [9]; its lower neighbour is rank 2 ([6..8])
        assert recv[3]["lo"][0] == 8.0
        assert recv[2]["hi"][0] == 9.0

    def test_block_m_redistribution(self):
        machine = Machine(ProcessorArray("R", (4,)))
        engine = Engine(machine)
        arr = engine.declare(
            "A", (10,), dist=dist_type(Block(3)), dynamic=True
        )
        arr.from_global(np.arange(10.0))
        engine.distribute("A", dist_type(Block()))
        assert np.array_equal(arr.to_global(), np.arange(10.0))
        # ceil(10/4) = 3: same layout, so nothing should have moved
        assert engine.reports[-1].elements_moved == 0
