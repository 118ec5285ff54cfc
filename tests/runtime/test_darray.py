"""Tests for distributed arrays (global addressing over segments)."""

import numpy as np
import pytest

from repro.core.dimdist import Cyclic, Replicated
from repro.core.distribution import dist_type
from repro.machine import Machine, ProcessorArray
from repro.runtime.engine import Engine


def make(dist=None, shape=(8, 8), procs=(4,), dynamic=False, **kw):
    machine = Machine(ProcessorArray("R", procs))
    engine = Engine(machine)
    dist = dist or dist_type("BLOCK", ":")
    arr = engine.declare("A", shape, dist=dist, dynamic=dynamic, **kw)
    return machine, engine, arr


class TestSegments:
    def test_local_shapes(self):
        _, _, a = make()
        for rank in range(4):
            assert a.local(rank).shape == (2, 8)

    def test_segments_allocated_in_local_memory(self):
        m, _, a = make()
        for rank in range(4):
            assert "array:A" in m.memory(rank)

    def test_empty_owner_zero_size(self):
        # 2 elements over 4 processors: trailing blocks empty
        m, _, a = make(dist=dist_type("BLOCK"), shape=(2,))
        assert a.local(0).size == 1
        assert a.local(3).size == 0

    def test_owning_ranks(self):
        _, _, a = make(dist=dist_type("BLOCK"), shape=(2,))
        assert a.owning_ranks() == [0, 1]

    @pytest.mark.parametrize("shape, expected", [
        ((4, 5), [0, 1, 2, 6, 7, 8]),  # every processor of R(0:4:2, :)
        ((1, 2), [0, 1]),              # extents < slots: empty owners
        ((2, 1), [0, 6]),
    ])
    def test_owning_ranks_of_a_section_that_excludes_ranks(self, shape, expected):
        procs = ProcessorArray("R", (4, 3))
        engine = Engine(Machine(procs))
        a = engine.declare(
            "A", shape, dist=dist_type("BLOCK", "BLOCK"),
            to=procs.section(slice(0, 4, 2), slice(None)),
        )
        assert a.owning_ranks() == expected == [  # ascending, by the definition
            r for r in range(procs.size)
            if a.dist.local_size(r) > 0 and a.dist.local_index_arrays(r) is not None
        ]
        a.owning_ranks().clear()  # a fresh list each call
        assert a.owning_ranks() == expected
        assert [r for r in range(procs.size) if a.local(r).size] == expected


class TestGlobalRoundtrip:
    @pytest.mark.parametrize(
        "dist,shape",
        [
            (dist_type("BLOCK", ":"), (8, 8)),
            (dist_type(":", "BLOCK"), (8, 8)),
            (dist_type(Cyclic(1), ":"), (8, 8)),
            (dist_type(Cyclic(3), ":"), (10, 4)),
            (dist_type("BLOCK"), (17,)),
        ],
    )
    def test_from_to_global(self, dist, shape):
        _, _, a = make(dist=dist, shape=shape)
        g = np.arange(np.prod(shape), dtype=float).reshape(shape)
        a.from_global(g)
        assert np.array_equal(a.to_global(), g)

    def test_from_global_shape_check(self):
        _, _, a = make()
        with pytest.raises(ValueError):
            a.from_global(np.zeros((4, 4)))

    def test_2d_grid(self):
        machine = Machine(ProcessorArray("R", (2, 2)))
        engine = Engine(machine)
        a = engine.declare("A", (6, 6), dist=dist_type("BLOCK", "BLOCK"))
        g = np.random.default_rng(0).standard_normal((6, 6))
        a.from_global(g)
        assert np.array_equal(a.to_global(), g)


class TestElementAccess:
    def test_get_set(self):
        _, _, a = make()
        a.set((3, 5), 42.0)
        assert a.get((3, 5)) == 42.0

    def test_set_writes_owner_segment(self):
        _, _, a = make()
        a.set((3, 5), 7.0)
        rank = a.dist.owner((3, 5))
        lidx = a.dist.global_to_local(rank, (3, 5))
        assert a.local(rank)[lidx] == 7.0

    def test_replicated_set_updates_all_copies(self):
        _, _, a = make(dist=dist_type(Replicated(), ":"), shape=(4, 4))
        a.set((1, 1), 5.0)
        for rank in range(4):
            assert a.local(rank)[1, 1] == 5.0

    def test_bounds_checked(self):
        _, _, a = make()
        with pytest.raises(IndexError):
            a.get((8, 0))


class TestSPMDAccess:
    def test_local_read_free(self):
        m, _, a = make()
        a.set((0, 0), 1.0)
        owner = a.dist.owner((0, 0))
        v = a.read_remote(owner, (0, 0))
        assert v == 1.0
        assert m.stats().messages == 0

    def test_remote_read_costs_one_element_message(self):
        m, _, a = make()
        a.set((0, 0), 2.0)
        owner = a.dist.owner((0, 0))
        reader = (owner + 1) % 4
        v = a.read_remote(reader, (0, 0))
        assert v == 2.0
        s = m.stats()
        assert s.messages == 1
        assert s.bytes == a.itemsize

    def test_replicated_read_prefers_local_copy(self):
        m, _, a = make(dist=dist_type(Replicated(), ":"), shape=(4, 4))
        a.set((2, 2), 3.0)
        assert a.read_remote(3, (2, 2)) == 3.0
        assert m.stats().messages == 0


class TestMisc:
    def test_fill(self):
        _, _, a = make()
        a.fill(3.5)
        assert (a.to_global() == 3.5).all()

    def test_version_tracks_descriptor(self):
        _, engine, a = make(dynamic=True)
        v0 = a.version
        engine.distribute("A", dist_type(":", "BLOCK"))
        assert a.version == v0 + 1

    def test_dtype_plumbed(self):
        _, _, a = make(dtype=np.int64)
        assert a.np_dtype == np.int64
        assert a.itemsize == 8

    def test_repr(self):
        _, _, a = make()
        assert "A" in repr(a) and "BLOCK" in repr(a)
