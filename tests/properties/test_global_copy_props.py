"""The global reassembly copies rectangles.

:meth:`~repro.runtime.darray.DistributedArray.to_global` /
:meth:`~repro.runtime.darray.DistributedArray.from_global` subscript
each segment's place in the global array with the selector helper the
DISTRIBUTE plan uses: a dimension whose local index set is an
arithmetic progression is a slice, and the subscript is basic slicing
when every dimension is one — an ``np.ix_`` mesh of the index arrays
otherwise.  The property holds both copies bitwise to the open-mesh
oracle ``arr[np.ix_(*local_indices(r))]`` over every intrinsic x every
kind of processor section x permuted ``dim_map``s; the pin names which
layouts take which path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dimdist import (
    Block, Cyclic, GenBlock, Indirect, Replicated, SBlock,
)
from repro.core.distribution import dist_type
from repro.machine import Machine, ProcessorArray
from repro.runtime.engine import Engine

from test_redistribute_props import GRID, SHAPES, layout


def _declare(dist):
    machine = Machine(dist.target.parent)
    return Engine(machine).declare("A", dist.shape, dist=dist, dynamic=True)


@given(st.data(), SHAPES)
@settings(max_examples=150, deadline=None)
def test_global_copies_equal_the_open_mesh_oracle(data, shape):
    dist = data.draw(layout(GRID, shape))
    arr = _declare(dist)
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    arr.from_global(values)
    assert arr.to_global().tobytes() == values.tobytes()
    rng = np.random.default_rng(7)
    want = np.empty(shape)
    for rank in dist.owning_ranks:
        mesh = np.ix_(*arr.local_indices(rank))
        assert arr.local(rank).tobytes() == values[mesh].tobytes()
        # replicas made unequal: the last owner's copy must land, as
        # it lands in the oracle
        arr.local(rank)[...] = rng.standard_normal(arr.local(rank).shape)
        want[mesh] = arr.local(rank)
    assert arr.to_global().tobytes() == want.tobytes()


R = ProcessorArray("R", (4,))
CUBE = ProcessorArray("C", (2, 2, 2))

RECTANGLES = [
    (dist_type(Block()), (37,), R),
    (dist_type(Cyclic(1)), (37,), R),
    (dist_type(GenBlock([10, 0, 20, 7])), (37,), R),
    (dist_type(SBlock([0, 5, 5, 30])), (37,), R),
    (dist_type(Replicated()), (37,), R),
    (dist_type(":", "BLOCK"), (37, 23), R),
    (dist_type("CYCLIC", ":"), (37, 23), R),
    (dist_type("BLOCK", "CYCLIC"), (37, 23), GRID),
    (dist_type(GenBlock([9, 9, 9, 10]), Block()), (37, 23), GRID),
    (dist_type(Block(), ":", Cyclic(1)), (9, 8, 7), GRID),
    (dist_type(Block(), Cyclic(1), GenBlock([3, 4])), (9, 8, 7), CUBE),
]


@pytest.mark.parametrize("ty, shape, procs", RECTANGLES,
                         ids=[f"{ty}-{procs.name}" for ty, _, procs in RECTANGLES])
def test_progression_layouts_copy_with_slices(ty, shape, procs):
    arr = _declare(ty.apply(shape, procs))
    for rank in arr.dist.owning_ranks:
        assert all(type(sel) is slice for sel in arr._indices(rank)[1]), rank


@pytest.mark.parametrize("dim", [
    Cyclic(3), Indirect([0, 1, 1, 0, 2, 3, 3, 2] * 4 + [0, 1, 2, 3, 0])])
def test_other_index_sets_fall_back_to_the_mesh(dim):
    arr = _declare(dist_type(dim, ":").apply((37, 23), R))
    for rank in arr.dist.owning_ranks:
        sub = arr._indices(rank)[1]
        assert all(type(sel) is np.ndarray for sel in sub), rank
        for sel, want in zip(sub, np.ix_(*arr.local_indices(rank))):
            assert np.array_equal(sel, want)
