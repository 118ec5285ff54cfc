"""Property-based tests of redistribution invariants.

The central correctness property of the DISTRIBUTE implementation:
data is preserved bit-for-bit by any chain of redistributions, and the
per-dimension plan (:class:`~repro.backend.plan.RedistributionPlan`)
agrees with the flattened rank-map oracle
(:func:`~repro.backend.plan.transfer_plan`) — matrix, moved / kept
counts and, per (src, dst), the index sets its selectors address — over
every intrinsic x every kind of processor section x permuted
``dim_map``s x extents smaller than the slot count; executing it on
either backend leaves the bytes a ``to_global`` -> ``from_global``
reassembly leaves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.base import attached_backend
from repro.backend.plan import RedistributionPlan, oracle_matrix, transfer_plan
from repro.core.dimdist import (
    Block, Cyclic, GenBlock, Indirect, NoDist, Replicated, SBlock,
)
from repro.core.distribution import DistributionType, dist_type
from repro.machine import Machine, ProcessorArray
from repro.runtime.engine import Engine
from repro.runtime.redistribute import communicate, transfer_matrix

P = 4
R = ProcessorArray("R", (P,))


@st.composite
def dist_1d(draw, n):
    kind = draw(st.sampled_from(["block", "cyclic", "genblock"]))
    if kind == "block":
        return dist_type(Block(), ":")
    if kind == "cyclic":
        return dist_type(Cyclic(draw(st.integers(1, 5))), ":")
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=P - 1, max_size=P - 1)))
    bounds = [0] + cuts + [n]
    return dist_type(GenBlock([b - a for a, b in zip(bounds, bounds[1:])]), ":")


@given(st.data(), st.integers(4, 24))
@settings(max_examples=60, deadline=None)
def test_transfer_matrix_matches_naive(data, n):
    old = data.draw(dist_1d(n)).apply((n, 3), R)
    new = data.draw(dist_1d(n)).apply((n, 3), R)
    T_fast = transfer_matrix(old, new, P)
    T_slow = oracle_matrix(old, new, P)
    assert (T_fast == T_slow).all()


@given(st.data(), st.integers(4, 24))
@settings(max_examples=60, deadline=None)
def test_transfer_matrix_conservation(data, n):
    """Row sums = elements leaving a proc; they never exceed what the
    old distribution placed there, and total moved + kept = n*3."""
    old = data.draw(dist_1d(n)).apply((n, 3), R)
    new = data.draw(dist_1d(n)).apply((n, 3), R)
    T = transfer_matrix(old, new, P)
    for rank in range(P):
        assert T[rank].sum() <= old.local_size(rank)
    kept = int(
        (np.asarray(old.rank_map()) == np.asarray(new.rank_map())).sum()
    )
    assert T.sum() + kept == n * 3


@given(st.data(), st.integers(4, 20))
@settings(max_examples=40, deadline=None)
def test_redistribution_chain_preserves_data(data, n):
    machine = Machine(R)
    engine = Engine(machine)
    first = data.draw(dist_1d(n))
    arr = engine.declare("A", (n, 3), dist=first, dynamic=True)
    values = np.random.default_rng(n).standard_normal((n, 3))
    arr.from_global(values)
    for _ in range(3):
        t = data.draw(dist_1d(n))
        communicate(arr, t.apply((n, 3), R))
        assert np.array_equal(arr.to_global(), values)


@given(st.data(), st.integers(4, 20))
@settings(max_examples=40, deadline=None)
def test_identity_redistribution_always_free(data, n):
    t = data.draw(dist_1d(n))
    d = t.apply((n, 3), R)
    assert transfer_matrix(d, d, P).sum() == 0


@given(st.data(), st.integers(4, 20))
@settings(max_examples=40, deadline=None)
def test_report_accounting_consistent(data, n):
    machine = Machine(R)
    engine = Engine(machine)
    arr = engine.declare("A", (n, 3), dist=data.draw(dist_1d(n)), dynamic=True)
    arr.fill(1.0)
    rep = communicate(arr, data.draw(dist_1d(n)).apply((n, 3), R))
    assert rep.bytes == rep.elements_moved * arr.itemsize
    assert 0 <= rep.elements_kept <= arr.size
    assert rep.elements_moved + rep.elements_kept == arr.size


# -- every intrinsic x every kind of section: plan == oracle ----------------

GRID = ProcessorArray("G", (4, 3))
QUAD = ProcessorArray("Q", (2, 2))  # what the worker fleet below runs on
EVERY = slice(None)


def sections(array: ProcessorArray) -> list:
    """Full, strided, collapsed (either dimension) and 0-dimensional."""
    rows = array.shape[0]
    return [
        array.full_section(),
        array.section(slice(0, rows, 2), EVERY),
        array.section(rows - 1, EVERY),
        array.section(EVERY, 0),
        array.section(1, 1),
    ]


@st.composite
def intrinsic(draw, n, p):
    """Any distributing intrinsic of ``n`` indices over ``p`` slots
    (``n < p`` included: trailing slots own nothing)."""
    kind = draw(st.sampled_from([
        "BLOCK", "BLOCK(m)", "CYCLIC(k)", "B_BLOCK", "S_BLOCK", "INDIRECT",
        "REPLICATED",
    ]))
    if kind == "BLOCK":
        return Block()
    if kind == "BLOCK(m)":
        return Block(draw(st.integers(-(-n // p), n + 1)))
    if kind == "CYCLIC(k)":
        return Cyclic(draw(st.integers(1, 4)))
    if kind == "INDIRECT":
        return Indirect(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    if kind == "REPLICATED":
        return Replicated()
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1)))
    bounds = [0, *cuts, n]
    if kind == "S_BLOCK":
        return SBlock(bounds[:-1])
    return GenBlock([hi - lo for lo, hi in zip(bounds, bounds[1:])])


@st.composite
def layout(draw, array, shape):
    """A distribution of a ``shape`` array onto some section of
    ``array``: which dimensions are distributed, how, and onto which
    section dimension (``dim_map``) all vary; the rest are ``:``."""
    section = draw(st.sampled_from(
        [sec for sec in sections(array) if sec.ndim <= len(shape)]))
    distributed = sorted(draw(st.permutations(range(len(shape))))[:section.ndim])
    dim_map = draw(st.permutations(range(section.ndim)))
    dims = [NoDist()] * len(shape)
    for d, k in zip(distributed, dim_map):
        dims[d] = draw(intrinsic(shape[d], section.shape[k]))
    return DistributionType(dims).apply(shape, section, dim_map=dim_map)


SHAPES = st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple)


def _segment_gflat(dist, rank):
    """Global flat (C-order) indices of ``rank``'s segment, shaped like it."""
    return np.ravel_multi_index(np.ix_(*dist.local_index_arrays(rank)), dist.shape)


@given(st.data(), SHAPES)
@settings(max_examples=150, deadline=None)
def test_plan_matches_the_rank_map_oracle(data, shape):
    old, new = data.draw(layout(GRID, shape)), data.draw(layout(GRID, shape))
    plan = RedistributionPlan(old, new, GRID.size)
    oracle = transfer_plan(old, new, GRID.size)
    assert [move[:2] for move in plan.moves] == [entry[:2] for entry in oracle]
    for (s, d, old_sel, new_sel), (_, _, gidx) in zip(plan.moves, oracle):
        assert np.array_equal(_segment_gflat(old, s)[old_sel].ravel(), gidx)
        assert np.array_equal(_segment_gflat(new, d)[new_sel].ravel(), gidx)
        # a slice is never mixed with an index array in one subscript
        assert len({type(sel) for sel in old_sel}) == 1
        assert len({type(sel) for sel in new_sel}) == 1
    matrix = oracle_matrix(old, new, GRID.size)
    assert plan.matrix.dtype == matrix.dtype
    assert np.array_equal(plan.matrix, matrix)
    # the per-element counts COMMUNICATE used to take
    assert plan.moved == matrix.sum()
    assert plan.kept == (
        np.asarray(old.rank_map()) == np.asarray(new.rank_map())
    ).sum()


def reassemble(array, new_dist) -> None:
    """The reference ``move``: gather the whole array, re-describe and
    reallocate, scatter (what the serial backend did before it copied
    the plan's rectangles segment to segment)."""
    values = array.to_global()
    array.bind(new_dist, fill=None)
    array.from_global(values)


@pytest.fixture(scope="module")
def fleets():
    """One worker fleet for every example of the module."""
    started: dict = {}
    yield started
    for fleet in started.values():
        fleet.stop()


@given(st.data(), SHAPES)
@settings(max_examples=40, deadline=None)
def test_move_leaves_the_bytes_of_a_global_reassembly(fleets, data, shape):
    old, new = data.draw(layout(QUAD, shape)), data.draw(layout(QUAD, shape))
    values = np.random.default_rng(len(shape)).standard_normal(shape)

    def run(backend, mover):
        machine = Machine(QUAD)
        with attached_backend(machine, backend, fleets=fleets):
            assert machine.backend.name == backend
            arr = Engine(machine).declare("A", shape, dist=old, dynamic=True)
            arr.from_global(values)
            mover(arr, new)
            return arr.to_global().tobytes(), [
                arr.local(rank).tobytes() for rank in range(QUAD.size)
            ]

    want = run("serial", reassemble)
    assert want[0] == values.tobytes()
    for backend in ("serial", "multiprocess"):
        assert run(backend, communicate) == want, backend
