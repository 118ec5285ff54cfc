"""A distribution's tables against the definitions they are built from.

:class:`~repro.machine.topology.ProcessorSection` and
:class:`~repro.core.distribution.Distribution` answer per-rank
questions from tables computed once; ``ProcessorArray.rank_of`` /
``ProcessorSection.coord_in_parent`` and the per-dimension intrinsics
stay the public definition.  Over random sections (strides, collapsed
subscripts, all the way down to 0 dimensions) and ``dim_map``s, every
table answer equals the definition and the three views of ownership —
``owners``, ``local_index_arrays``, ``owner_rank_maps`` — agree.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.dimdist import (
    Block, Cyclic, GenBlock, Indirect, NoDist, Replicated,
)
from repro.core.distribution import DistributionType
from repro.machine.topology import ProcessorArray


@st.composite
def sections(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    subs = []
    for extent in shape:
        if draw(st.booleans()):
            subs.append(draw(st.integers(0, extent - 1)))  # collapsed
        else:
            start = draw(st.integers(0, extent - 1))
            subs.append(slice(start, draw(st.integers(start + 1, extent)),
                              draw(st.integers(1, 3))))
    return ProcessorArray("R", shape).section(*subs)


@st.composite
def intrinsics(draw, n, p):
    kind = draw(st.sampled_from(
        ["block", "cyclic", "genblock", "indirect", "replicated"]))
    if kind == "genblock":
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1)))
        return GenBlock([b - a for a, b in zip([0] + cuts, cuts + [n])])
    if kind == "indirect":
        return Indirect(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    return {"block": Block(), "cyclic": Cyclic(draw(st.integers(1, 3))),
            "replicated": Replicated()}[kind]


@st.composite
def distributions(draw):
    section = draw(sections())
    dim_map = draw(st.permutations(range(section.ndim)))
    shape, dims = [], []
    for k in dim_map:  # one distributed array dimension per section dimension
        shape.append(draw(st.integers(1, 7)))
        dims.append(draw(intrinsics(shape[-1], section.shape[k])))
    for _ in range(draw(st.integers(0 if dims else 1, 1))):  # and maybe a ':'
        at = draw(st.integers(0, len(dims)))
        shape.insert(at, draw(st.integers(1, 3)))
        dims.insert(at, NoDist())
    return DistributionType(dims).apply(shape, section, dim_map=dim_map)


@given(sections())
@settings(max_examples=150, deadline=None)
def test_section_tables_equal_the_definition(section):
    parent = section.parent
    by_definition = [
        parent.rank_of(section.coord_in_parent(c)) for c in section.coords()
    ]
    assert section.ranks() == by_definition
    assert section.size == len(by_definition)
    assert section.rank_array().ravel().tolist() == by_definition
    assert all(section.rank_of(c) == r
               for c, r in zip(section.coords(), by_definition))
    ranks = section.ranks()
    ranks.append(-1)  # a fresh list: the caller may mutate it
    assert section.ranks() == by_definition


@given(distributions())
@settings(max_examples=200, deadline=None)
def test_per_rank_tables_equal_the_definition(dist):
    section, dims = dist.target, dist.dtype.dims
    secdim_of = dict(zip(dist.dtype.distributed_dims, dist.dim_map))
    coord_of = dict(zip(section.ranks(), section.coords()))
    owning = []
    for rank in section.parent.ranks():
        arrays = dist.local_index_arrays(rank)
        if rank not in coord_of:  # outside the section
            assert dist.slots_of(rank) is None and arrays is None
            assert dist.local_shape(rank) == (0,) * dist.ndim
            assert dist.local_size(rank) == 0 and dist.segment(rank) is None
            continue
        slots = tuple(
            coord_of[rank][secdim_of[d]] if d in secdim_of else 0
            for d in range(dist.ndim)
        )
        assert dist.slots_of(rank) == slots
        assert int(dist.slot_ranks(slots)) == rank
        for d, dd in enumerate(dims):
            expect = dd.indices_of(slots[d], dist.shape[d], dist.slots_along(d))
            assert np.array_equal(arrays[d], expect)
        assert dist.local_shape(rank) == tuple(len(a) for a in arrays)
        assert dist.local_size(rank) == math.prod(len(a) for a in arrays)
        contiguous = all(
            len(a) == 0 or a[-1] + 1 - a[0] == len(a) for a in arrays
        )
        assert (dist.segment(rank) is not None) == contiguous
        if contiguous:
            assert dist.segment(rank) == tuple(
                (int(a[0]), int(a[-1]) + 1) if len(a) else (0, 0) for a in arrays
            )
        if dist.local_size(rank):
            owning.append(rank)
    assert dist.owning_ranks == tuple(owning)


@given(distributions())
@settings(max_examples=200, deadline=None)
def test_three_views_of_ownership_agree(dist):
    local = {
        rank: [set(a.tolist()) for a in dist.local_index_arrays(rank)]
        for rank in dist.ranks()
    }
    maps = [np.asarray(m) for m in dist.owner_rank_maps()]
    assert np.array_equal(maps[0], dist.rank_map())
    for index in itertools.product(*(range(n) for n in dist.shape)):
        owners = dist.owners(index)
        assert owners and len(set(owners)) == len(owners)
        assert set(owners) == {
            rank for rank, sets in local.items()
            if all(i in s for i, s in zip(index, sets))
        }
        assert set(owners) == {int(m[index]) for m in maps}
        assert owners[0] == int(maps[0][index])
