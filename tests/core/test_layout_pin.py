"""Layout conformance: every answer a distribution gives, pinned.

A :class:`~repro.core.distribution.Distribution` is asked the same
handful of questions by every layer — who owns an index, which indices
a processor owns, how big its segment is and where it sits, which rank
a tuple of processor slots is — and ``fixtures/layout_pin.json`` holds
the answers of the tree that still worked them out per call (run this
file as a script to re-record, on the tree to pin): every intrinsic x
an extent smaller than and one not divisible by the slot count x every
kind of target (full 1-D / 2-D / 3-D arrays, strided and collapsed
sections, the 0-dimensional section, permuted ``dim_map``s) x **every
parent rank**, the ones outside the section included.  A cell is a
dict of short digests, one per question, so a drift names the cell and
the question in the assertion diff.  One answer was wrong on that tree
and is pinned as corrected since: ``shift_plan`` walked ``range(section
size)`` and so lost the halo entries of a section's higher ranks (see
``tests/backend/test_plan.py`` for the entry counts).

Pairs are pinned too: for every ordered pair of cells over one index
domain and one processor array (1 206 of them), what a redistribution
between them moves — the transfer matrix with its moved / kept counts,
and per (src, dst) the global index set, in move order.  Those digests
were recorded from the flattened rank-map planner (``transfer_matrix``
as a ``bincount`` over all elements, ``transfer_plan`` /
``segment_moves``) on the parent of the PR that replaced it; they are
replayed against the selectors of
:class:`~repro.backend.plan.RedistributionPlan`, read on the old
segment and on the new one.

The last part is the ownership guard: no module but
``core/distribution.py`` reads a ``_``-prefixed attribute of a
distribution.
"""

import ast
import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend.plan import RedistributionPlan, shift_plan, sweep_plan
from repro.core.dimdist import (
    Block, Cyclic, GenBlock, Indirect, NoDist, Replicated, SBlock,
)
from repro.core.distribution import Distribution, DistributionType
from repro.machine.topology import ProcessorArray
from repro.runtime.translation import TranslationTable

PIN_PATH = Path(__file__).parent / "fixtures" / "layout_pin.json"

P = ProcessorArray("P", 5)
R = ProcessorArray("R", (4, 3))
Q = ProcessorArray("Q", (2, 3, 2))
EVERY = slice(None)

#: target -> (processor section, dim_map)
TARGETS = {
    "P(:)": (P.full_section(), None),
    "R(:,:)": (R.full_section(), None),
    "Q(:,:,:)": (Q.full_section(), None),
    "R(0:4:2,:)": (R.section(slice(0, 4, 2), EVERY), None),
    "R(1,:)": (R.section(1, EVERY), None),
    "R(1,2)": (R.section(1, 2), None),
    "R(:,:)/dim_map(1,0)": (R.full_section(), (1, 0)),
    "R(0:4:2,:)/dim_map(1,0)": (R.section(slice(0, 4, 2), EVERY), (1, 0)),
    "Q(:,:,:)/dim_map(2,0,1)": (Q.full_section(), (2, 0, 1)),
}


def _b_block(n, p):
    """Sizes with a zero-size block (slot 1) wherever there is room."""
    if p == 1:
        return GenBlock([n])
    sizes = [n // (p - 1) + (i < n % (p - 1)) for i in range(p - 1)]
    return GenBlock(sizes[:1] + [0] + sizes[1:])


#: intrinsic -> factory(extent, slots)
INTRINSICS = {
    "BLOCK": lambda n, p: Block(),
    "CYCLIC": lambda n, p: Cyclic(1),
    "CYCLIC(3)": lambda n, p: Cyclic(3),
    "B_BLOCK": _b_block,
    "S_BLOCK": lambda n, p: SBlock([i * n // p for i in range(p)]),
    "INDIRECT": lambda n, p: Indirect([(3 * i + 1) % p for i in range(n)]),
    "REPLICATED": lambda n, p: Replicated(),
    ":": lambda n, p: NoDist(),
}

#: extent of the dimension under test, from its slot count
EXTENTS = {"small": lambda p: max(1, p - 1), "odd": lambda p: 2 * p + 1}


def cells():
    for iname in INTRINSICS:
        for tname, (section, _dim_map) in TARGETS.items():
            if iname != ":" and section.ndim == 0:
                continue  # nothing to consume: only ':' fits a 0-dim section
            for ename in EXTENTS:
                yield f"{iname}/{ename}/{tname}"


def build(cell: str) -> Distribution:
    """The cell's distribution: the intrinsic under test leads, BLOCK
    fills the section's other dimensions, one ``:`` dimension trails."""
    iname, ename, tname = cell.split("/", 2)
    section, dim_map = TARGETS[tname]
    if iname == ":":
        n = EXTENTS[ename](section.size)
        dims, shape = [NoDist()] + [Block()] * section.ndim, [n] + [5] * section.ndim
    else:
        p = section.shape[dim_map[0] if dim_map else 0]
        n = EXTENTS[ename](p)
        fill = section.ndim - 1
        dims = [INTRINSICS[iname](n, p)] + [Block()] * fill + [NoDist()]
        shape = [n] + [5] * fill + [2]
    return DistributionType(dims).apply(shape, section, dim_map=dim_map)


def _digest(value) -> str:
    def plain(obj):  # arrays and numpy scalars as lists / numbers
        return obj.tolist() if hasattr(obj, "tolist") else repr(obj)

    blob = json.dumps(value, sort_keys=True, default=plain)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (IndexError, ValueError) as exc:
        return type(exc).__name__


def _round_trip(dist, rank):
    """``local_to_global`` of every local index, each checked to map
    back through ``global_to_local``."""
    out = []
    for lidx in np.ndindex(*dist.local_shape(rank)):
        gidx = dist.local_to_global(rank, lidx)
        assert dist.global_to_local(rank, gidx) == lidx
        out.append(gidx)
    return out


def measure(cell: str) -> dict[str, str]:
    dist = build(cell)
    section = dist.target
    every = list(np.ndindex(*dist.shape))
    answers = {
        "geometry": [
            dist.nprocs, dist.ranks(), dist.proc_shape, dist.is_replicated(),
            [dist.slots_along(d) for d in range(dist.ndim)],
        ],
        "owners": [dist.owners(i) for i in every],
        "owner": [dist.owner(i) for i in every],
        "rank_map": np.asarray(dist.rank_map()),
        "owner_rank_maps": [np.asarray(m) for m in dist.owner_rank_maps()],
        "section": [
            section.shape, section.ranks(), section.rank_array(),
            [section.dim_ranks(k) for k in range(section.ndim)],
        ],
        "translation": TranslationTable(dist).owner_ranks(
            np.array(every, dtype=np.int64)
        ),
        "shift_plan": [
            _outcome(shift_plan, dist, d, w)
            for d in range(dist.ndim) for w in (1, 2)
        ],
        "sweep_plan": [
            [plan.group_of_line, plan.head, plan.remote, plan.gather, plan.scatter]
            for plan in (
                sweep_plan(dist, d) for d in dist.dtype.distributed_dims
            )
        ],
    }
    answers["per_rank"] = [
        [
            dist.local_index_arrays(rank),
            dist.local_shape(rank), dist.local_size(rank), dist.segment(rank),
            _outcome(_round_trip, dist, rank),
            _outcome(dist.global_to_local, rank, every[0]),
            _outcome(dist.local_to_global, rank, (0,) * dist.ndim),
        ]
        for rank in section.parent.ranks()  # ranks outside the section too
    ]
    return {question: _digest(a) for question, a in answers.items()}


def pairs():
    """``(a, b)`` for every ordered pair of cells over one index domain
    and one processor array."""
    by_domain = defaultdict(list)
    for cell in cells():
        dist = build(cell)
        by_domain[dist.target.parent.name, dist.shape].append(cell)
    for group in by_domain.values():
        for a in group:
            for b in group:
                yield a, b


def _segment_gflat(dist, rank):
    """Global flat (C-order) indices of ``rank``'s segment, shaped like it."""
    return np.ravel_multi_index(np.ix_(*dist.local_index_arrays(rank)), dist.shape)


def measure_pair(a: str, b: str) -> str:
    """``"<transfer matrix digest> <index sets digest>"`` of the
    redistribution from cell ``a`` to cell ``b``."""
    old, new = build(a), build(b)
    plan = RedistributionPlan(old, new, old.target.parent.size)
    matrix = _digest([plan.matrix, plan.moved, plan.kept])
    # what the sender reads and where the receiver writes it
    index_sets = _digest([
        [s, d, _segment_gflat(old, s)[old_sel].ravel(),
         _segment_gflat(new, d)[new_sel].ravel()]
        for s, d, old_sel, new_sel in plan.moves
    ])
    return f"{matrix} {index_sets}"


PIN = (
    json.loads(PIN_PATH.read_text()) if PIN_PATH.exists()
    else {"cells": {}, "pairs": {}}
)


@pytest.mark.parametrize("cell", sorted(PIN["cells"]))
def test_cell_reproduces_the_pin(cell):
    assert measure(cell) == PIN["cells"][cell]


def test_pin_covers_every_cell():
    assert set(PIN["cells"]) == set(cells())
    sections = [build(c).target for c in PIN["cells"]]
    assert any(s.size < s.parent.size for s in sections)  # ranks excluded
    assert any(s.ndim == 0 for s in sections)


@pytest.mark.parametrize("a", sorted(PIN["pairs"]))
def test_pairs_reproduce_the_pin(a):
    """Every redistribution out of cell ``a`` (one test per source
    cell; a drift names the target cell and the digest)."""
    assert {b: measure_pair(a, b) for b in PIN["pairs"][a]} == PIN["pairs"][a]


def test_pin_covers_every_pair():
    pinned = {(a, b) for a, to in PIN["pairs"].items() for b in to}
    assert pinned == set(pairs())
    kinds = {(a.split("/")[0], b.split("/")[0]) for a, b in pinned}
    assert ("REPLICATED", "INDIRECT") in kinds and ("CYCLIC(3)", "B_BLOCK") in kinds


# -- one home: nobody else reads a distribution's private state -----------

def test_no_module_reads_a_distribution_private():
    private = {
        name for name in dir(build("BLOCK/odd/R(:,:)"))
        if name.startswith("_") and not name.startswith("__")
    }
    assert "_rank_array" in private
    root = Path(repro.__file__).parent
    hits = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "core" / "distribution.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in private
                # another class's own attribute of the same name
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                hits.append(f"{path.relative_to(root)}:{node.lineno} .{node.attr}")
    assert hits == []


def _measured_pairs() -> dict:
    nested = defaultdict(dict)
    for a, b in pairs():
        nested[a][b] = measure_pair(a, b)
    return nested


if __name__ == "__main__":  # re-record the pin (on the tree to pin)
    PIN_PATH.parent.mkdir(exist_ok=True)
    PIN_PATH.write_text(json.dumps({
        "recorded": (
            "on 7ad4385, the parent of PR 19 (per-call section arithmetic), "
            "by running this file as a script: measure(cell) = a digest per "
            "question asked of build(cell); PR 20 re-recorded only the "
            "shift_plan digest of the 35 cells whose section excludes ranks "
            "and whose plan changed when shift_plan began to walk "
            "owning_ranks instead of range(section size); 'pairs' on "
            "e0a8bde, the parent of PR 21 (the flattened rank-map planner): "
            "for every ordered pair of cells over one index domain and one "
            "processor array, 'transfer_matrix digest, index_sets digest' of "
            "transfer_matrix / moved / kept and of transfer_plan's "
            "per-(src, dst) global index sets, each checked against "
            "segment_moves' positions"
        ),
        "cells": {cell: measure(cell) for cell in cells()},
        "pairs": _measured_pairs(),
    }, indent=1, sort_keys=True) + "\n")
