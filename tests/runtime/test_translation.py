"""Tests for translation tables (paper §3.2.1)."""

import numpy as np
import pytest

from repro.core.dimdist import Block, Cyclic, GenBlock, Indirect
from repro.core.distribution import dist_type
from repro.machine.topology import ProcessorArray
from repro.runtime.translation import DimTranslationTable, TranslationTable

P4 = ProcessorArray("R", (4,))


class TestDimTranslationTable:
    @pytest.mark.parametrize(
        "dd,n,p",
        [
            (Block(), 10, 4),
            (Cyclic(3), 17, 4),
            (GenBlock([3, 0, 5, 2]), 10, 4),
            (Indirect([0, 2, 1, 1, 0, 2, 3, 3]), 8, 4),
        ],
    )
    def test_table_agrees_with_dimdist(self, dd, n, p):
        t = DimTranslationTable(dd, n, p)
        idx = np.arange(n)
        owners, offsets = t.lookup(idx)
        for i in range(n):
            assert owners[i] == dd.owner_of(i, n, p)
            assert offsets[i] == dd.global_to_local(int(owners[i]), i, n, p)

    def test_lookup_out_of_range(self):
        t = DimTranslationTable(Block(), 8, 4)
        with pytest.raises(IndexError):
            t.lookup(np.array([8]))

    def test_tables_immutable(self):
        t = DimTranslationTable(Block(), 8, 4)
        with pytest.raises(ValueError):
            t.owner[0] = 3

    def test_nbytes(self):
        t = DimTranslationTable(Block(), 100, 4)
        assert t.nbytes == 100 * 8 * 2


class TestTranslationTable:
    def test_full_lookup_matches_distribution(self):
        d = dist_type("BLOCK", Cyclic(2)).apply((8, 8), ProcessorArray("R", (2, 2)))
        t = TranslationTable(d)
        rng = np.random.default_rng(3)
        queries = rng.integers(0, 8, size=(50, 2))
        ranks = t.owner_ranks(queries)
        for q, r in zip(queries, ranks):
            assert r == d.owner(tuple(q))

    def test_offsets_match_loc_map(self):
        d = dist_type("BLOCK", ":").apply((8, 4), P4)
        t = TranslationTable(d)
        queries = np.array([[0, 0], [3, 2], [7, 3]])
        owners, offsets = t.lookup(queries)
        for q in range(len(queries)):
            gidx = tuple(queries[q])
            rank = d.owner(gidx)
            assert tuple(offsets[q]) == d.global_to_local(rank, gidx)

    def test_wrong_arity_rejected(self):
        d = dist_type("BLOCK", ":").apply((8, 4), P4)
        t = TranslationTable(d)
        with pytest.raises(ValueError):
            t.lookup(np.zeros((3, 3), dtype=int))

    def test_1d_queries(self):
        d = dist_type(Cyclic(1)).apply((8,), P4)
        t = TranslationTable(d)
        ranks = t.owner_ranks(np.arange(8).reshape(-1, 1))
        assert list(ranks) == [0, 1, 2, 3, 0, 1, 2, 3]
