"""Unit tests for the shared data-motion planning functions."""

import numpy as np
import pytest

from repro.backend.plan import (
    RedistributionPlan,
    halo_dest_slice,
    oracle_matrix,
    shift_plan,
    transfer_plan,
)
from repro.core.dimdist import Block, Cyclic, GenBlock, Indirect, Replicated
from repro.core.distribution import dist_type
from repro.machine import ProcessorArray
from repro.runtime.redistribute import transfer_matrix

P = 4
R = ProcessorArray("R", (P,))


def _apply(spec, shape=(12, 3)):
    return dist_type(*spec).apply(shape, R)


def _segment_gflat(dist, rank):
    """Global flat (C-order) indices of ``rank``'s segment, shaped like
    the segment."""
    return np.ravel_multi_index(
        np.ix_(*dist.local_index_arrays(rank)), dist.shape
    )


class TestSegmentGflat:
    """The bridge the move tests below read selectors through."""

    def test_block_rows(self):
        d = _apply((Block(), ":"))
        # rank 1 owns rows 3..5 of a 12x3 array
        got = _segment_gflat(d, 1)
        assert got.shape == d.local_shape(1)
        assert np.array_equal(got.ravel(), np.arange(3 * 3, 6 * 3))

    def test_cyclic(self):
        d = _apply((Cyclic(1), ":"))
        got = _segment_gflat(d, 2).ravel()
        want = np.concatenate(
            [np.arange(r * 3, r * 3 + 3) for r in (2, 6, 10)]
        )
        assert np.array_equal(got, want)

    def test_empty_rank(self):
        d = _apply((GenBlock([12, 0, 0, 0]), ":"))
        assert _segment_gflat(d, 3).size == 0


class TestTransferPlan:
    @pytest.mark.parametrize(
        "old_spec,new_spec",
        [
            ((Block(), ":"), (":", Block())),
            ((Cyclic(2), ":"), (Block(), ":")),
            ((GenBlock([5, 3, 2, 2]), ":"), (Block(), ":")),
            ((Block(), ":"), (Replicated(), ":")),
        ],
    )
    def test_counts_match_transfer_matrix(self, old_spec, new_spec):
        old, new = _apply(old_spec), _apply(new_spec)
        assert np.array_equal(
            oracle_matrix(old, new, P), transfer_matrix(old, new, P)
        )

    def test_covers_every_destination_element(self):
        old = _apply((Block(), ":"))
        new = _apply((Cyclic(3), ":"))
        plan = transfer_plan(old, new, P)
        per_dest = {r: [] for r in range(P)}
        for _s, d, idx in plan:
            per_dest[d].append(idx)
        for rank in range(P):
            got = np.sort(np.concatenate(per_dest[rank] or [np.empty(0, int)]))
            want = np.sort(_segment_gflat(new, rank).ravel())
            assert np.array_equal(got, want)

    def test_domain_mismatch_rejected(self):
        old = _apply((Block(), ":"), shape=(12, 3))
        new = _apply((Block(), ":"), shape=(8, 3))
        with pytest.raises(ValueError, match="index domain"):
            transfer_plan(old, new, P)
        with pytest.raises(ValueError, match="index domain"):
            RedistributionPlan(old, new, P)


class TestSegmentMoves:
    """``RedistributionPlan.moves``: the rectangles both backends copy."""

    def test_send_recv_pairing(self):
        """Both selector tuples of a move address the oracle's index
        set, in its order — so a message needs no indices."""
        old = _apply((Block(), ":"), shape=(12, 4))
        new = _apply((":", Block()), shape=(12, 4))
        plan = RedistributionPlan(old, new, P)
        oracle = transfer_plan(old, new, P)
        assert [m[:2] for m in plan.moves] == [e[:2] for e in oracle]
        for (s, d, old_sel, new_sel), (_, _, gidx) in zip(plan.moves, oracle):
            assert np.array_equal(_segment_gflat(old, s)[old_sel].ravel(), gidx)
            assert np.array_equal(_segment_gflat(new, d)[new_sel].ravel(), gidx)
        sent = sum(len(e[2]) for e in oracle if e[0] != e[1])
        assert sent == plan.moved == transfer_matrix(old, new, P).sum()

    def test_keeps_plus_moves_cover_new_segments(self):
        old = _apply((GenBlock([2, 6, 2, 2]), ":"))
        new = _apply((Block(), ":"))
        written = {r: np.zeros(new.local_shape(r), dtype=int) for r in range(P)}
        for _s, d, _old_sel, new_sel in RedistributionPlan(old, new, P).moves:
            written[d][new_sel] += 1
        for rank in range(P):
            assert (written[rank] == 1).all()

    def test_selectors_are_slices_unless_a_dimension_is_irregular(self):
        flip = RedistributionPlan(
            _apply((":", Block()), (12, 8)), _apply((Cyclic(1), ":"), (12, 8)), P
        )
        for _s, _d, old_sel, new_sel in flip.moves:
            assert all(isinstance(sel, slice) for sel in old_sel + new_sel)
        # one irregular dimension turns the whole subscript into an open
        # mesh: a slice is never mixed with an index array
        scatter = RedistributionPlan(
            _apply((Indirect([0, 2, 1, 0, 3, 1, 0, 2, 0, 0, 3, 1]), ":"), (12, 8)),
            _apply((":", Block()), (12, 8)), P,
        )
        # (a slot's scattered rows are contiguous in its old segment and
        # scattered in the new one)
        meshes = 0
        for _s, _d, old_sel, new_sel in scatter.moves:
            assert all(isinstance(sel, slice) for sel in old_sel)
            assert len({type(sel) for sel in new_sel}) == 1
            meshes += isinstance(new_sel[0], np.ndarray)
        assert meshes == 8  # slots 0 and 1; two rows are always a stride

    def test_matrix_needs_no_selectors(self):
        """Cost models read only the matrix: the move list is built on
        first use."""
        plan = RedistributionPlan(_apply((Block(), ":")), _apply((":", Block())), P)
        assert "moves" not in vars(plan)
        assert plan.moved + plan.kept == 36
        assert len(plan.moves) == 12 and "moves" in vars(plan)  # 3 columns


class TestShiftPlan:
    def test_matches_manual_block_neighbours(self):
        d = _apply((Block(), ":"))
        entries = shift_plan(d, 0, 1)
        # 4 ranks in a row: 3 interior boundaries x 2 directions
        assert len(entries) == 6
        pairs = {(s, dst, key) for s, dst, key, _sl, _c in entries}
        assert (1, 0, "hi") in pairs  # rank1's low slab -> rank0's hi halo
        assert (0, 1, "lo") in pairs
        for _s, _d, _k, sl, count in entries:
            assert count == 3  # one row of a 12x3 array

    @pytest.mark.parametrize("row", [0, 1])
    def test_section_ranks_not_section_size(self, row):
        """The plan walks the section's parent ranks: BLOCK over
        ``R(1, :)`` of a 2x4 grid (ranks 4-7) has the six entries the
        same layout has on ``R(0, :)`` (it had none)."""
        grid = ProcessorArray("G", (2, 4))
        d = dist_type(Block(), ":").apply((12, 3), grid.section(row, slice(None)))
        entries = shift_plan(d, 0, 1)
        assert len(entries) == 6
        assert {e[0] for e in entries} == set(range(4 * row, 4 * row + 4))

    def test_non_contiguous_rejected(self):
        d = _apply((Cyclic(1), ":"))
        with pytest.raises(ValueError, match="contiguous"):
            shift_plan(d, 0, 1)

    def test_width_clamped_to_segment(self):
        d = _apply((GenBlock([1, 5, 3, 3]), ":"))
        entries = shift_plan(d, 0, 2)
        sends_of_0 = [e for e in entries if e[0] == 0]
        # rank 0 owns a single row; its slab is clamped to width 1
        for _s, _d, _k, sl, count in sends_of_0:
            assert count == 3


class TestHaloDestSlice:
    def test_lo_hi_positions(self):
        shape, widths = (4, 3), (1, 1)
        lo = halo_dest_slice(shape, widths, 0, "lo")
        hi = halo_dest_slice(shape, widths, 0, "hi")
        assert lo[0] == slice(0, 1) and lo[1] == slice(1, 4)
        assert hi[0] == slice(5, 6)

    def test_bad_key(self):
        with pytest.raises(ValueError, match="lo.*hi"):
            halo_dest_slice((4, 3), (1, 1), 0, "mid")
