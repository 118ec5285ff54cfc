"""Unit tests for the shared data-motion planning functions."""

import numpy as np
import pytest

from repro.backend.plan import (
    halo_dest_slice,
    segment_gflat,
    segment_moves,
    shift_plan,
    transfer_plan,
)
from repro.core.dimdist import Block, Cyclic, GenBlock, Replicated
from repro.core.distribution import dist_type
from repro.machine import ProcessorArray
from repro.runtime.redistribute import transfer_matrix

P = 4
R = ProcessorArray("R", (P,))


def _apply(spec, shape=(12, 3)):
    return dist_type(*spec).apply(shape, R)


class TestSegmentGflat:
    def test_block_rows(self):
        d = _apply((Block(), ":"))
        # rank 1 owns rows 3..5 of a 12x3 array
        got = segment_gflat(d, 1)
        want = np.arange(3 * 3, 6 * 3)
        assert np.array_equal(got, want)

    def test_cyclic(self):
        d = _apply((Cyclic(1), ":"))
        got = segment_gflat(d, 2)
        want = np.concatenate(
            [np.arange(r * 3, r * 3 + 3) for r in (2, 6, 10)]
        )
        assert np.array_equal(got, want)

    def test_empty_rank(self):
        d = _apply((GenBlock([12, 0, 0, 0]), ":"))
        assert segment_gflat(d, 3).size == 0


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
        plan = transfer_plan(old, new, P)
        T = np.zeros((P, P), dtype=np.int64)
        for s, d, idx in plan:
            if s != d:
                T[s, d] += len(idx)
        assert np.array_equal(T, transfer_matrix(old, new, P))

    def test_covers_every_destination_element(self):
        old = _apply((Block(), ":"))
        new = _apply((Cyclic(3), ":"))
        plan = transfer_plan(old, new, P)
        per_dest = {r: [] for r in range(P)}
        for _s, d, idx in plan:
            per_dest[d].append(idx)
        for rank in range(P):
            got = np.sort(np.concatenate(per_dest[rank] or [np.empty(0, int)]))
            want = np.sort(segment_gflat(new, rank))
            assert np.array_equal(got, want)

    def test_domain_mismatch_rejected(self):
        old = _apply((Block(), ":"), shape=(12, 3))
        new = _apply((Block(), ":"), shape=(8, 3))
        with pytest.raises(ValueError, match="index domain"):
            transfer_plan(old, new, P)


class TestSegmentMoves:
    def test_send_recv_pairing(self):
        old = _apply((Block(), ":"), shape=(12, 4))
        new = _apply((":", Block()), shape=(12, 4))
        moves = segment_moves(old, new, P)
        # every send stream has a matching recv stream: same peer,
        # same per-message element counts, same order
        send_streams: dict[tuple[int, int], list[int]] = {}
        recv_streams: dict[tuple[int, int], list[int]] = {}
        for r, m in moves.items():
            for d, pos in m.sends:
                send_streams.setdefault((r, d), []).append(len(pos))
            for s, pos in m.recvs:
                recv_streams.setdefault((s, r), []).append(len(pos))
        assert send_streams == recv_streams
        total_sent = sum(sum(v) for v in send_streams.values())
        assert total_sent == transfer_matrix(old, new, P).sum()

    def test_keeps_plus_moves_cover_new_segments(self):
        old = _apply((GenBlock([2, 6, 2, 2]), ":"))
        new = _apply((Block(), ":"))
        moves = segment_moves(old, new, P)
        for rank in range(P):
            n_new = new.local_size(rank)
            m = moves.get(rank)
            covered = 0
            if m is not None:
                covered += sum(len(np_) for _o, np_ in m.keeps)
                covered += sum(len(pos) for _s, pos in m.recvs)
            assert covered == n_new


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
