"""Alignments and the CONSTRUCT composition (paper §2.1, Definition 2).

An alignment ``alpha_A : I^A -> I^B`` relates the elements of array
``A`` to elements of array ``B`` so that corresponding elements are
guaranteed to reside on the same processor.  Given ``alpha_A`` and
``delta_B``, the distribution of ``A`` is::

    delta_A(i) = CONSTRUCT(alpha_A, delta_B) = U_{j in alpha(i)} delta_B(j)

We support the (single-valued) affine alignment family, which covers
every alignment the paper writes: identity (``A2(I,J) WITH B4(I,J)``),
axis permutation (``ALIGN D(I,J,K) WITH C(J,I,K)``), shifts, strides,
and embeddings at a constant index.  Each *target* (``B``) dimension is
described by an :class:`AxisMap`: either an affine function of exactly
one source dimension, or a constant.

:func:`construct` implements CONSTRUCT.  When the alignment merely
permutes/identifies dimensions, the induced distribution *reuses* B's
per-dimension intrinsics, so ``A``'s distribution **type** equals
``B``'s (this is what makes the paper's guarantee "the distribution
type of A1 and A2 will always be the same as that of B4" hold, and is
what DCASE type-matching observes).  General affine maps fall back to
:class:`~repro.core.dimdist.Indirect` owner tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dimdist import DimDist, Indirect, NoDist, Replicated
from .distribution import Distribution, DistributionType
from .index_domain import IndexDomain

__all__ = ["AxisMap", "Alignment", "construct"]


@dataclass(frozen=True)
class AxisMap:
    """How one target (B) dimension is derived from the source (A) index.

    ``j_e = stride * i_{dim} + offset`` when ``dim is not None``;
    ``j_e = offset`` (a constant embedding) when ``dim is None``.
    """

    dim: int | None
    stride: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if self.dim is not None and self.stride == 0:
            raise ValueError("axis map stride must be non-zero")

    def eval_scalar(self, index: Sequence[int]) -> int:
        if self.dim is None:
            return self.offset
        return self.stride * int(index[self.dim]) + self.offset

    def eval_vec(self, n_source: int) -> np.ndarray:
        """Target coordinates for source coordinates ``0..n_source-1``."""
        if self.dim is None:
            raise ValueError("constant axis map has no per-index vector")
        return self.stride * np.arange(n_source, dtype=np.int64) + self.offset

    def is_identity(self) -> bool:
        return self.dim is not None and self.stride == 1 and self.offset == 0


class Alignment:
    """A single-valued affine alignment ``alpha_A : I^A -> I^B``.

    Parameters
    ----------
    source_ndim:
        Rank of the aligned array ``A``.
    axis_maps:
        One :class:`AxisMap` per dimension of the align *target* ``B``.
        Each source dimension may be referenced by at most one map
        (Vienna Fortran alignment specifications are one-to-one in the
        subscript variables).
    """

    def __init__(self, source_ndim: int, axis_maps: Sequence[AxisMap]):
        self.source_ndim = int(source_ndim)
        self.axis_maps = tuple(axis_maps)
        if self.source_ndim < 1:
            raise ValueError("source rank must be >= 1")
        if not self.axis_maps:
            raise ValueError("alignment needs at least one target axis map")
        used = [m.dim for m in self.axis_maps if m.dim is not None]
        for d in used:
            if not 0 <= d < self.source_ndim:
                raise ValueError(
                    f"axis map references source dim {d}, source rank is "
                    f"{self.source_ndim}"
                )
        if len(set(used)) != len(used):
            raise ValueError("each source dimension may be used at most once")

    @property
    def target_ndim(self) -> int:
        return len(self.axis_maps)

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls, ndim: int) -> "Alignment":
        """``A(I,J,...) WITH B(I,J,...)``."""
        return cls(ndim, [AxisMap(d) for d in range(ndim)])

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "Alignment":
        """``A(I1,...,In) WITH B(I_perm[0]+1, ...)``: target dim ``e``
        takes source dim ``perm[e]``.  The paper's
        ``ALIGN D(I,J,K) WITH C(J,I,K)`` is ``permutation((1, 0, 2))``.
        """
        perm = [int(p) for p in perm]
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{perm} is not a permutation")
        return cls(len(perm), [AxisMap(p) for p in perm])

    @classmethod
    def shift(cls, ndim: int, offsets: Sequence[int]) -> "Alignment":
        """``A(I,...) WITH B(I+o1, ...)``."""
        if len(offsets) != ndim:
            raise ValueError("need one offset per dimension")
        return cls(ndim, [AxisMap(d, 1, int(o)) for d, o in enumerate(offsets)])

    # -- evaluation -------------------------------------------------------
    def map_index(self, index: Sequence[int]) -> tuple[int, ...]:
        """``alpha(i)`` for a single source index."""
        if len(index) != self.source_ndim:
            raise ValueError(
                f"index {tuple(index)} has {len(index)} dims, alignment source "
                f"rank is {self.source_ndim}"
            )
        return tuple(m.eval_scalar(index) for m in self.axis_maps)

    def check_domains(self, source: IndexDomain, target: IndexDomain) -> None:
        """Verify alpha maps all of ``source`` into ``target``."""
        if source.ndim != self.source_ndim:
            raise ValueError(
                f"source domain rank {source.ndim} != alignment source rank "
                f"{self.source_ndim}"
            )
        if target.ndim != self.target_ndim:
            raise ValueError(
                f"target domain rank {target.ndim} != alignment target rank "
                f"{self.target_ndim}"
            )
        for e, m in enumerate(self.axis_maps):
            if m.dim is None:
                lo = hi = m.offset
            else:
                n = source.shape[m.dim]
                ends = [m.offset, m.stride * (n - 1) + m.offset]
                lo, hi = min(ends), max(ends)
            if lo < 0 or hi >= target.shape[e]:
                raise ValueError(
                    f"alignment maps source outside target dim {e}: "
                    f"range [{lo}, {hi}] vs extent {target.shape[e]}"
                )

    def compose_perm(self) -> list[int | None]:
        """For each source dim, the target dim it feeds (or None)."""
        out: list[int | None] = [None] * self.source_ndim
        for e, m in enumerate(self.axis_maps):
            if m.dim is not None:
                out[m.dim] = e
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Alignment)
            and self.source_ndim == other.source_ndim
            and self.axis_maps == other.axis_maps
        )

    def __hash__(self) -> int:
        return hash((self.source_ndim, self.axis_maps))

    def __repr__(self) -> str:
        names = "IJKLMN"
        parts = []
        for m in self.axis_maps:
            if m.dim is None:
                parts.append(str(m.offset))
            else:
                t = names[m.dim] if m.dim < len(names) else f"I{m.dim}"
                if m.stride != 1:
                    t = f"{m.stride}*{t}"
                if m.offset:
                    t = f"{t}+{m.offset}" if m.offset > 0 else f"{t}{m.offset}"
                parts.append(t)
        return f"ALIGN ({', '.join(names[d] if d < len(names) else f'I{d}' for d in range(self.source_ndim))}) WITH B({', '.join(parts)})"


def construct(
    alignment: Alignment,
    dist_b: Distribution,
    source_domain: IndexDomain | Sequence[int],
) -> Distribution:
    """CONSTRUCT(alpha, delta_B): the induced distribution of ``A``.

    Implements the paper's composition rule.  Dimension handling:

    - a target dim that is the *identity* image of a source dim of the
      same extent reuses B's per-dimension intrinsic (type-preserving);
    - a general affine image induces an :class:`Indirect` owner table
      for the source dim;
    - a target dim held at a constant pins the corresponding processor
      dimension to the slot owning that constant (the section is
      collapsed there);
    - source dims not mentioned by the alignment are undistributed
      (``:``) — their elements ride along with the mapped dims.

    Raises ``NotImplementedError`` for a constant-embedded *replicated*
    target dimension (a corner the paper never exercises).
    """
    if not isinstance(source_domain, IndexDomain):
        source_domain = IndexDomain(source_domain)
    alignment.check_domains(source_domain, dist_b.domain)

    src_dims: list[DimDist | None] = [None] * source_domain.ndim
    # (source distributed dim j in A-dim order) -> B section dim
    sec_dim_of_src: dict[int, int] = {}
    pinned: dict[int, int] = {}  # B section dim -> pinned slot
    # B's distributed array dim -> its section dim (absent for ':')
    b_secdim_of = dict(zip(dist_b.dtype.distributed_dims, dist_b.dim_map))

    for e, m in enumerate(alignment.axis_maps):
        b_dd = dist_b.dtype.dims[e]
        b_secdim = b_secdim_of.get(e)
        n_b = dist_b.shape[e]
        p_e = dist_b.slots_along(e)
        if m.dim is None:
            # constant embedding: pin the processor dimension (if any)
            if b_secdim is None:
                continue
            if isinstance(b_dd, Replicated):
                raise NotImplementedError(
                    "constant embedding into a REPLICATED dimension"
                )
            pinned[b_secdim] = b_dd.owner_of(m.offset, n_b, p_e)
            continue
        if b_secdim is None:
            # target dim undistributed: source dim is undistributed too
            src_dims[m.dim] = NoDist()
            continue
        n_a = source_domain.shape[m.dim]
        if m.is_identity() and n_a == n_b:
            src_dims[m.dim] = b_dd  # type-preserving reuse
        else:
            owners_b = b_dd.owners_vec(n_b, p_e)
            src_dims[m.dim] = Indirect(owners_b[m.eval_vec(n_a)])
        sec_dim_of_src[m.dim] = b_secdim

    for d in range(source_domain.ndim):
        if src_dims[d] is None:
            src_dims[d] = NoDist()

    # Build the target section: collapse pinned dims of B's section.
    live_b_secdims = sorted(
        set(sec_dim_of_src.values())
    )  # B section dims that survive
    new_target = _collapse_section(dist_b, pinned, live_b_secdims)

    # dim_map: j-th distributed source dim (ascending d) -> new section dim.
    new_pos_of_b_secdim = {b: i for i, b in enumerate(live_b_secdims)}
    dim_map = [
        new_pos_of_b_secdim[sec_dim_of_src[d]]
        for d in sorted(sec_dim_of_src)
    ]

    return Distribution(
        DistributionType(src_dims), source_domain, new_target, dim_map=dim_map
    )


def _collapse_section(
    dist_b: Distribution, pinned: dict[int, int], live: list[int]
):
    """Restrict B's target section: pin some dims, keep ``live`` dims.

    Section dims of B that are neither pinned nor live (i.e. B dims
    distributed there but not reached by the alignment image) would
    leave A's elements owned by *every* slot along them; Vienna Fortran
    resolves this by replicating A across those processors.  We pin
    them to slot 0 instead (primary copy) — a documented simplification
    that keeps ownership single-valued.
    """
    parent = dist_b.target.parent
    subs: list[slice | int] = []
    sec_dim = 0
    for sub in dist_b.target._subs:
        if isinstance(sub, int):
            subs.append(sub)
            continue
        start, stop, step = sub
        if sec_dim in pinned:
            subs.append(start + pinned[sec_dim] * step)
        elif sec_dim in live:
            subs.append(slice(start, stop, step))
        else:
            subs.append(start)  # unreached dim: primary copy at slot 0
        sec_dim += 1
    return parent.section(*subs)
