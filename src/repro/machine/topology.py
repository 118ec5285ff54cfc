"""Processor arrays and processor sections.

Vienna Fortran programs declare the processors that execute them::

    PROCESSORS R(1:M, 1:M)

and distribute arrays *to* a processor array or to a rectangular
*section* of one.  This module models both.  Internally everything is
0-based; the ``repro.lang`` layer normalizes Fortran-style 1-based
declarations.

A :class:`ProcessorArray` is a named Cartesian grid of processors.  Each
processor is identified either by its *coordinate* (a tuple, one entry
per grid dimension) or by its *rank* (the row-major linearization of the
coordinate).  A :class:`ProcessorSection` selects a rectangular,
possibly strided, sub-grid; distributions target sections so that
arrays can be mapped onto subsets of the machine (paper §2.2).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

__all__ = ["ProcessorArray", "ProcessorSection", "grid_shapes"]


def grid_shapes(nprocs: int, ndim: int) -> list[tuple[int, ...]]:
    """All ``ndim``-dimensional grid shapes whose extents multiply to
    ``nprocs``, in deterministic (lexicographic) order.

    For ``ndim == 1`` the single shape ``(nprocs,)`` is returned.  For
    higher ranks every factor must be >= 2 — degenerate unit dimensions
    only duplicate lower-rank arrangements and are omitted (so a prime
    ``nprocs`` has no 2-D grids).  Used by the distribution planner to
    enumerate the processor arrangements a candidate layout may target.
    """
    nprocs = int(nprocs)
    ndim = int(ndim)
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    if ndim < 1:
        raise ValueError(f"ndim must be >= 1, got {ndim}")
    if ndim == 1:
        return [(nprocs,)]
    out: list[tuple[int, ...]] = []
    for first in range(2, nprocs // 2 + 1):
        if nprocs % first == 0:
            for rest in grid_shapes(nprocs // first, ndim - 1):
                if all(r >= 2 for r in rest):
                    out.append((first, *rest))
    return out


def _normalize_shape(shape: Sequence[int] | int) -> tuple[int, ...]:
    if isinstance(shape, int):
        shape = (shape,)
    shape = tuple(int(s) for s in shape)
    if not shape:
        raise ValueError("processor array needs at least one dimension")
    for s in shape:
        if s < 1:
            raise ValueError(f"processor extents must be >= 1, got {shape}")
    return shape


class ProcessorArray:
    """A named Cartesian grid of processors (``PROCESSORS R(...)``).

    Parameters
    ----------
    name:
        The declared name (``R`` in the paper's examples).
    shape:
        Extent of each grid dimension.  ``ProcessorArray("R", (2, 2))``
        corresponds to ``PROCESSORS R(1:2, 1:2)``.
    """

    def __init__(self, name: str, shape: Sequence[int] | int):
        self.name = str(name)
        self.shape = _normalize_shape(shape)
        self._full: ProcessorSection | None = None

    # -- basic geometry -------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of grid dimensions."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total number of processors ($NP for this array)."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    # -- coordinate <-> rank -------------------------------------------
    def rank_of(self, coord: Sequence[int]) -> int:
        """Row-major rank of a processor coordinate."""
        coord = tuple(int(c) for c in coord)
        if len(coord) != self.ndim:
            raise ValueError(
                f"coordinate {coord} has {len(coord)} dims, expected {self.ndim}"
            )
        rank = 0
        for c, s in zip(coord, self.shape):
            if not 0 <= c < s:
                raise IndexError(f"coordinate {coord} out of bounds for shape {self.shape}")
            rank = rank * s + c
        return rank

    def coord_of(self, rank: int) -> tuple[int, ...]:
        """Inverse of :meth:`rank_of`."""
        rank = int(rank)
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} out of range [0, {self.size})")
        coord = []
        for s in reversed(self.shape):
            coord.append(rank % s)
            rank //= s
        return tuple(reversed(coord))

    def coords(self) -> Iterator[tuple[int, ...]]:
        """Iterate over all processor coordinates in rank order."""
        return itertools.product(*(range(s) for s in self.shape))

    def ranks(self) -> range:
        return range(self.size)

    # -- sections --------------------------------------------------------
    def section(self, *slices: slice | int) -> "ProcessorSection":
        """Select a rectangular sub-grid, e.g. ``R.section(slice(0, 2), 1)``."""
        return ProcessorSection(self, slices)

    def full_section(self) -> "ProcessorSection":
        """The section covering the whole array (one object per array:
        sections are immutable and compare by value)."""
        if self._full is None:
            self._full = ProcessorSection(self, (slice(None),) * self.ndim)
        return self._full

    # -- dunder ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ProcessorArray)
            and self.name == other.name
            and self.shape == other.shape
        )

    def __hash__(self) -> int:
        return hash((self.name, self.shape))

    def __repr__(self) -> str:
        dims = ", ".join(f"1:{s}" for s in self.shape)
        return f"PROCESSORS {self.name}({dims})"


class ProcessorSection:
    """A rectangular (possibly strided) sub-grid of a processor array.

    Distribution targets in Vienna Fortran may be processor sections;
    an integer subscript collapses that grid dimension, so a section of
    an ``R(4, 4)`` array such as ``R(2, :)`` is one-dimensional.
    """

    def __init__(self, parent: ProcessorArray, subscripts: Sequence[slice | int]):
        if len(subscripts) != parent.ndim:
            raise ValueError(
                f"section needs {parent.ndim} subscripts, got {len(subscripts)}"
            )
        self.parent = parent
        norm: list[tuple[int, int, int] | int] = []
        shape: list[int] = []
        for sub, extent in zip(subscripts, parent.shape):
            if isinstance(sub, slice):
                start, stop, step = sub.indices(extent)
                if step <= 0:
                    raise ValueError("section strides must be positive")
                n = max(0, (stop - start + step - 1) // step)
                if n == 0:
                    raise ValueError("empty processor section")
                norm.append((start, stop, step))
                shape.append(n)
            else:
                idx = int(sub)
                if not 0 <= idx < extent:
                    raise IndexError(f"subscript {idx} out of bounds (extent {extent})")
                norm.append(idx)
        self._subs = tuple(norm)
        self.shape = tuple(shape)
        #: parent rank of every processor, section-rank order — worked
        #: out once, from the public definition :meth:`rank_of`
        self._ranks = tuple(self.rank_of(c) for c in self.coords())

    @property
    def ndim(self) -> int:
        """Dimensionality of the *section* (collapsed dims removed)."""
        return len(self.shape)

    @property
    def size(self) -> int:
        return len(self._ranks)

    def coord_in_parent(self, sec_coord: Sequence[int]) -> tuple[int, ...]:
        """Map a section-local coordinate to the parent-array coordinate."""
        sec_coord = tuple(int(c) for c in sec_coord)
        if len(sec_coord) != self.ndim:
            raise ValueError(
                f"coordinate {sec_coord} has {len(sec_coord)} dims, expected {self.ndim}"
            )
        out: list[int] = []
        it = iter(sec_coord)
        for sub, extent in zip(self._subs, self.parent.shape):
            if isinstance(sub, int):
                out.append(sub)
            else:
                start, stop, step = sub
                c = next(it)
                if not 0 <= c < (stop - start + step - 1) // step:
                    raise IndexError(f"section coordinate {sec_coord} out of bounds")
                out.append(start + c * step)
        return tuple(out)

    def rank_of(self, sec_coord: Sequence[int]) -> int:
        """Parent rank of a section-local coordinate."""
        return self.parent.rank_of(self.coord_in_parent(sec_coord))

    def ranks(self) -> list[int]:
        """Parent ranks of all processors in the section, section-rank order."""
        return list(self._ranks)

    def coords(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(s) for s in self.shape))

    def rank_array(self) -> np.ndarray:
        """Parent ranks of the section as an ndarray of shape ``self.shape``.

        Entry ``[c0, c1, ...]`` is the parent rank of section-local
        coordinate ``(c0, c1, ...)``.  Distribution code uses this for
        vectorized owner-map construction.
        """
        return np.array(self._ranks, dtype=np.int64).reshape(self.shape or (1,))

    def dim_ranks(self, dim: int) -> np.ndarray:
        """Parent coordinates along section dimension ``dim``.

        Used by per-dimension distribution maps: entry ``i`` is the
        parent-array index (in the corresponding parent dimension) of
        the ``i``-th processor slot along this section dimension.
        """
        live = [s for s in self._subs if not isinstance(s, int)]
        start, _stop, step = live[dim]
        return start + step * np.arange(self.shape[dim], dtype=np.int64)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ProcessorSection)
            and self.parent == other.parent
            and self._subs == other._subs
        )

    def __hash__(self) -> int:
        return hash((self.parent, self._subs))

    def __repr__(self) -> str:
        parts = []
        for sub in self._subs:
            if isinstance(sub, int):
                parts.append(str(sub))
            else:
                start, stop, step = sub
                parts.append(f"{start}:{stop}" + (f":{step}" if step != 1 else ""))
        return f"{self.parent.name}({', '.join(parts)})"
