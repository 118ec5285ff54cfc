"""Distribution types and distributions (paper §2.1–2.2, Definition 1).

A *distribution expression* such as ``(BLOCK, CYCLIC(3), :)`` denotes a
:class:`DistributionType` — a tuple of per-dimension intrinsics.  The
paper: "The application of a distribution type to a (data) array and a
processor section yields a distribution."  Correspondingly,
:meth:`DistributionType.apply` binds a type to an index domain and a
:class:`~repro.machine.topology.ProcessorSection`, producing a
:class:`Distribution` — the index mapping
``delta_A : I^A -> P(I^R) - {emptyset}`` of Definition 1, with
vectorized owner maps, per-processor local index sets, and the
``loc_map`` / ``segment`` access functions of §3.2.1.

Array dimensions that *consume* a processor dimension (everything but
the elision ``:``) are matched to the section's dimensions in order:
the ``i``-th distributed array dimension maps to section dimension
``i``; their counts must agree.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Sequence

import numpy as np

from ..machine.topology import ProcessorArray, ProcessorSection
from .dimdist import Block, Cyclic, DimDist, NoDist, Replicated
from .index_domain import IndexDomain
from .interning import owners_vec_cached, rank_map_cached

__all__ = ["DistributionType", "Distribution", "dist_type"]


def _as_dimdist(spec: object) -> DimDist:
    """Coerce user-friendly specs to :class:`DimDist` instances.

    Accepted shorthands: an existing ``DimDist``; the string ``":"``;
    the strings ``"BLOCK"``, ``"CYCLIC"``, ``"REPLICATED"``.
    """
    if isinstance(spec, DimDist):
        return spec
    if isinstance(spec, str):
        key = spec.strip().upper()
        if key == ":":
            return NoDist()
        if key == "BLOCK":
            return Block()
        if key == "CYCLIC":
            return Cyclic(1)
        if key == "REPLICATED":
            return Replicated()
    raise TypeError(f"cannot interpret {spec!r} as a dimension distribution")


def dist_type(*specs: object) -> "DistributionType":
    """Convenience constructor: ``dist_type("BLOCK", Cyclic(3), ":")``."""
    return DistributionType(specs)


class DistributionType:
    """A distribution expression, e.g. ``(BLOCK, CYCLIC(K))`` (§2.2).

    Determines a *class* of distributions; binding it to an array and a
    processor section (:meth:`apply`) yields a :class:`Distribution`.
    """

    def __init__(self, dims: Sequence[object]):
        self.dims: tuple[DimDist, ...] = tuple(_as_dimdist(d) for d in dims)
        if not self.dims:
            raise ValueError("distribution type needs at least one dimension")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def distributed_dims(self) -> tuple[int, ...]:
        """Array dimensions that consume a processor dimension."""
        return tuple(
            d for d, dd in enumerate(self.dims) if dd.consumes_proc_dim
        )

    def apply(
        self,
        domain: IndexDomain | Sequence[int],
        target: ProcessorSection | ProcessorArray,
        dim_map: Sequence[int] | None = None,
    ) -> "Distribution":
        """Bind this type to an index domain and a processor section."""
        return Distribution(self, domain, target, dim_map=dim_map)

    # -- structural -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, DistributionType) and self.dims == other.dims

    def __hash__(self) -> int:
        h = getattr(self, "_hash_cache", None)
        if h is None:
            h = hash(self.dims)
            self._hash_cache = h
        return h

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(d) for d in self.dims) + ")"


class Distribution:
    """A bound distribution: Definition 1's ``delta_A``.

    Parameters
    ----------
    dtype:
        The :class:`DistributionType`.
    domain:
        The array's index domain (or a shape tuple).
    target:
        Processor section (a full :class:`ProcessorArray` is promoted
        to its full section).  The section must have exactly as many
        dimensions as the type has distributed (non-``:``) dimensions.
    dim_map:
        Section dimension assigned to the ``j``-th distributed array
        dimension.  Defaults to the identity (the declaration-order
        matching of Vienna Fortran); a transposing alignment such as
        the paper's ``ALIGN D(I,J,K) WITH C(J,I,K)`` induces a
        non-identity map via CONSTRUCT.

    **The descriptor holds the layout** (§3.2.1 stores ``dist(A)``,
    ``loc_map_p`` and ``segment`` and modifies them "when the
    distribution is changed").  A distribution is immutable, so it
    works its layout out once:

    - at construction: section dimension and slot count of every array
      dimension, and the section's rank table (built when the section
      was);
    - on the first per-rank query: ``rank -> (slots, local shape)`` for
      every rank of the section and :attr:`owning_ranks`; on the first
      :meth:`segment`: every slot's ``(lo, hi)`` — O(P) small integers;
    - never: index *arrays*.  :meth:`local_index_arrays` builds them per
      call (a :class:`~repro.runtime.darray.DistributedArray` keeps
      them while it keeps the layout) and :meth:`rank_map` lives in one
      bounded LRU, because a distribution outlives its array wherever
      it is a key (that LRU, the intern table): index arrays retained
      on such instances cost the never-seen-shape e2e workload
      (``distribute_cold``) +13 % peak RSS when that was tried.

    :meth:`slot_ranks` is the one place processor slots become ranks.
    """

    def __init__(
        self,
        dtype: DistributionType,
        domain: IndexDomain | Sequence[int],
        target: ProcessorSection | ProcessorArray,
        dim_map: Sequence[int] | None = None,
    ):
        if not isinstance(domain, IndexDomain):
            domain = IndexDomain(domain)
        if isinstance(target, ProcessorArray):
            target = target.full_section()
        if dtype.ndim != domain.ndim:
            raise ValueError(
                f"distribution type {dtype!r} has {dtype.ndim} dimensions, "
                f"array domain has {domain.ndim}"
            )
        ddims = dtype.distributed_dims
        if len(ddims) != target.ndim:
            raise ValueError(
                f"type {dtype!r} distributes {len(ddims)} dimensions but the "
                f"processor section {target!r} has {target.ndim}"
            )
        if dim_map is None:
            dim_map = tuple(range(len(ddims)))
        else:
            dim_map = tuple(int(k) for k in dim_map)
            if sorted(dim_map) != list(range(target.ndim)):
                raise ValueError(
                    f"dim_map {dim_map} is not a permutation of section dims "
                    f"0..{target.ndim - 1}"
                )
        self.dim_map = dim_map
        self.dtype = dtype
        self.domain = domain
        self.target = target
        # section dimension assigned to each array dimension (None for ':')
        secdims = iter(dim_map)
        self._secdim_of = tuple(
            next(secdims) if dd.consumes_proc_dim else None for dd in dtype.dims
        )
        # processor slots along each array dimension (1 for ':')
        self._nslots = tuple(
            1 if k is None else target.shape[k] for k in self._secdim_of
        )
        # validate each dim eagerly so bad B_BLOCK sizes fail at bind time
        for dd, n, p in zip(dtype.dims, domain.shape, self._nslots):
            dd.validate(n, p)
        # shaped like the section: a 0-dimensional one is indexed by ()
        self._rank_array = target.rank_array().reshape(target.shape)
        self._hash_cache: int | None = None

    # -- geometry ----------------------------------------------------------
    def slots_along(self, dim: int) -> int:
        """Processor slots mapped to array dimension ``dim`` (1 for ``:``)."""
        if not 0 <= dim < self.ndim:
            raise IndexError(f"dimension {dim} out of range [0, {self.ndim})")
        return self._nslots[dim]

    @property
    def proc_shape(self) -> tuple[int, ...]:
        """Slot counts along the *distributed* array dimensions, in
        declaration order — the ``proc_shape`` argument expected by the
        compiler's per-reference communication estimates."""
        return tuple(self._nslots[d] for d in self.dtype.distributed_dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.domain.shape

    @property
    def ndim(self) -> int:
        return self.domain.ndim

    @property
    def nprocs(self) -> int:
        """Processors in the target section."""
        return self.target.size

    def ranks(self) -> list[int]:
        """Parent ranks of the target section, section-rank order."""
        return self.target.ranks()

    def slot_ranks(self, slots: Sequence[np.ndarray | int]) -> np.ndarray:
        """Parent ranks of processor slots, vectorized.

        ``slots`` has one entry per *array* dimension — ints or index
        arrays that broadcast against each other; entries along ``:``
        dimensions only lend their shape — so ``np.ix_`` of the owner
        vectors yields a rank map and ``(n,)`` columns yield ``n``
        ranks.  Permuted ``dim_map``s and 0-dimensional sections are
        handled here and nowhere else.  Read-only.
        """
        index = [0] * self.target.ndim
        for k, s in zip(self._secdim_of, slots):
            if k is not None:
                index[k] = s
        shape = np.broadcast_shapes(*map(np.shape, slots))
        return np.broadcast_to(self._rank_array[tuple(index)], shape)

    # -- the per-processor tables --------------------------------------------
    @cached_property
    def _by_rank(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """``rank -> (slots, local shape)`` for every rank of the section:
        its slot along each array dimension (0 along ``:``) and the
        extents of its segment."""
        counts = [
            [dd.local_count(s, n, p) for s in range(p)]
            for dd, n, p in zip(self.dtype.dims, self.shape, self._nslots)
        ]
        table = {}
        for rank, coord in zip(self.target.ranks(), self.target.coords()):
            slots = tuple(0 if k is None else coord[k] for k in self._secdim_of)
            table[rank] = slots, tuple(c[s] for c, s in zip(counts, slots))
        return table

    @cached_property
    def _rank_at(self) -> dict[tuple[int, ...], int]:
        """:attr:`_by_rank` read the other way: ``slots -> rank``."""
        return {slots: rank for rank, (slots, _) in self._by_rank.items()}

    @cached_property
    def owning_ranks(self) -> tuple[int, ...]:
        """Parent ranks that own at least one element, ascending."""
        return tuple(sorted(
            rank for rank, (_, shape) in self._by_rank.items() if 0 not in shape
        ))

    @cached_property
    def _bounds(self) -> list[list[tuple[int, int] | None]]:
        """Per dimension and slot: the ``(lo, hi)`` range the slot owns,
        ``(0, 0)`` if it owns nothing, None if its indices have gaps."""
        def bounds(idx: np.ndarray) -> tuple[int, int] | None:
            if len(idx) == 0:
                return (0, 0)
            lo, hi = int(idx[0]), int(idx[-1]) + 1
            return (lo, hi) if hi - lo == len(idx) else None

        return [
            [bounds(dd.indices_of(s, n, p)) for s in range(p)]
            for dd, n, p in zip(self.dtype.dims, self.shape, self._nslots)
        ]

    def slots_of(self, rank: int) -> tuple[int, ...] | None:
        """``rank``'s processor slot along each array dimension (0 along
        ``:``); None if ``rank`` is not in the target section."""
        entry = self._by_rank.get(rank)
        return None if entry is None else entry[0]

    def _slots_in_section(self, rank: int) -> tuple[int, ...]:
        slots = self.slots_of(rank)
        if slots is None:
            raise IndexError(f"processor {rank} is not in section {self.target!r}")
        return slots

    # -- Definition 1: delta ----------------------------------------------
    def owners(self, index: Sequence[int] | int) -> tuple[int, ...]:
        """All parent ranks owning ``index`` (non-empty, per Definition 1)."""
        index = self.domain.check(index)
        per_dim = [
            dd.all_owners_of(i, n, p) if dd.consumes_proc_dim else (0,)
            for dd, i, n, p in zip(self.dtype.dims, index, self.shape, self._nslots)
        ]
        return tuple(dict.fromkeys(  # dedupe, keep order
            self._rank_at[combo] for combo in itertools.product(*per_dim)
        ))

    def owner(self, index: Sequence[int] | int) -> int:
        """Primary owner (first owner) of ``index``."""
        return self.owners(index)[0]

    def is_local(self, rank: int, index: Sequence[int] | int) -> bool:
        return int(rank) in self.owners(index)

    def is_replicated(self) -> bool:
        return any(not dd.exclusive for dd in self.dtype.dims)

    # -- vectorized owner map -----------------------------------------------
    def owner_maps(self) -> list[np.ndarray]:
        """Per-dimension primary-slot arrays (length ``shape[d]`` each).

        Served from the shared owner-map LRU: the returned arrays are
        **read-only** and shared between structurally equal
        distributions — copy before mutating.
        """
        return [
            owners_vec_cached(dd, n, p)
            for dd, n, p in zip(self.dtype.dims, self.shape, self._nslots)
        ]

    def rank_map(self) -> np.ndarray:
        """``shape``-shaped array of each element's primary-owner rank.

        The workhorse of the vectorized redistribution algorithm
        (experiment E4's "vectorized transfer sets" design choice).
        Read-only, shared between equal distributions, and held only by
        the bounded LRU of :func:`~repro.core.interning.rank_map_cached`.
        """
        return rank_map_cached(self)

    def owner_rank_maps(self):
        """Yield rank maps covering *all* owners of every element.

        For exclusive distributions this yields :meth:`rank_map` once.
        When some dimension is REPLICATED, one map is yielded per
        combination of replica slots along the replicated dimensions,
        so that a consumer (e.g. the redistribution engine) can account
        a transfer to every owner.  The first map yielded is always the
        primary-owner map.
        """
        rep_dims = [
            d
            for d, dd in enumerate(self.dtype.dims)
            if dd.consumes_proc_dim and not dd.exclusive
        ]
        if not rep_dims:
            yield self.rank_map()
            return
        vecs = self.owner_maps()
        for combo in itertools.product(*(range(self._nslots[d]) for d in rep_dims)):
            for d, slot in zip(rep_dims, combo):
                vecs[d] = np.full_like(vecs[d], slot)
            yield self.slot_ranks(np.ix_(*vecs))

    # -- per-processor views (segment / loc_map of §3.2.1) ------------------
    def local_index_arrays(self, rank: int) -> tuple[np.ndarray, ...] | None:
        """Per-dimension sorted global indices owned by ``rank``.

        The Cartesian product of these arrays is ``rank``'s owned set;
        this factorization is exact because every intrinsic distributes
        dimensions independently.  Returns ``None`` when ``rank`` is not
        in the target section.
        """
        slots = self.slots_of(rank)
        if slots is None:
            return None
        return tuple(
            dd.indices_of(s, n, p)
            for dd, s, n, p in zip(self.dtype.dims, slots, self.shape, self._nslots)
        )

    def local_shape(self, rank: int) -> tuple[int, ...]:
        """Shape of ``rank``'s local segment (all zeros if not in section)."""
        entry = self._by_rank.get(rank)
        return (0,) * self.ndim if entry is None else entry[1]

    def local_size(self, rank: int) -> int:
        return math.prod(self.local_shape(rank))

    def global_to_local(self, rank: int, index: Sequence[int] | int) -> tuple[int, ...]:
        """The paper's ``loc_map_p``: local offset of a global index."""
        index = self.domain.check(index)
        return tuple(
            dd.global_to_local(s, i, n, p)
            for dd, s, i, n, p in zip(
                self.dtype.dims, self._slots_in_section(rank), index,
                self.shape, self._nslots,
            )
        )

    def local_to_global(self, rank: int, lindex: Sequence[int] | int) -> tuple[int, ...]:
        if isinstance(lindex, int):
            lindex = (lindex,)
        slots = self._slots_in_section(rank)
        return tuple(
            dd.local_to_global(slots[d], int(lindex[d]), self.shape[d], self._nslots[d])
            for d, dd in enumerate(self.dtype.dims)
        )

    def segment(self, rank: int) -> tuple[tuple[int, int], ...] | None:
        """Per-dimension (lo, hi) bounds for contiguous distributions.

        This is the ``segment`` descriptor component of §3.2.1, defined
        "for regular and irregular BLOCK distributions".  Returns
        ``None`` if any dimension is non-contiguous (e.g. CYCLIC with
        more than one cycle) or ``rank`` is not in the target section.
        """
        slots = self.slots_of(rank)
        if slots is None:
            return None
        seg = tuple(b[s] for b, s in zip(self._bounds, slots))
        return None if None in seg else seg

    # -- structural --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:  # hash-consed instances compare by identity
            return True
        return (
            isinstance(other, Distribution)
            and self.dtype == other.dtype
            and self.domain == other.domain
            and self.target == other.target
            and self.dim_map == other.dim_map
        )

    def __hash__(self) -> int:
        # cached: distributions key every planner memo and PlanCache
        # lookup, and the tuple-of-tuples hash is not free
        if self._hash_cache is None:
            self._hash_cache = hash(
                (self.dtype, self.domain, self.target, self.dim_map)
            )
        return self._hash_cache

    def interned(self) -> "Distribution":
        """The hash-consed canonical instance equal to this one."""
        from .interning import intern_distribution

        return intern_distribution(self)

    def __repr__(self) -> str:
        extra = "" if self.dim_map == tuple(range(self.target.ndim)) else f", dim_map={self.dim_map}"
        return f"Distribution({self.dtype!r} of {self.domain!r} TO {self.target!r}{extra})"
