"""PARTI-style inspector/executor (paper §3.2 item 1 and §4's PIC code).

For irregular accesses ("the compiler will have to generate runtime
code using the inspector/executor paradigm [10, 15] to support this
particle motion"), the run time splits a communication-heavy loop into

- an **inspector**, run once per access pattern: translate the global
  indices each processor references, discover which are off-processor,
  and build a :class:`CommSchedule` of exactly the needed exchanges;
- an **executor**, run every iteration: carry out the schedule's
  gathers/scatters and then execute the loop on local + buffered data.

Schedules are *reused* across iterations as long as neither the access
pattern nor the distribution changes; redistribution bumps the array's
version counter, which invalidates the schedule (the "cost of
maintaining runtime information about the current distribution" from
§1 shows up here as schedule rebuilds — benchmarked in E3).
"""

from __future__ import annotations

import numpy as np

from .darray import DistributedArray
from .translation import TranslationTable

__all__ = ["CommSchedule", "Inspector"]


class CommSchedule:
    """The communication plan produced by an inspector.

    For each requesting processor ``p`` and owning processor ``q != p``,
    the schedule stores the flat positions (within ``p``'s request
    list) and the owners' local offsets of the elements ``q`` must ship
    to ``p``.  What the executors need of that on every call — the
    per-pair selectors and counts — is inspector work too, so it is
    worked out here, once.
    """

    def __init__(
        self,
        array_version: int,
        requests: dict[int, np.ndarray],
        owner_of: dict[int, np.ndarray],
        local_offsets: dict[int, np.ndarray],
    ):
        self.array_version = array_version
        #: rank -> (nreq, ndim) global indices requested by that rank
        self.requests = requests
        #: rank -> (nreq,) owner rank of each request
        self.owner_of = owner_of
        #: rank -> (nreq, ndim) local offset at the owner
        self.local_offsets = local_offsets
        #: requester -> ``[(owner, positions in the request list, per-dim
        #: local selectors at the owner), ...]``, ascending owner
        self._by_owner: dict[int, list[tuple[int, np.ndarray, tuple]]] = {}
        self._pairs: dict[tuple[int, int], int] = {}
        for p, own in owner_of.items():
            offs = local_offsets[p]
            self._by_owner[p] = []
            for q in map(int, np.unique(own)):
                pos = np.flatnonzero(own == q)
                self._by_owner[p].append((q, pos, tuple(offs[pos].T)))
                if q != p:
                    self._pairs[(q, p)] = len(pos)

    def nonlocal_counts(self) -> dict[int, int]:
        """Per requesting rank, how many requests are off-processor."""
        return {
            p: int((own != p).sum()) for p, own in self.owner_of.items()
        }

    def message_pairs(self) -> dict[tuple[int, int], int]:
        """(owner, requester) -> element count, for all off-processor data."""
        return dict(self._pairs)


class Inspector:
    """Builds and executes communication schedules for one array."""

    def __init__(self, array: DistributedArray):
        self.array = array
        self._table: TranslationTable | None = None
        self._table_version = -1

    def _translation(self) -> TranslationTable:
        if self._table is None or self._table_version != self.array.version:
            self._table = TranslationTable(self.array.dist)
            self._table_version = self.array.version
        return self._table

    # -- inspector phase --------------------------------------------------
    def inspect(self, requests: dict[int, np.ndarray]) -> CommSchedule:
        """Translate per-processor global index requests into a schedule.

        ``requests[p]`` is an ``(n_p, ndim)`` (or ``(n_p,)`` for 1-D
        arrays) array of global indices processor ``p`` will read.
        """
        table = self._translation()
        req_norm: dict[int, np.ndarray] = {}
        owner_of: dict[int, np.ndarray] = {}
        offsets: dict[int, np.ndarray] = {}
        for p, idx in requests.items():
            idx = np.asarray(idx, dtype=np.int64)
            if idx.ndim == 1 and self.array.ndim == 1:
                idx = idx.reshape(-1, 1)
            if idx.ndim != 2 or idx.shape[1] != self.array.ndim:
                raise ValueError(
                    f"requests for rank {p} must be (n, {self.array.ndim})"
                )
            req_norm[p] = idx
            owner_of[p] = table.owner_ranks(idx)
            _, offsets[p] = table.lookup(idx)
        return CommSchedule(self.array.version, req_norm, owner_of, offsets)

    # -- executor phase ----------------------------------------------------
    def gather(self, schedule: CommSchedule) -> dict[int, np.ndarray]:
        """Execute the gathers of ``schedule``; returns per-rank values.

        ``result[p][i]`` is the value of ``schedule.requests[p][i]``.
        Off-processor elements are fetched with one aggregated message
        per (owner, requester) pair — the PARTI buffering scheme —
        charged to the machine network.  Raises if the schedule is
        stale (array redistributed since :meth:`inspect`).
        """
        self._check_fresh(schedule)
        machine = self.array.machine
        itemsize = self.array.itemsize
        machine.network.exchange(
            [
                (q, p, count * itemsize, f"gather:{self.array.name}")
                for (q, p), count in schedule.message_pairs().items()
            ]
        )
        machine.network.synchronize()

        out: dict[int, np.ndarray] = {}
        for p, idx in schedule.requests.items():
            vals = np.empty(len(idx), dtype=self.array.np_dtype)
            for q, pos, sel in schedule._by_owner[p]:
                vals[pos] = self.array.local(q)[sel]
            out[p] = vals
        return out

    def scatter_add(
        self, schedule: CommSchedule, values: dict[int, np.ndarray]
    ) -> None:
        """Execute scatter-with-accumulate (the PIC particle reassignment).

        Each requesting rank ``p`` contributes ``values[p][i]`` to
        global element ``schedule.requests[p][i]``; contributions to
        off-processor elements cost one aggregated message per
        (requester, owner) pair.  Accumulation order is deterministic
        (ascending requester rank).
        """
        self._check_fresh(schedule)
        machine = self.array.machine
        itemsize = self.array.itemsize
        # data flows requester -> owner here (reverse of gather)
        machine.network.exchange(
            [
                (p, q, count * itemsize, f"scatter:{self.array.name}")
                for (q, p), count in schedule.message_pairs().items()
            ]
        )
        machine.network.synchronize()

        for p in sorted(schedule.requests):
            idx = schedule.requests[p]
            vals = np.asarray(values[p], dtype=self.array.np_dtype)
            if len(vals) != len(idx):
                raise ValueError(
                    f"rank {p}: {len(vals)} values for {len(idx)} requests"
                )
            for q, pos, sel in schedule._by_owner[p]:
                np.add.at(self.array.local(q), sel, vals[pos])

    def _check_fresh(self, schedule: CommSchedule) -> None:
        if schedule.array_version != self.array.version:
            raise RuntimeError(
                f"stale schedule for {self.array.name!r}: built at version "
                f"{schedule.array_version}, array is at {self.array.version} "
                f"(redistributed since; re-run the inspector)"
            )
