"""SPMD lowering: executable owner-computes kernels (§1, §3.1).

"The Vienna Fortran Compilation System generates code based on the
SPMD model, in which each processor executes essentially the same
code, but on a local data set. ... the compiler distributes work based
upon the owner computes rule ... The compiler satisfies any non-local
references required for this computation by inserting communication
statements."

This module is the code-generation half of that story, specialized to
the access patterns the paper's applications exhibit.  Each kernel
class wraps one distributed array and runs against the simulated
machine — the generated "object program":

- :class:`StencilKernel` — shift references: allocate overlap areas,
  insert one halo exchange per step, run the stencil on local data;
- :class:`LineSweepKernel` — ROW_SWEEP references (the ADI pattern):
  if the swept dimension is local, run each line in place with zero
  communication; otherwise *insert* the gather/compute/scatter
  messages a distributed line incurs (the paper's bad case, where
  "the argument ... is distributed across a set of processors and it
  becomes the responsibility of the compiler to embed the required
  communication in the generated code").

Kernels check the array's distribution *at run time*, so a DISTRIBUTE
executed between two invocations changes the communication behaviour
exactly as in Vienna Fortran.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..backend.base import SERIAL
from ..backend.plan import PlanCache
from ..runtime.communication import post_shift
from ..runtime.darray import DistributedArray
from ..runtime.overlap import OverlapManager

__all__ = [
    "StencilKernel",
    "LineSweepKernel",
    "batched_line_solver",
]


def batched_line_solver(line_func: Callable) -> Callable | None:
    """The whole-batch form of a per-line solver, if it advertises one.

    A line solver opts into vectorized sweeps by carrying a
    ``batched`` attribute: a callable taking an ``(nlines, n)`` array
    of right-hand sides and returning the ``(nlines, n)`` solutions,
    elementwise-identical to applying the scalar solver per row (the
    paper's TRIDIAG does — see
    :func:`repro.apps.tridiag.thomas_const_batch`).  ``functools.partial``
    wrappers are unwrapped with their bound arguments.  Returns
    ``None`` when the solver only exists in per-line form; sweeps then
    fall back to the per-line reference loop.
    """
    fn = getattr(line_func, "batched", None)
    if fn is not None:
        return fn
    if isinstance(line_func, partial):
        inner = getattr(line_func.func, "batched", None)
        if inner is not None:
            return partial(inner, *line_func.args, **line_func.keywords)
    return None


class StencilKernel:
    """An owner-computes stencil sweep with halo exchange.

    ``func(padded, out, widths)`` computes the new interior from the
    halo-padded local block; it is applied per processor on local data
    only — all communication happens in the halo exchange up front.
    Its slab plans are memoized on ``plan_cache`` (default: the store
    of the array's machine).
    """

    def __init__(
        self,
        array: DistributedArray,
        widths: tuple[int, ...],
        func: Callable[[np.ndarray, np.ndarray, tuple[int, ...]], None],
        flops_per_element: float = 4.0,
        plan_cache: PlanCache | None = None,
    ):
        self.array = array
        self.widths = widths
        self.func = func
        self.flops_per_element = flops_per_element
        self.plan_cache = (
            plan_cache if plan_cache is not None else array.machine.plans
        )
        self._overlap: OverlapManager | None = None
        self._version = -1

    def _manager(self) -> OverlapManager:
        if self._overlap is None or self._version != self.array.version:
            self._overlap = OverlapManager(self.array, self.widths)
            self._version = self.array.version
        return self._overlap

    def step(self) -> None:
        """One sweep: load, exchange halos, compute, store.

        The master accounts the sweep — one exchange phase per haloed
        dimension, then the per-rank compute charges — and the
        machine's backend executes it against the (re)allocated padded
        buffers, reusing the slab plans the accounting looked up.
        """
        ov = self._manager()
        machine = self.array.machine
        dim_entries = [
            (dim, post_shift(self.array, dim, w, self.plan_cache))
            for dim, w in enumerate(self.widths)
            if w > 0
        ]
        for rank in self.array.owning_ranks():
            machine.network.compute(
                rank, self.flops_per_element * self.array.local(rank).size,
                tag=f"stencil:{self.array.name}",
            )
        machine.network.synchronize()
        machine.backend.stencil_step(self.array, ov, self.func, dim_entries)


class LineSweepKernel:
    """Independent 1-D solves along every line of one array dimension.

    ``line_func(values) -> values`` transforms one full line (the
    paper's TRIDIAG).  If the swept dimension is undistributed, every
    line is local to its owner and the sweep is communication-free.
    Otherwise each line is gathered to the processor owning its first
    element, solved there, and scattered back — the communication the
    compiler must embed when the programmer does *not* redistribute.
    """

    def __init__(
        self,
        array: DistributedArray,
        dim: int,
        line_func: Callable[[np.ndarray], np.ndarray],
        flops_per_element: float = 8.0,
    ):
        if not 0 <= dim < array.ndim:
            raise ValueError(f"dim {dim} out of range for rank {array.ndim}")
        self.array = array
        self.dim = dim
        self.line_func = line_func
        self.flops_per_element = flops_per_element
        #: whole-batch solver, if ``line_func`` advertises one
        self._batched = batched_line_solver(line_func)

    def _line_is_local(self) -> bool:
        from ..core.dimdist import NoDist, Replicated

        dd = self.array.dist.dtype.dims[self.dim]
        if isinstance(dd, (NoDist, Replicated)):
            return True
        # distributed, but possibly onto a single processor slot
        return self.array.dist.slots_along(self.dim) == 1

    def sweep(self, reference: bool = False) -> dict[str, int]:
        """Run line_func over every line; returns sweep statistics.

        ``reference=True`` forces the per-line oracle path (rank-map
        slicing per line, scalar solves) that the vectorized plan-based
        path is property-tested bitwise against.
        """
        if self._line_is_local():
            return self._sweep_local(reference=reference)
        if reference:
            return self._sweep_distributed_reference()
        return self._sweep_distributed()

    def _sweep_local(self, reference: bool = False) -> dict[str, int]:
        """Every line is local to its owner: the master charges each
        owner's compute, the machine's backend solves the lines — all
        of them as one batch in process (``line_func`` must be
        picklable to run in worker processes: use ``functools.partial``
        over module-level solvers)."""
        machine = self.array.machine
        nlines = 0
        for rank in self.array.owning_ranks():
            local = self.array.local(rank)
            nlines += local.size // local.shape[self.dim]
            machine.network.compute(
                rank, self.flops_per_element * local.size,
                tag=f"sweep:{self.array.name}",
            )
        machine.backend.sweep_lines(
            self.array, self.dim, self.line_func,
            # the per-line oracle is the scalar loop on any backend
            None if reference else self._batched,
        )
        machine.network.synchronize()
        return {"lines": nlines, "remote_lines": 0}

    def _sweep_distributed(self) -> dict[str, int]:
        """Gather each line to its head owner, solve, scatter back.

        Line ownership is resolved through the cached
        :class:`~repro.backend.plan.SweepPlan`: lines sharing a
        processor-slot combination share one precomputed head and
        message template instead of re-slicing the rank map and
        re-running ``np.unique`` per line, and the solves run as one
        stack (whole-batch when the solver allows).
        The emitted messages, kernel charges and their order are
        identical to the per-line reference (property-tested).
        """
        machine = self.array.machine
        arr = self.array
        n_line = arr.shape[self.dim]
        itemsize = arr.itemsize
        plan = machine.plans.sweep_plan(arr.dist, self.dim)

        # expand per-group message templates in line order (the same
        # program order the per-line loop produced)
        gids = plan.group_of_line
        gather_phase = [
            (q, h, cnt * itemsize, "sweep:gather")
            for g in gids
            for q, h, cnt in plan.gather[g]
        ]
        scatter_phase = [
            (h, q, cnt * itemsize, "sweep:scatter")
            for g in gids
            for h, q, cnt in plan.scatter[g]
        ]
        # per-head kernel charges accumulate line by line in first-
        # appearance order (dict semantics of the reference loop)
        head_flops: dict[int, float] = {}
        line_flops = self.flops_per_element * n_line
        for h in plan.head[gids]:
            h = int(h)
            head_flops[h] = head_flops.get(h, 0.0) + line_flops
        remote_lines = int(np.count_nonzero(plan.remote[gids]))

        # all line gathers post concurrently, then the solves, then all
        # scatters — the per-head occupancy serializes a head's lines.
        machine.network.exchange(gather_phase)
        for head, flops in head_flops.items():
            machine.network.compute(
                head, flops, tag=f"sweep:{arr.name}"
            )
        machine.network.exchange(scatter_phase)
        machine.network.synchronize()

        # simulation shortcut for the data itself: the messages above
        # are the model, the values move by global reassembly whatever
        # backend is attached
        SERIAL.sweep_lines(arr, self.dim, self.line_func, self._batched)
        return {"lines": arr.size // n_line, "remote_lines": remote_lines}

    def _sweep_distributed_reference(self) -> dict[str, int]:
        """Per-line oracle for :meth:`_sweep_distributed`: slice the
        rank map and discover head/pieces per line, solve each line
        scalar.  Values, statistics, messages and their order are the
        contract the plan-based path is property-tested against."""
        machine = self.array.machine
        arr = self.array
        n_line = arr.shape[self.dim]
        itemsize = arr.itemsize
        # iterate over all lines (all index combinations of other dims)
        other_dims = [d for d in range(arr.ndim) if d != self.dim]
        gvals = arr.to_global()  # simulation shortcut for the data itself
        remote_lines = 0
        rank_map = np.asarray(arr.dist.rank_map())
        import itertools as _it

        other_ranges = [range(arr.shape[d]) for d in other_dims]
        gather_phase: list[tuple[int, int, int, str]] = []
        scatter_phase: list[tuple[int, int, int, str]] = []
        head_flops: dict[int, float] = {}
        for combo in _it.product(*other_ranges):
            idx = [0] * arr.ndim
            for d, v in zip(other_dims, combo):
                idx[d] = v
            line_sl = tuple(
                slice(None) if d == self.dim else idx[d]
                for d in range(arr.ndim)
            )
            line_owners = rank_map[line_sl]
            head = int(line_owners[0])
            qs, counts = np.unique(line_owners, return_counts=True)
            pieces: dict[int, int] = {
                int(q): int(c) for q, c in zip(qs, counts)
            }
            for q, cnt in pieces.items():
                if q != head:
                    gather_phase.append((q, head, cnt * itemsize, "sweep:gather"))
                    scatter_phase.append((head, q, cnt * itemsize, "sweep:scatter"))
            gvals[line_sl] = self.line_func(np.ascontiguousarray(gvals[line_sl]))
            head_flops[head] = head_flops.get(head, 0.0) + (
                self.flops_per_element * n_line
            )
            if len(pieces) > 1:
                remote_lines += 1
        # all line gathers post concurrently, then the solves, then all
        # scatters — the per-head occupancy serializes a head's lines.
        machine.network.exchange(gather_phase)
        for head, flops in head_flops.items():
            machine.network.compute(
                head, flops, tag=f"sweep:{arr.name}"
            )
        machine.network.exchange(scatter_phase)
        machine.network.synchronize()
        arr.from_global(gvals)
        nlines = 1
        for d in other_dims:
            nlines *= arr.shape[d]
        return {"lines": nlines, "remote_lines": remote_lines}

