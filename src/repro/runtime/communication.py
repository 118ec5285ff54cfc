"""Bulk communication primitives of the VFE run-time library (§3.2).

"A run time library of communication routines for transferring single
array elements and array sections, including specialized routines for
handling reductions."  Single-element transfers live on
:class:`~repro.runtime.darray.DistributedArray` itself; this module
provides the section-level routines the application kernels use:

- :func:`shift_exchange` — nearest-neighbour boundary exchange along
  one dimension (the smoothing example's per-step messages);
- :func:`gather_to` / :func:`broadcast_from` — collect a distributed
  array on (or spread it from) one processor;
- :func:`reduce_scalar` — global reduction of per-processor partial
  values, with flat or binary-tree message schedules.

Every routine moves the actual numpy data *and* records the messages a
distributed-memory machine would send, so the cost model sees exactly
the traffic the paper reasons about.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs import metrics as _obs
from .darray import DistributedArray

__all__ = [
    "post_shift",
    "shift_exchange",
    "gather_to",
    "broadcast_from",
    "reduce_scalar",
]

_COMM_MESSAGES = _obs.counter(
    "repro_comm_messages_total",
    "Messages posted on the machine network, by communication kind.",
    ("kind",),
)
_COMM_BYTES = _obs.counter(
    "repro_comm_bytes_total",
    "Bytes posted on the machine network, by communication kind.",
    ("kind",),
)


def post_shift(
    array: DistributedArray,
    dim: int,
    width: int = 1,
    plan_cache=None,
) -> list:
    """Account one ``width``-deep boundary shift along ``dim``: look up
    the slab plan, post its messages as one concurrent phase, bump the
    halo counters.  Returns the plan entries ``(src, dst, key,
    src_slices, count)`` for whoever moves the slabs —
    :func:`shift_exchange` here, the machine's backend inside a
    stencil step.

    The plan is memoized per (distribution, dim, width) on
    ``plan_cache`` (default: the store of the array's machine) — a
    steady-state stencil loop re-derives its neighbour slices zero
    times after the first step.
    """
    if width < 1:
        raise ValueError("exchange width must be >= 1")
    if plan_cache is None:
        plan_cache = array.machine.plans
    try:
        entries = plan_cache.shift_plan(array.dist, dim, width)
    except ValueError as exc:
        raise ValueError(f"{array.name!r}: {exc}") from None
    network = array.machine.network
    itemsize = array.itemsize
    # all boundary transfers of one sweep post concurrently
    phase = [
        (src, dst, count * itemsize, f"shift:{array.name}:d{dim}")
        for src, dst, _key, _sl, count in entries
    ]
    network.exchange(phase)
    network.synchronize()
    if _obs.enabled() and phase:
        _COMM_MESSAGES.inc(len(phase), kind="halo")
        _COMM_BYTES.inc(sum(p[2] for p in phase), kind="halo")
    return entries


def shift_exchange(
    array: DistributedArray,
    dim: int,
    width: int = 1,
) -> dict[int, dict[str, np.ndarray]]:
    """Exchange ``width``-deep boundary slabs with neighbours along ``dim``.

    For every pair of processors owning adjacent index ranges along
    array dimension ``dim``, the boundary slab of each is sent to the
    other (two messages per interior boundary).  Returns, per rank, the
    received slabs under keys ``"lo"`` (from the lower neighbour) and
    ``"hi"`` (from the upper neighbour) — the ghost values a stencil
    sweep needs.

    This is exactly the traffic of the paper's smoothing analysis: a
    column distribution of an N x N grid exchanges 2 messages of N
    elements per processor per step; a 2-D block distribution exchanges
    4 messages of N/p elements (two per distributed dimension).
    """
    entries = post_shift(array, dim, width)
    received: dict[int, dict[str, np.ndarray]] = {
        r: {} for r in array.owning_ranks()
    }
    for src, dst, key, src_sl, _count in entries:
        received[dst][key] = array.local(src)[src_sl].copy()
    return received


def gather_to(array: DistributedArray, root: int = 0) -> np.ndarray:
    """Collect the whole array on ``root`` (one message per other owner)."""
    machine = array.machine
    phase = [
        (rank, root, array.dist.local_size(rank) * array.itemsize,
         f"gather:{array.name}")
        for rank in array.owning_ranks()
        if rank != root
    ]
    machine.network.exchange(phase)
    machine.network.synchronize()
    if _obs.enabled() and phase:
        _COMM_MESSAGES.inc(len(phase), kind="gather")
        _COMM_BYTES.inc(sum(p[2] for p in phase), kind="gather")
    return array.to_global()


def broadcast_from(array: DistributedArray, values: np.ndarray, root: int = 0) -> None:
    """Scatter ``values`` from ``root`` into the distributed segments."""
    machine = array.machine
    phase = [
        (root, rank, array.dist.local_size(rank) * array.itemsize,
         f"scatter:{array.name}")
        for rank in array.owning_ranks()
        if rank != root
    ]
    machine.network.exchange(phase)
    machine.network.synchronize()
    if _obs.enabled() and phase:
        _COMM_MESSAGES.inc(len(phase), kind="broadcast")
        _COMM_BYTES.inc(sum(p[2] for p in phase), kind="broadcast")
    array.from_global(values)


def reduce_scalar(
    machine,
    partials: dict[int, float],
    op: Callable[[float, float], float] = lambda a, b: a + b,
    root: int = 0,
    tree: bool = True,
    nbytes: int = 8,
) -> float:
    """Reduce per-processor partial values to ``root``.

    ``tree=True`` uses the binary-combining schedule (ceil(log2 P)
    rounds, P-1 messages); ``tree=False`` sends every partial straight
    to the root (also P-1 messages but serialized at the root — the
    latency difference shows up in the modeled time).
    """
    ranks = sorted(partials)
    if root not in partials:
        raise ValueError(f"root {root} contributed no partial value")
    vals = dict(partials)
    if not tree:
        acc = vals[root]
        for r in ranks:
            if r == root:
                continue
            machine.network.send(r, root, nbytes, tag="reduce")
            acc = op(acc, vals[r])
        machine.network.synchronize()
        return acc
    # binary tree: pair up, halve the active set each round
    active = [r for r in ranks if r != root]
    active = [root] + active
    while len(active) > 1:
        nxt = []
        for i in range(0, len(active), 2):
            if i + 1 < len(active):
                src, dst = active[i + 1], active[i]
                machine.network.send(src, dst, nbytes, tag="reduce")
                vals[dst] = op(vals[dst], vals[src])
            nxt.append(active[i])
        active = nxt
    machine.network.synchronize()
    return vals[root]
