"""Section-level communication accounting of the VFE run-time library (§3.2).

"A run time library of communication routines for transferring single
array elements and array sections, including specialized routines for
handling reductions."  Single-element transfers live on
:class:`~repro.runtime.darray.DistributedArray` itself; this module
holds the nearest-neighbour boundary shift, the section transfer every
stencil sweep makes (the smoothing example's per-step messages):

- :func:`post_shift` — look up the slab plan of one shift along one
  dimension and record its messages on the machine's network.

It accounts only.  The slabs themselves are placed by
:meth:`~repro.runtime.overlap.OverlapManager.place_halos`, which
:meth:`~repro.runtime.overlap.OverlapManager.exchange` and the serial
backend's stencil step both call, so the cost model sees exactly the
traffic the paper reasons about whichever copies the data.
"""

from __future__ import annotations

from ..obs import metrics as _obs
from .darray import DistributedArray

__all__ = ["post_shift"]

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
    src_slices, count)`` for whoever places the slabs
    (:meth:`~repro.runtime.overlap.OverlapManager.place_halos`, or a
    worker fleet inside a stencil step).

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
