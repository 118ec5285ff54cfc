"""SPMD worker operations and the kernel bodies both backends run.

Every ``op_*`` function runs *inside a worker process* with a
:class:`~repro.backend.worker.WorkerContext`: attach the rank's
shared-memory segments, move real bytes, compute on local data,
acknowledge.  A DISTRIBUTE's bytes move by reference — each rank
copies its rectangles out of the old segments, its own and its
peers', into its new one (:func:`op_move`); halo slabs travel through
the message-passing transport.  The master never moves array data on
these paths — if an op mis-addresses a rectangle or a send, the array
contents diverge from the serial reference and the conformance suite
fails, which is exactly the point.

The per-rank kernel bodies (:func:`line_sweep_kernel`,
:func:`stencil_apply`) are what a worker runs on its segment *and*
what :class:`~repro.backend.base.SerialBackend` runs rank by rank in
the master, so the two cannot drift.  Everything here is numpy-only
and module-level (picklable by reference); every payload ops exchange
is a numpy array or plain Python data.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = [
    "op_bind",
    "op_move",
    "op_local_kernel",
    "op_stencil_step",
    "op_pingpong",
    "op_flop_bench",
    "solve_lines",
    "line_sweep_kernel",
    "stencil_apply",
]


def op_bind(ctx, faults=None) -> int:
    """Op 1 of every binding: start it on this worker (see
    :meth:`~repro.backend.worker.WorkerContext.bind`) and health-check
    the fleet — barrier with every peer, return own rank."""
    ctx.bind(faults)
    ctx.transport.barrier()
    return ctx.rank


def op_move(ctx, old_metas, new_meta, reads, pulled) -> None:
    """This rank's share of a DISTRIBUTE plan
    (:class:`~repro.backend.plan.RedistributionPlan`):
    ``new[new_sel] = old[src][old_sel]`` for each ``(src, old_sel,
    new_sel)`` of ``reads``, straight out of rank ``src``'s old segment.
    Nobody writes an old segment and each rank writes only its new one,
    so no rank waits for another.  A read from a peer is a message of
    its link to fault plans; peers read ``pulled[dst]`` of this rank's.
    """
    new = ctx.attach(new_meta)
    ctx.transport.pulled(pulled)
    for src, old_sel, new_sel in reads:
        if src != ctx.rank:
            ctx.transport.pull(src)
        new[new_sel] = ctx.attach(old_metas[src], writable=False)[old_sel]


def op_local_kernel(ctx, meta, fn, idx) -> None:
    """Apply an owner-computes kernel to this rank's local segment.

    ``fn(rank, local, idx)`` mutates ``local`` in place; ``idx`` is
    the per-dimension global index arrays of the segment.  Ranks that
    own nothing just acknowledge.
    """
    local = ctx.attach(meta)
    if local is not None:
        fn(ctx.rank, local, idx)


def solve_lines(moved: np.ndarray, line_func, batched=None) -> int:
    """Run ``line_func`` over every trailing-axis line of ``moved`` in
    place: one whole-batch call when the caller resolved a ``batched``
    form of the solver (``(nlines, n)`` in, ``(nlines, n)`` out), the
    per-line reference loop otherwise.  Returns the line count."""
    flat = moved.reshape(-1, moved.shape[-1])
    if batched is not None:
        moved[...] = np.asarray(
            batched(np.ascontiguousarray(flat))
        ).reshape(moved.shape)
    else:
        view = np.shares_memory(flat, moved)
        for i in range(flat.shape[0]):
            flat[i, :] = line_func(flat[i, :])
        if not view:  # reshape had to copy: write the results back
            moved[...] = flat.reshape(moved.shape)
    return flat.shape[0]


def line_sweep_kernel(rank, local, idx, dim, line_func, batched=None) -> None:
    """The local line-sweep body (ADI's TRIDIAG over local lines)."""
    solve_lines(np.moveaxis(local, dim, -1), line_func, batched)


def _interior(seg, widths) -> tuple:
    """Where ``seg`` sits inside its halo-padded buffer."""
    return tuple(slice(w, w + s) for s, w in zip(seg.shape, widths))


def stencil_apply(seg, pad, widths, func) -> None:
    """One stencil update of a segment from its halo-padded buffer:
    ``func(pad, out, widths)`` computes the new interior, which is
    stored into the segment and the buffer's interior alike."""
    new = np.empty_like(seg)
    func(pad, new, tuple(widths))
    seg[...] = new
    pad[_interior(seg, widths)] = new


def op_stencil_step(
    ctx,
    seg_meta,
    pad_meta,
    widths,
    dim_plans,
    func,
) -> None:
    """One halo-exchanged stencil sweep on this rank's segment.

    ``dim_plans`` is a list over haloed dimensions of
    ``(dim, sends, recvs)`` where sends are ``(peer, key, src_slices)``
    slabs of the *segment* and recvs are ``(peer, key, dest_slices)``
    positions in the *padded* buffer.  Out-of-domain halo cells keep
    the boundary fill the master allocated them with.
    """
    seg = ctx.attach(seg_meta)
    pad = ctx.attach(pad_meta)
    if seg is None:  # non-owner: nothing to exchange or update
        return
    pad[_interior(seg, widths)] = seg
    for dim, sends, recvs in dim_plans:
        # ctx.seq scopes the tag to this op: slabs a failed step left
        # behind can never satisfy a later step's receives
        for peer, key, src_sl in sends:
            ctx.transport.send(
                peer, ("halo", ctx.seq, dim, key), seg[src_sl].copy()
            )
        for peer, key, dest_sl in recvs:
            pad[dest_sl] = ctx.transport.recv(
                peer, ("halo", ctx.seq, dim, key)
            )
    # slabs are cut from the segment, which nobody writes before this
    # line, so the dimensions need no fence between them
    stencil_apply(seg, pad, widths, func)


def op_pingpong(ctx, src, dst, sizes, repeats, tag=None) -> list:
    """Time one-way message latency between two ranks.

    Rank ``src`` bounces a payload of each size off rank ``dst``
    ``repeats`` times and returns ``(nbytes, seconds_one_way)``
    samples (minimum over repeats, halved round trips — the standard
    microbenchmark estimator).  Other ranks idle at the barrier.
    """
    if tag is None:
        tag = ("pingpong", ctx.seq)
    samples = []
    if ctx.rank == src:
        for nbytes in sizes:
            payload = np.zeros(max(1, nbytes // 8), dtype=np.float64)
            best = float("inf")
            for rep in range(repeats + 1):  # first round is warmup
                t0 = time.perf_counter()
                ctx.transport.send(dst, tag, payload)
                ctx.transport.recv(dst, tag)
                dt = time.perf_counter() - t0
                if rep > 0:
                    best = min(best, dt)
            samples.append((int(payload.nbytes), best / 2.0))
    elif ctx.rank == dst:
        for nbytes in sizes:
            for _ in range(repeats + 1):
                echo = ctx.transport.recv(src, tag)
                ctx.transport.send(src, tag, echo)
    ctx.transport.barrier()
    return samples


def op_flop_bench(ctx, n, repeats) -> float:
    """Measure this worker's sustained flop rate (daxpy, 2 flops/elt)."""
    x = np.linspace(0.0, 1.0, n)
    y = np.linspace(1.0, 2.0, n)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        y = 1.000001 * x + y
        dt = time.perf_counter() - t0
        best = min(best, dt)
    ctx.transport.barrier()
    return (2.0 * n) / max(best, 1e-9)
