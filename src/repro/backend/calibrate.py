"""Measured-cost calibration of the execution transport.

The planner's whole cost machinery is parameterized by two network
constants — alpha (startup) and beta (per byte) — and a flop rate.
The presets guess them from 1993 literature; this module *measures*
them on the multiprocess backend's real transport:

1. ping-pong microbenchmark: one-way times for a ladder of message
   sizes between two workers (minimum over repeats);
2. linear least-squares fit ``t(n) = alpha + beta * n``;
3. daxpy microbenchmark for the per-worker flop rate;

and packages the fit as a :class:`~repro.machine.measured.Calibration`
/ :class:`~repro.machine.measured.MeasuredMachine`, which every layer
above (cost engine, planner, benches) accepts as an ordinary machine.
The modeled-vs-measured comparison bench (E13) closes the loop by
pricing real redistributions with both.  DISTRIBUTE bytes no longer
cross the transport (workers read them out of shared memory), so the
fitted beta prices halo exchanges only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..machine.machine import Machine
from ..machine.measured import Calibration, MeasuredMachine
from ..machine.topology import ProcessorArray
from .multiprocess import MultiprocessBackend
from .ops import op_flop_bench, op_pingpong

__all__ = [
    "DEFAULT_SIZES",
    "fit_alpha_beta",
    "calibrate",
    "measured_machine",
]

#: message-size ladder: spans the latency-dominated and the
#: bandwidth-dominated regimes so the linear fit is well conditioned.
DEFAULT_SIZES = (8, 512, 4096, 32768, 262144, 1048576)


def fit_alpha_beta(
    samples: Sequence[tuple[int, float]]
) -> tuple[float, float, float]:
    """Least-squares fit of ``t = alpha + beta * n`` to the samples.

    Returns ``(alpha, beta, rms_residual)``; both constants are
    clamped to be non-negative (a noisy fit on a fast transport can
    cross zero).
    """
    if len(samples) < 2:
        raise ValueError("need at least two (nbytes, seconds) samples")
    n = np.asarray([s[0] for s in samples], dtype=float)
    t = np.asarray([s[1] for s in samples], dtype=float)
    A = np.stack([np.ones_like(n), n], axis=1)
    (alpha, beta), *_ = np.linalg.lstsq(A, t, rcond=None)
    alpha = max(float(alpha), 1e-9)
    beta = max(float(beta), 0.0)
    resid = t - (alpha + beta * n)
    return alpha, beta, float(np.sqrt(np.mean(resid**2)))


def calibrate(
    nprocs: int = 2,
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 7,
    flop_n: int = 1_000_000,
    backend: MultiprocessBackend | None = None,
) -> Calibration:
    """Microbenchmark the multiprocess transport and fit the constants.

    A throwaway machine with ``nprocs`` workers is spun up (unless an
    attached ``backend`` is supplied); rank 0 ping-pongs rank 1 over
    the size ladder and every worker runs the flop benchmark (the
    fleet-minimum daxpy rate is used, matching the cost model's
    single-processor ``flop_rate``).
    """
    own_backend = backend is None
    if own_backend:
        if nprocs < 2:
            raise ValueError("calibration needs at least two workers")
        backend = MultiprocessBackend()
        backend.attach(Machine(ProcessorArray("CAL", (nprocs,))))
    try:
        nprocs = backend.nprocs
        if nprocs < 2:
            raise ValueError("calibration needs at least two workers")
        samples = backend.run_op(
            op_pingpong,
            [
                dict(src=0, dst=1, sizes=tuple(sizes), repeats=repeats)
                for _ in range(nprocs)
            ],
        )[0]
        flop_rates = backend.run_op(
            op_flop_bench,
            [dict(n=flop_n, repeats=3) for _ in range(nprocs)],
        )
    finally:
        if own_backend:
            backend.close()
    alpha, beta, resid = fit_alpha_beta(samples)
    return Calibration(
        alpha=alpha,
        beta=beta,
        flop_rate=float(min(flop_rates)),
        samples=tuple((int(n), float(t)) for n, t in samples),
        source="multiprocess",
        residual=resid,
    )


def measured_machine(
    processors: ProcessorArray | Sequence[int] | int,
    calibration: Calibration | None = None,
    **calibrate_kwargs,
) -> MeasuredMachine:
    """A :class:`MeasuredMachine` over ``processors``, calibrating the
    transport first if no fit is supplied."""
    if calibration is None:
        calibration = calibrate(**calibrate_kwargs)
    return MeasuredMachine(processors, calibration)
