"""Grid smoothing — the distribution-choice example of §4.

"In a grid based computation, such as smoothing, the value at a grid
point is based on its 4 nearest neighbors.  A column distribution of
the N x N grid will give rise to 2 messages per processor, each of
size N, per computation step.  On the other hand, if the grid is
distributed by blocks in two dimensions across a p^2 processor array,
then each computation step requires 4 messages of size N/p each on
each processor.  Thus, given the startup overhead and cost per byte of
each message of the target machine, the ratio N/p will determine the
most appropriate distribution."

This module provides the smoothing kernel under both distributions
(measured traffic comes from the actual halo exchanges), the paper's
closed-form per-step cost model, and :func:`best_distribution` — the
run-time selection rule the paper proposes the user implement with
dynamic distributions and the ``$NP`` intrinsic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiler.codegen import StencilKernel
from ..core.distribution import dist_type
from ..defaults import DEFAULT_SEED
from ..machine.cost_model import CostModel
from ..machine.machine import Machine
from ..runtime.engine import Engine

__all__ = [
    "SmoothingResult",
    "smooth_step_func",
    "execute_smoothing",
    "smoothing_reference",
    "predicted_step_cost",
    "best_distribution",
    "planned_distribution",
]


def smooth_step_func(padded: np.ndarray, out: np.ndarray, widths) -> None:
    """One 4-nearest-neighbour smoothing update on a halo-padded block."""
    w0, w1 = widths
    n0 = out.shape[0]
    n1 = out.shape[1]
    c0, c1 = w0, w1
    north = padded[c0 - 1 : c0 - 1 + n0, c1 : c1 + n1]
    south = padded[c0 + 1 : c0 + 1 + n0, c1 : c1 + n1]
    west = padded[c0 : c0 + n0, c1 - 1 : c1 - 1 + n1]
    east = padded[c0 : c0 + n0, c1 + 1 : c1 + 1 + n1]
    out[...] = 0.25 * (north + south + west + east)


@dataclass
class SmoothingResult:
    distribution: str
    n: int
    nprocs: int
    steps: int
    messages: int
    bytes: int
    time: float
    #: messages per processor per step, the paper's headline quantity
    msgs_per_proc_step: float
    solution: np.ndarray | None = None


def smoothing_reference(grid: np.ndarray, steps: int) -> np.ndarray:
    """Sequential oracle with zero (Dirichlet) boundary."""
    v = np.array(grid, dtype=np.float64, copy=True)
    for _ in range(steps):
        p = np.pad(v, 1)
        v = 0.25 * (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:])
    return v


def execute_smoothing(
    n: int,
    steps: int,
    distribution: str,
    nprocs: int,
    cost_model: CostModel,
    grid: np.ndarray | None = None,
    *,
    seed: int = DEFAULT_SEED,
    machine: Machine | None = None,
) -> SmoothingResult:
    """Run ``steps`` smoothing sweeps of an N x N grid.

    ``distribution`` is ``"columns"`` (``(:, BLOCK)`` on a 1-D
    arrangement of all ``nprocs`` processors) or ``"blocks2d"``
    (``(BLOCK, BLOCK)`` on a sqrt(p) x sqrt(p) grid; ``nprocs`` must be
    a perfect square, matching the paper's p^2 processor array).

    An explicit ``machine`` (shape and cost model must match the
    requested distribution) lets callers keep a handle on the machine
    that runs the sweeps — to install an event recorder before the
    run, or to attach a backend: on the multiprocess backend every
    halo exchange and stencil update executes in per-processor worker
    processes over the message-passing transport, bitwise-identical
    to the serial reference.
    """
    if distribution == "columns":
        expected_shape: tuple[int, ...] = (nprocs,)
        dtype = dist_type(":", "BLOCK")
    elif distribution == "blocks2d":
        side = int(round(nprocs**0.5))
        if side * side != nprocs:
            raise ValueError(
                f"blocks2d needs a square processor count, got {nprocs}"
            )
        expected_shape = (side, side)
        dtype = dist_type("BLOCK", "BLOCK")
    else:
        raise ValueError("distribution must be 'columns' or 'blocks2d'")
    if machine is None:
        machine = Machine(expected_shape, cost_model=cost_model)
    elif machine.processors.shape != expected_shape:
        raise ValueError(
            f"machine shape {machine.processors.shape} does not match "
            f"the {distribution!r} distribution (needs {expected_shape})"
        )
    elif machine.cost_model != cost_model:
        raise ValueError(
            f"machine cost model {machine.cost_model.name!r} does not "
            f"match the requested {cost_model.name!r}"
        )

    if grid is None:
        grid = np.random.default_rng(seed).standard_normal((n, n))
    grid = np.asarray(grid, dtype=np.float64)
    if grid.shape != (n, n):
        raise ValueError(f"grid shape {grid.shape} != ({n}, {n})")

    engine = Engine(machine)
    u = engine.declare("U", (n, n), dist=dtype)
    u.from_global(grid)
    kernel = StencilKernel(u, (1, 1), smooth_step_func)
    for _ in range(steps):
        kernel.step()
    stats = machine.stats()
    return SmoothingResult(
        distribution=distribution,
        n=n,
        nprocs=nprocs,
        steps=steps,
        messages=stats.messages,
        bytes=stats.bytes,
        time=machine.time,
        msgs_per_proc_step=stats.messages / (nprocs * steps),
        solution=u.to_global(),
    )


def predicted_step_cost(
    n: int, nprocs: int, distribution: str, cost_model: CostModel, itemsize: int = 8
) -> float:
    """The paper's closed-form per-step communication cost per processor.

    columns:  2 messages of N elements;
    blocks2d: 4 messages of N/p elements (p = sqrt(nprocs)).
    Edge processors send fewer — the model prices the interior worst
    case, which is what governs the synchronized step time.
    """
    if distribution == "columns":
        return 2 * cost_model.message_time(n * itemsize)
    if distribution == "blocks2d":
        side = int(round(nprocs**0.5))
        if side * side != nprocs:
            raise ValueError("blocks2d needs a square processor count")
        return 4 * cost_model.message_time(-(-n // side) * itemsize)
    raise ValueError("distribution must be 'columns' or 'blocks2d'")


def best_distribution(n: int, nprocs: int, cost_model: CostModel, itemsize: int = 8) -> str:
    """Pick the cheaper distribution from the closed-form model.

    This is the decision Vienna Fortran lets the user take at run time
    ("if the code has been written such that the size of the grid is an
    input parameter, then the user can use the dynamic distribution
    facilities ... to set the distribution of the grid", §4): large
    N/p favours 2-D blocks (less volume), small N/p favours columns
    (fewer message startups).
    """
    col = predicted_step_cost(n, nprocs, "columns", cost_model, itemsize)
    try:
        blk = predicted_step_cost(n, nprocs, "blocks2d", cost_model, itemsize)
    except ValueError:
        return "columns"
    return "columns" if col <= blk else "blocks2d"


def planned_distribution(
    n: int, nprocs: int, cost_model: CostModel, steps: int = 50
) -> str:
    """The same choice, made by the automatic distribution planner.

    Instead of the two-way closed form, the planner searches the full
    candidate lattice (1-D strips, every 2-D grid factorization,
    cyclics) against the §3.1 communication estimates.  Returns
    ``"columns"`` for a 1-D block layout (rows and columns are
    symmetric on an N x N grid), ``"blocks2d"`` for a square 2-D block
    layout, or the layout's ``repr`` for anything else.
    """
    from ..core.dimdist import Block
    from ..planner import plan_workload, smoothing_workload

    workload = smoothing_workload(n, nprocs, steps=steps, cost_model=cost_model)
    choice = plan_workload(workload).steps[0].dist
    blockish = all(
        isinstance(d, Block) for d in choice.dtype.dims if d.consumes_proc_dim
    )
    k = len(choice.dtype.distributed_dims)
    if blockish and k == 1:
        return "columns"
    side = int(round(nprocs**0.5))
    if blockish and k == 2 and choice.target.shape == (side, side):
        return "blocks2d"
    return repr(choice.dtype)
