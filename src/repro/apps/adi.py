"""ADI — Alternating Direction Implicit iteration (paper Figure 1, §4).

"In terms of data structure access, one step of the algorithm can be
described as follows: an operation (a tridiagonal solve here) is
performed independently on each x-line of the array and the same
operation is then performed, again independently, on each y-line."

The Vienna Fortran code of Figure 1 declares ``V`` as ``DYNAMIC`` with
initial distribution ``(:, BLOCK)``: the x-sweep (over columns) is
communication-free, then ``DISTRIBUTE V :: (BLOCK, :)`` remaps the
array so the y-sweep is also communication-free — "all the
communication is confined to the redistribution operation".

:func:`execute_adi` reproduces the code under five strategies:

- ``"dynamic"``      — Figure 1: redistribute between the sweeps (and
  back at the top of each outer iteration);
- ``"static_cols"``  — keep ``(:, BLOCK)``: x-sweeps local, y-sweeps
  pay per-line gather/scatter communication;
- ``"static_rows"``  — keep ``(BLOCK, :)``: the converse;
- ``"two_arrays"``   — the §4 alternative "declare two or more arrays
  with different static distribution and use array assignments":
  same traffic as redistribution, but double the storage ("this
  approach, clearly, wastes storage space");
- ``"planned"``      — the automatic distribution planner
  (:mod:`repro.planner`) derives the schedule from the Figure 1
  program text and the machine's cost model, then executes it; on
  machines where the flip is profitable it reproduces ``"dynamic"``
  without any hand-written DISTRIBUTE.

All strategies produce bit-identical solutions; they differ in the
message counts, volumes and modeled times recorded in
:class:`ADIResult` — the quantities the paper's argument is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..compiler.codegen import LineSweepKernel
from ..core.distribution import dist_type
from ..defaults import DEFAULT_SEED
from ..machine.machine import Machine
from ..machine.network import NetworkStats
from ..runtime.darray import DistributedArray
from ..runtime.engine import Engine
from ..runtime.redistribute import transfer_matrix
from .tridiag import thomas_const

__all__ = ["ADIResult", "PhaseStats", "execute_adi", "adi_reference"]

STRATEGIES = ("dynamic", "static_cols", "static_rows", "two_arrays", "planned")


@dataclass
class PhaseStats:
    """Traffic and time attributed to one phase, summed over iterations."""

    messages: int = 0
    bytes: int = 0
    time: float = 0.0

    def add(self, diff: NetworkStats) -> None:
        self.messages += diff.messages
        self.bytes += diff.bytes
        self.time += diff.time


@dataclass
class ADIResult:
    """Outcome of one ADI run."""

    strategy: str
    nx: int
    ny: int
    iterations: int
    nprocs: int
    x_sweep: PhaseStats = field(default_factory=PhaseStats)
    y_sweep: PhaseStats = field(default_factory=PhaseStats)
    redistribution: PhaseStats = field(default_factory=PhaseStats)
    total_time: float = 0.0
    peak_memory: int = 0
    solution: np.ndarray | None = None

    @property
    def sweep_messages(self) -> int:
        return self.x_sweep.messages + self.y_sweep.messages

    @property
    def total_messages(self) -> int:
        return self.sweep_messages + self.redistribution.messages

    def row(self) -> dict:
        """Flat record for bench tables."""
        return {
            "strategy": self.strategy,
            "nx": self.nx,
            "procs": self.nprocs,
            "iters": self.iterations,
            "msgs_sweep": self.sweep_messages,
            "msgs_redist": self.redistribution.messages,
            "bytes_total": (
                self.x_sweep.bytes + self.y_sweep.bytes + self.redistribution.bytes
            ),
            "time": self.total_time,
            "peak_mem": self.peak_memory,
        }


def adi_reference(
    grid: np.ndarray, iterations: int, a: float, b: float
) -> np.ndarray:
    """Sequential oracle: the same sweeps on a plain numpy array."""
    v = np.array(grid, dtype=np.float64, copy=True)
    for _ in range(iterations):
        for j in range(v.shape[1]):  # x-lines (columns)
            v[:, j] = thomas_const(v[:, j], a, b)
        for i in range(v.shape[0]):  # y-lines (rows)
            v[i, :] = thomas_const(v[i, :], a, b)
    return v


def _copy_between(
    src: DistributedArray, dst: DistributedArray
) -> None:
    """Array assignment between two differently distributed arrays,
    with redistribution-equivalent message accounting (the §4
    two-static-arrays alternative)."""
    machine = src.machine
    T = transfer_matrix(src.dist, dst.dist, machine.nprocs)
    machine.network.exchange(
        [
            (int(s), int(d), int(T[s, d]) * src.itemsize, "assign")
            for s, d in zip(*np.nonzero(T))
        ]
    )
    machine.network.synchronize()
    dst.from_global(src.to_global())


def execute_adi(
    machine: Machine,
    nx: int,
    ny: int,
    iterations: int = 1,
    strategy: str = "dynamic",
    a: float = -1.0,
    b: float = 4.0,
    grid: np.ndarray | None = None,
    *,
    seed: int = DEFAULT_SEED,
) -> ADIResult:
    """Run the Figure 1 ADI iteration under ``strategy``.

    The tridiagonal coefficients default to a diagonally dominant
    constant system (``b=4``, ``a=-1``); ``grid`` defaults to a seeded
    random field.  The returned solution is always identical across
    strategies (checked in tests against :func:`adi_reference`).

    Redistributions and local sweeps execute on ``machine``'s backend
    (with the multiprocess backend attached: in per-processor worker
    processes); the solution is bitwise-identical either way (the
    backend conformance suite asserts this).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if grid is None:
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((nx, ny))
    grid = np.asarray(grid, dtype=np.float64)
    if grid.shape != (nx, ny):
        raise ValueError(f"grid shape {grid.shape} != ({nx}, {ny})")

    engine = Engine(machine)
    machine.reset_network()
    result = ADIResult(strategy, nx, ny, iterations, machine.nprocs)

    by_cols = dist_type(":", "BLOCK")   # (:, BLOCK) — columns local
    by_rows = dist_type("BLOCK", ":")   # (BLOCK, :) — rows local

    # the TRIDIAG call; a partial (not a lambda) so SPMD backends can
    # ship it to worker processes
    line = partial(thomas_const, a=a, b=b)

    def snapshot() -> NetworkStats:
        return machine.stats()

    if strategy == "two_arrays":
        v1 = engine.declare("V1", (nx, ny), dist=by_cols)
        v2 = engine.declare("V2", (nx, ny), dist=by_rows)
        v1.from_global(grid)
        x_kernel = LineSweepKernel(v1, 0, line)
        y_kernel = LineSweepKernel(v2, 1, line)
        for _ in range(iterations):
            s0 = snapshot()
            x_kernel.sweep()
            result.x_sweep.add(snapshot() - s0)
            s0 = snapshot()
            _copy_between(v1, v2)
            result.redistribution.add(snapshot() - s0)
            s0 = snapshot()
            y_kernel.sweep()
            result.y_sweep.add(snapshot() - s0)
            s0 = snapshot()
            _copy_between(v2, v1)
            result.redistribution.add(snapshot() - s0)
        final = v1
    elif strategy == "planned":
        from ..compiler.ir import AccessKind
        from ..planner import CostEngine, adi_workload, plan_workload

        workload = adi_workload(nx, ny, iterations, machine=machine)
        cost_engine = CostEngine(machine)
        plan = plan_workload(workload, cost_engine=cost_engine)
        v = engine.declare("V", (nx, ny), dist=workload.initial, dynamic=True)
        v.from_global(grid)
        x_kernel = LineSweepKernel(v, 0, line)
        y_kernel = LineSweepKernel(v, 1, line)
        for step in plan.steps:
            s0 = snapshot()
            engine.ensure_dist("V", step.dist)
            result.redistribution.add(snapshot() - s0)
            swept = {
                r.dim
                for r in step.phase.refs
                if r.kind == AccessKind.ROW_SWEEP
            }
            s0 = snapshot()
            if swept == {1}:
                y_kernel.sweep()
                result.y_sweep.add(snapshot() - s0)
            else:
                x_kernel.sweep()
                result.x_sweep.add(snapshot() - s0)
        final = v
    else:
        initial = by_rows if strategy == "static_rows" else by_cols
        v = engine.declare(
            "V",
            (nx, ny),
            dist=initial,
            dynamic=(strategy == "dynamic"),
        )
        v.from_global(grid)
        x_kernel = LineSweepKernel(v, 0, line)
        y_kernel = LineSweepKernel(v, 1, line)
        for it in range(iterations):
            if strategy == "dynamic" and it > 0:
                # outer-loop case of §4: flip back for the next x-sweep
                s0 = snapshot()
                engine.distribute("V", by_cols)
                result.redistribution.add(snapshot() - s0)
            s0 = snapshot()
            x_kernel.sweep()
            result.x_sweep.add(snapshot() - s0)
            if strategy == "dynamic":
                s0 = snapshot()
                engine.distribute("V", by_rows)  # DISTRIBUTE V :: (BLOCK, :)
                result.redistribution.add(snapshot() - s0)
            s0 = snapshot()
            y_kernel.sweep()
            result.y_sweep.add(snapshot() - s0)
        final = v

    result.total_time = machine.time
    result.peak_memory = max(m.high_water for m in machine.memories)
    result.solution = final.to_global()
    return result
