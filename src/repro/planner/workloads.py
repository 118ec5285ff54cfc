"""The paper's §4 programs as planning problems.

Each factory returns a :class:`Workload`: a phase sequence, a
candidate-layout lattice, the declared initial layout, and (for
comparison) the *hand* schedule the paper's programmer would have
written.  The workload registry's ``.planning`` hooks
(:mod:`repro.api.workloads`) are the name -> factory table; through
them these drive the ``python -m repro plan`` subcommand, the E12
bench, and the planner acceptance tests:

- :func:`adi_workload` — Figure 1, built end-to-end from Vienna
  Fortran surface text carrying the ``PLAN`` annotation: the x-sweep /
  y-sweep alternation whose optimal schedule is the paper's
  ``(:, BLOCK)`` / ``(BLOCK, :)`` flip whenever the flip is cheaper
  than sweeping against the layout;
- :func:`pic_workload` — Figure 2: a particle cluster drifting across
  a cell array, expressed as per-segment :class:`ArrayLoad` weights;
  candidates include the ``B_BLOCK`` size vectors ``balance`` would
  compute, so the planner can rediscover per-segment rebalancing;
- :func:`smoothing_workload` — the §4 smoothing choice: one stencil
  phase whose best layout (column strips vs 2-D blocks) depends on
  the machine's alpha/beta ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.ir import AccessKind, ArrayRef
from ..core.dimdist import NoDist
from ..core.distribution import Distribution, dist_type
from ..core.query import ANY, TypePattern
from ..machine.cost_model import PARAGON, CostModel
from ..machine.machine import Machine
from ..machine.topology import ProcessorArray
from .candidates import enumerate_layouts
from .costs import CostEngine
from .phases import ArrayLoad, Phase, extract_phases
from .search import Plan, plan_array

__all__ = [
    "Workload",
    "adi_workload",
    "pic_workload",
    "smoothing_workload",
    "plan_workload",
    "hand_schedule_cost",
]


@dataclass
class Workload:
    """A planning problem plus its reference points."""

    name: str
    array: str
    shape: tuple[int, ...]
    machine: Machine
    phases: list[Phase]
    candidates: list[Distribution] = field(default_factory=list)
    initial: Distribution | None = None
    #: the paper's hand-annotated schedule, one layout per phase
    hand: list[Distribution] | None = None
    description: str = ""


def plan_workload(
    workload: Workload,
    cost_engine: CostEngine | None = None,
    method: str = "auto",
    cost_mode: str = "model",
) -> Plan:
    """Run the schedule search on a workload.

    ``cost_mode`` selects the pricing semantics when no explicit
    ``cost_engine`` is given: ``"model"`` (the closed-form aggregate
    :class:`CostEngine`) or ``"simulated"`` (the discrete-event
    :class:`SimulatedCostEngine` with split-phase overlap, letting the
    schedule search hide communication behind computation).
    """
    if cost_mode not in ("model", "simulated"):
        raise ValueError(
            f"cost_mode must be 'model' or 'simulated', got {cost_mode!r}"
        )
    if cost_engine is not None:
        engine = cost_engine
    elif cost_mode == "simulated":
        from .costs import SimulatedCostEngine

        engine = SimulatedCostEngine(workload.machine)
    else:
        engine = CostEngine(workload.machine)
    return plan_array(
        workload.array,
        workload.phases,
        workload.candidates,
        engine,
        initial=workload.initial,
        method=method,
    )


def hand_schedule_cost(
    workload: Workload, cost_engine: CostEngine | None = None
) -> float | None:
    """Modeled total cost of the workload's hand schedule (None if the
    workload has no hand schedule)."""
    if workload.hand is None:
        return None
    engine = cost_engine or CostEngine(workload.machine)
    total = 0.0
    prev = workload.initial
    for ph, dist in zip(workload.phases, workload.hand):
        if prev is not None:
            total += engine.transition_cost(prev, dist)
        total += engine.phase_cost(ph, workload.array, dist)
        prev = dist
    return total


# -- ADI (Figure 1) ----------------------------------------------------------

_ADI_SOURCE = """
PROGRAM ADI
REAL V(NX, NY) DYNAMIC,
&    RANGE ((:, BLOCK), (BLOCK, :), (:, CYCLIC), (CYCLIC, :)),
&    DIST (:, BLOCK)
PLAN V
DO ITER = 1, T
  DO J = 1, NY
    CALL TRIDIAG(V(:, J), NX)
  ENDDO
  DO I = 1, NX
    CALL TRIDIAG(V(I, :), NY)
  ENDDO
ENDDO
END
"""


def adi_workload(
    nx: int = 64,
    ny: int = 64,
    iterations: int = 4,
    nprocs: int = 4,
    cost_model: CostModel = PARAGON,
    machine: Machine | None = None,
) -> Workload:
    """Figure 1's ADI iteration as a planning problem.

    The phase sequence is extracted from Vienna Fortran source text
    (with the ``PLAN V`` annotation) — the full surface-to-schedule
    path.  The hand schedule alternates ``(:, BLOCK)`` (x-sweeps
    local) and ``(BLOCK, :)`` (y-sweeps local), exactly the paper's
    DISTRIBUTE placement.
    """
    from ..lang.frontend import parse_program

    if machine is None:
        machine = Machine(ProcessorArray("R", (nprocs,)), cost_model=cost_model)
    env = {"NX": nx, "NY": ny, "T": iterations}
    program = parse_program(_ADI_SOURCE, env)
    seq = extract_phases(program, max_phases=max(64, 2 * iterations))
    candidates = enumerate_layouts(
        (nx, ny), machine, range_=program.declared["V"][1]
    )
    by_cols = _find(candidates, dist_type(":", "BLOCK"))
    by_rows = _find(candidates, dist_type("BLOCK", ":"))
    hand = []
    for ph in seq.phases:
        sweep_dims = {r.dim for r in ph.refs if r.kind == AccessKind.ROW_SWEEP}
        hand.append(by_rows if sweep_dims == {1} else by_cols)
    return Workload(
        name="adi",
        array="V",
        shape=(nx, ny),
        machine=machine,
        phases=seq.phases,
        candidates=candidates,
        initial=by_cols,
        hand=hand,
        description=(
            f"ADI {nx}x{ny}, {iterations} iteration(s), {machine.nprocs} "
            f"procs, {machine.cost_model.name}"
        ),
    )


# -- PIC (Figure 2) ----------------------------------------------------------


def pic_workload(
    ncell: int = 128,
    npart: int = 4096,
    steps: int = 50,
    nprocs: int = 4,
    rebalance_every: int = 10,
    drift: float = 0.004,
    cluster_width: float = 0.08,
    flops_per_particle: float = 20.0,
    particle_bytes: int = 32,
    cost_model: CostModel = PARAGON,
    seed: int = 0,
    machine: Machine | None = None,
) -> Workload:
    """Figure 2's PIC load-balancing problem as a planning problem.

    Time is split into segments of ``rebalance_every`` steps; each
    segment is one phase whose :class:`ArrayLoad` holds the per-cell
    particle counts at the segment's midpoint (the drifting Gaussian
    cluster of the reproduction's ``initpos``).  Phase references
    model the field update (identity) and particle motion into
    neighbour cells (unit shift) — under ``CYCLIC`` nearly every move
    crosses processors, which is why the planner should prefer the
    contiguous ``B_BLOCK`` partitions offered as hints.
    """
    from ..apps.load_balance import balance_greedy
    from ..apps.pic import _cell_of, reflected_position

    if machine is None:
        machine = Machine(ProcessorArray("P", (nprocs,)), cost_model=cost_model)
    nfield = 4
    rng = np.random.default_rng(seed)
    pos0 = np.clip(
        rng.normal(0.2, cluster_width, size=npart),
        0.0,
        np.nextafter(1.0, 0.0),
    )

    def counts_at(step: float) -> np.ndarray:
        cells = _cell_of(reflected_position(pos0, drift * step), ncell)
        return np.bincount(cells, minlength=ncell)

    phases: list[Phase] = []
    hints: list[list[int]] = []
    refs = (
        ArrayRef("FIELD", AccessKind.IDENTITY),
        ArrayRef("FIELD", AccessKind.SHIFT, offsets=(1, 0)),
    )
    # fraction of a cell's particles that cross into a neighbour cell
    # per step — particles in owner-boundary cells pay reassignment
    crossing = min(1.0, abs(drift) * ncell)
    for start in range(0, steps, rebalance_every):
        length = min(rebalance_every, steps - start)
        counts = counts_at(start + length / 2.0)
        hints.append([int(s) for s in balance_greedy(counts, machine.nprocs)])
        phases.append(
            Phase(
                name=f"steps[{start}:{start + length}]",
                refs=refs,
                repeat=length,
                load=ArrayLoad(
                    "FIELD",
                    0,
                    tuple(float(c) for c in counts),
                    flops_per_unit=flops_per_particle,
                    boundary_bytes_per_unit=particle_bytes * crossing,
                ),
            )
        )

    # Figure 2 distributes the *cells* dimension; the small per-cell
    # record dimension stays on-processor (RANGE-style pruning).
    cells_only = TypePattern([ANY, NoDist()])
    candidates = enumerate_layouts(
        (ncell, nfield),
        machine,
        max_distributed_dims=1,
        genblock_hints={0: hints},
        range_=[cells_only],
    )
    initial = _find(candidates, dist_type("BLOCK", ":"))
    hand = [
        _find(candidates, dist_type(_genblock(h), ":")) for h in hints
    ]
    return Workload(
        name="pic",
        array="FIELD",
        shape=(ncell, nfield),
        machine=machine,
        phases=phases,
        candidates=candidates,
        initial=initial,
        hand=hand,
        description=(
            f"PIC {ncell} cells, {npart} particles, {steps} steps, "
            f"{machine.nprocs} procs, {machine.cost_model.name}"
        ),
    )


def _genblock(sizes):
    from ..core.dimdist import GenBlock

    return GenBlock(sizes)


# -- smoothing (§4 distribution choice) --------------------------------------


def smoothing_workload(
    n: int = 128,
    nprocs: int = 16,
    steps: int = 50,
    cost_model: CostModel = PARAGON,
    machine: Machine | None = None,
) -> Workload:
    """The §4 smoothing distribution choice as a planning problem.

    One phase of 4-nearest-neighbour shifts, repeated ``steps`` times;
    the candidate lattice spans 1-D strips and every 2-D grid
    factorization, so the planner reproduces the paper's N/p crossover
    (cf. :func:`repro.apps.smoothing.best_distribution`).
    """
    if machine is None:
        machine = Machine(ProcessorArray("P", (nprocs,)), cost_model=cost_model)
    refs = tuple(
        ArrayRef("U", AccessKind.SHIFT, offsets=off)
        for off in ((1, 0), (-1, 0), (0, 1), (0, -1))
    )
    phases = [Phase("smooth", refs, repeat=steps)]
    candidates = enumerate_layouts((n, n), machine)

    from ..apps.smoothing import best_distribution

    choice = best_distribution(n, machine.nprocs, machine.cost_model)
    if choice == "columns":
        hand_dist = _find(candidates, dist_type(":", "BLOCK"))
    else:
        side = int(round(machine.nprocs ** 0.5))
        hand_dist = _find(
            candidates, dist_type("BLOCK", "BLOCK"), grid=(side, side)
        )
    return Workload(
        name="smoothing",
        array="U",
        shape=(n, n),
        machine=machine,
        phases=phases,
        candidates=candidates,
        initial=None,
        hand=[hand_dist] if hand_dist is not None else None,
        description=(
            f"smoothing {n}x{n}, {steps} steps, {machine.nprocs} procs, "
            f"{machine.cost_model.name}"
        ),
    )


def _find(candidates, dtype, grid=None):
    for c in candidates:
        if c.dtype == dtype and (grid is None or c.target.shape == grid):
            return c
    return None
