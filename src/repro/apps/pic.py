"""Particle-in-cell simulation — paper Figure 2, §4.

"Consider a simulation code based on the particle-in-cell method ...
The computation at each time step can be divided into two phases.  In
the first phase, a global force field is computed using the current
position of particles.  In the second phase, given the new global
force field, new positions of the particles are computed. ...  The
main goal here is to distribute the cells across the processors such
that the work per processor is approximately equal."

The reproduction keeps Figure 2's structure:

- cells are the first dimension of a dynamic ``FIELD`` array,
  initially ``(BLOCK, :)``;
- ``initpos`` places particles (a configurable clustered profile so
  that drift creates the load imbalance the paper worries about);
- ``balance`` computes contiguous block sizes from per-cell particle
  counts; ``DISTRIBUTE FIELD :: B_BLOCK(BOUNDS)`` applies them;
- each step runs ``update_field`` (owner-computes work proportional
  to local particle count), ``update_part`` (drift + diffusion;
  particles crossing to a cell on another processor cost aggregated
  reassignment messages via the inspector/executor pattern);
- every ``rebalance_every``-th step, if the imbalance exceeds a
  threshold, ``balance`` + redistribute (Figure 2's
  ``IF (MOD(k,10).EQ.0 .AND. rebalance())`` test).

The ``"planned"`` strategy replaces the fixed imbalance threshold with
the distribution planner's cost engine (:mod:`repro.planner.costs`):
at each checkpoint it redistributes exactly when the modeled compute
time saved over the next ``rebalance_every`` steps exceeds the modeled
cost of the transfer — the cost-driven version of ``rebalance()``.

:func:`execute_pic` records, per step, the load imbalance, the
messages spent on particle motion, field work time, and redistribution
cost — the trajectories experiment E3 plots against the static-BLOCK
baseline.

:class:`PICDrift` is the same loop as an *adaptive model*: the physics
of one time step (shared with :func:`execute_pic`) with every layout
decision left to :class:`~repro.adapt.AdaptiveController`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..core.dimdist import Block, GenBlock, NoDist
from ..core.distribution import DistributionType
from ..defaults import DEFAULT_SEED
from ..machine.machine import Machine
from ..runtime.engine import Engine
from .load_balance import balance_greedy

__all__ = [
    "PICConfig",
    "StepRecord",
    "PICResult",
    "PICDrift",
    "execute_pic",
    "initpos",
    "reflected_position",
]


@dataclass
class PICConfig:
    """Parameters of the PIC run (paper names where they exist)."""

    ncell: int = 128            # NCELL
    npart: int = 4096           # total particles (paper bounds per cell)
    max_time: int = 50          # MAX_TIME
    nprocs: int = 4
    rebalance_every: int = 10   # "every 10th iteration"
    imbalance_threshold: float = 1.25  # rebalance() trigger
    drift: float = 0.004        # mean particle velocity (domain units/step)
    diffusion: float = 0.002    # random-walk scale
    cluster_width: float = 0.08  # initpos cluster stddev
    flops_per_particle: float = 20.0  # update_field work per particle
    particle_bytes: int = 32    # payload per reassigned particle
    #: "bblock" (Figure 2) | "static" baseline | "planned" (cost-driven)
    strategy: str = "bblock"
    seed: int = DEFAULT_SEED


@dataclass
class StepRecord:
    """Per-step measurements."""

    step: int
    imbalance: float       # max/mean particles per processor
    max_load: int          # particles on the busiest processor
    motion_messages: int   # particle-reassignment messages
    motion_bytes: int
    redistributed: bool
    redistribution_bytes: int
    time: float            # machine clock at end of step


@dataclass
class PICResult:
    config: PICConfig
    steps: list[StepRecord] = field(default_factory=list)
    redistributions: int = 0
    total_time: float = 0.0

    @property
    def mean_imbalance(self) -> float:
        return float(np.mean([s.imbalance for s in self.steps]))

    @property
    def max_imbalance(self) -> float:
        return float(max(s.imbalance for s in self.steps))

    @property
    def redistribution_bytes_total(self) -> int:
        return sum(s.redistribution_bytes for s in self.steps)


def initpos(config: "PICConfig | PICDrift", rng: np.random.Generator) -> np.ndarray:
    """Initial particle positions: a Gaussian cluster near x = 0.2.

    A clustered profile makes the static BLOCK distribution imbalanced
    from the start and lets drift move the hot spot across processor
    boundaries — the scenario §4 gives for needing B_BLOCK rebalancing.
    """
    pos = rng.normal(0.2, config.cluster_width, size=config.npart)
    return np.clip(pos, 0.0, np.nextafter(1.0, 0.0))


def _cell_of(pos: np.ndarray, ncell: int) -> np.ndarray:
    return np.minimum((pos * ncell).astype(np.int64), ncell - 1)


def reflected_position(start: np.ndarray, displacement: float) -> np.ndarray:
    """Closed-form position after drifting ``displacement`` from
    ``start`` with reflecting walls at 0 and 1 — the triangle wave.

    The distribution planner uses it to model the cluster's trajectory
    without simulating.  For pure drift (no diffusion) it matches
    :func:`execute_pic`'s per-step bookkeeping exactly through the first
    (top) wall bounce; past that the two diverge — ``execute_pic``'s
    bottom wall reflects position without negating velocity, so its
    particles linger at the wall, while this models ideal reflection."""
    folded = np.mod(np.asarray(start, dtype=float) + displacement, 2.0)
    pos = np.where(folded >= 1.0, 2.0 - folded, folded)
    return np.clip(pos, 0.0, np.nextafter(1.0, 0.0))


def _field_dist(sizes: list[int] | None = None) -> DistributionType:
    if sizes is None:
        return DistributionType((Block(), NoDist()))
    return DistributionType((GenBlock(sizes), NoDist()))


def execute_pic(
    machine: Machine,
    config: PICConfig,
    rng: np.random.Generator | None = None,
) -> PICResult:
    """Run the Figure 2 PIC loop; see the module docstring.

    All randomness (initial positions, diffusion) flows through the
    single ``rng`` generator — pass one explicitly to share a stream
    across runs, or leave it ``None`` to derive a fresh one from
    ``config.seed`` (the historical behaviour, bit for bit).  With the
    same generator state, two runs are deterministic regardless of the
    backend attached to ``machine`` — the property the backend
    conformance suite relies on.
    """
    if machine.nprocs != config.nprocs:
        raise ValueError(
            f"machine has {machine.nprocs} processors, config says {config.nprocs}"
        )
    if config.strategy not in ("bblock", "static", "planned"):
        raise ValueError("strategy must be 'bblock', 'static' or 'planned'")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _run_pic(machine, config, rng)


#: FIELD(NCELL, NFIELD): the second dim holds a small record per cell,
#: standing in for the paper's NPART slots
_NFIELD = 4


def _pic_step(
    machine: Machine,
    owners: np.ndarray,
    pos: np.ndarray,
    vel: np.ndarray,
    rng: np.random.Generator,
    cfg: "PICConfig | PICDrift",
) -> tuple[np.ndarray, np.ndarray]:
    """One Figure 2 time step under the cell -> rank map ``owners``:
    owner-computes field update, particle motion, reassignment of the
    particles that crossed a processor boundary.

    Returns the new positions (``vel`` is updated in place) and each
    rank's busy time — its clock advance across the compute call,
    taken *before* the barrier equalizes the clocks, which is the load
    signal the adaptive controller monitors.
    """
    ncell, nprocs, network = cfg.ncell, machine.nprocs, machine.network
    old_cells = _cell_of(pos, ncell)

    # C Compute new field: owner-computes, work ~ local particles
    loads = np.bincount(
        owners, weights=np.bincount(old_cells, minlength=ncell),
        minlength=nprocs,
    )
    busy = np.zeros(nprocs)
    for rank in range(nprocs):
        c0 = network.clocks[rank]
        network.compute(
            rank, cfg.flops_per_particle * float(loads[rank]),
            tag="pic:update_field",
        )
        busy[rank] = network.clocks[rank] - c0
    network.synchronize()

    # C Compute new particle positions and reassign them
    pos = pos + vel + rng.normal(0.0, cfg.diffusion, size=len(pos))
    # reflecting walls keep the cluster inside the domain
    pos = np.abs(pos)
    over = pos >= 1.0
    pos[over] = 2.0 - pos[over]
    pos = np.clip(pos, 0.0, np.nextafter(1.0, 0.0))
    vel[over] = -vel[over]
    new_cells = _cell_of(pos, ncell)

    moved = old_cells != new_cells
    src = owners[old_cells[moved]]
    dst = owners[new_cells[moved]]
    cross = src != dst
    if cross.any():
        pair = src[cross] * nprocs + dst[cross]
        cnt = np.bincount(pair, minlength=nprocs * nprocs).reshape(
            nprocs, nprocs
        )
        network.exchange(
            [
                (int(s), int(d), int(cnt[s, d]) * cfg.particle_bytes,
                 "pic:reassign")
                for s, d in zip(*np.nonzero(cnt))
            ]
        )
        network.synchronize()
    return pos, busy


def _run_pic(
    machine: Machine, config: PICConfig, rng: np.random.Generator
) -> PICResult:
    engine = Engine(machine)
    machine.reset_network()

    ncell, nprocs = config.ncell, config.nprocs
    fld = engine.declare(
        "FIELD",
        (ncell, _NFIELD),
        dist=_field_dist(),
        dynamic=True,
    )

    # C Compute initial position of particles
    pos = initpos(config, rng)
    vel = np.full(config.npart, config.drift)

    def counts() -> np.ndarray:
        return np.bincount(_cell_of(pos, ncell), minlength=ncell)

    def cell_owner_map() -> np.ndarray:
        """Owner rank of each cell under FIELD's current distribution."""
        return np.asarray(fld.dist.rank_map())[:, 0]

    # C Compute initial partition of cells + DISTRIBUTE FIELD :: B_BLOCK(BOUNDS)
    if config.strategy in ("bblock", "planned"):
        bounds = balance_greedy(counts(), nprocs)
        engine.distribute("FIELD", _field_dist(bounds))

    cost_engine = None
    if config.strategy == "planned":
        from ..planner.costs import CostEngine

        cost_engine = CostEngine(machine, itemsize=fld.itemsize)

    result = PICResult(config)
    for k in range(1, config.max_time + 1):
        owners = cell_owner_map()
        m0 = machine.stats()
        pos, _ = _pic_step(machine, owners, pos, vel, rng, config)
        m1 = machine.stats()

        # C Rebalance every rebalance_every-th iteration if necessary
        redistributed = False
        redist_bytes = 0
        w = counts()
        loads = np.bincount(owners, weights=w, minlength=nprocs)
        imb = float(loads.max() / max(loads.mean(), 1e-12))
        worthwhile = False
        if (
            config.strategy in ("bblock", "planned")
            and k % config.rebalance_every == 0
        ):
            if config.strategy == "bblock":
                worthwhile = imb > config.imbalance_threshold
                if worthwhile:
                    bounds = balance_greedy(w, nprocs)
            else:
                bounds = balance_greedy(w, nprocs)
                # cost-driven rebalance(): redistribute iff the modeled
                # compute saving over the next window beats the move
                from ..planner.phases import ArrayLoad

                cand = _field_dist(bounds).apply(
                    (ncell, _NFIELD), machine.full_section()
                )
                load = ArrayLoad(
                    "FIELD",
                    0,
                    tuple(float(c) for c in w),
                    flops_per_unit=config.flops_per_particle,
                )
                # the saving only accrues over steps that will actually
                # run — a checkpoint near max_time has a short horizon
                horizon = min(config.rebalance_every, config.max_time - k)
                gain = (
                    cost_engine.load_cost(load, fld.dist)
                    - cost_engine.load_cost(load, cand)
                ) * horizon
                worthwhile = horizon > 0 and gain > cost_engine.transition_cost(
                    fld.dist, cand
                )
        if worthwhile:
            r0 = machine.stats()
            engine.distribute("FIELD", _field_dist(bounds))
            redist_bytes = machine.stats().bytes - r0.bytes
            redistributed = True
            result.redistributions += 1
            owners = cell_owner_map()
            loads = np.bincount(owners, weights=w, minlength=nprocs)
            imb = float(loads.max() / max(loads.mean(), 1e-12))

        result.steps.append(
            StepRecord(
                step=k,
                imbalance=imb,
                max_load=int(loads.max()),
                motion_messages=m1.messages - m0.messages,
                motion_bytes=m1.bytes - m0.bytes,
                redistributed=redistributed,
                redistribution_bytes=redist_bytes,
                time=machine.time,
            )
        )
    result.total_time = machine.time
    return result


@dataclass
class PICDrift:
    """Figure 2's loop as an adaptive model (the contract is in
    :mod:`repro.adapt.controller`): the fields are the recorded
    parameters, :meth:`step` is :func:`execute_pic`'s time step, and no
    layout is ever chosen here — that is the controller's job.

    The particle state consumes one RNG stream that nothing
    layout-dependent branches on, so the final positions — the
    solution — are bitwise-identical whatever the controller decides.
    """

    ncell: int
    npart: int
    steps: int
    window: int
    drift: float = 0.008
    diffusion: float = 0.01
    cluster_width: float = 0.06
    flops_per_particle: float = 20.0
    particle_bytes: int = 32

    probe: ClassVar[dict] = {"ncell": 32, "npart": 512, "steps": 12, "window": 4}

    @property
    def array(self) -> tuple[str, tuple[int, ...]]:
        return "FIELD", (self.ncell, _NFIELD)

    @property
    def flops_per_unit(self) -> float:
        return self.flops_per_particle

    def dist_of(self, sizes) -> DistributionType:
        return _field_dist(list(sizes))

    def begin(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.state = initpos(self, self._rng)
        self._vel = np.full(self.npart, self.drift)

    def weights(self) -> np.ndarray:
        """Particles per cell, now."""
        return np.bincount(_cell_of(self.state, self.ncell), minlength=self.ncell)

    def step(self, k: int, machine: Machine, owners: np.ndarray) -> np.ndarray:
        self.state, busy = _pic_step(
            machine, owners, self.state, self._vel, self._rng, self
        )
        return busy

    def offline_schedule(self, nprocs: int, cost_model, seed: int) -> list[list[int]]:
        """The planner's precomputed per-window block sizes.

        :func:`~repro.planner.workloads.pic_workload` forecasts the
        load from pure drift of the initial positions
        (:func:`reflected_position`); with ``rebalance_every`` set to
        the monitoring window the plan's phases line up one-to-one with
        the online windows.  Non-contiguous layouts (the planner's
        lattice can in principle pick CYCLIC) fall back to even blocks
        — the controller redistributes by contiguous sizes, the shape
        every B_BLOCK layout has.
        """
        from ..planner.costs import CostEngine
        from ..planner.workloads import pic_workload, plan_workload

        workload = pic_workload(
            ncell=self.ncell,
            npart=self.npart,
            steps=self.steps,
            nprocs=nprocs,
            rebalance_every=self.window,
            drift=self.drift,
            cluster_width=self.cluster_width,
            flops_per_particle=self.flops_per_particle,
            particle_bytes=self.particle_bytes,
            cost_model=cost_model,
            seed=seed,
        )
        plan = plan_workload(workload, cost_engine=CostEngine(workload.machine))
        even = [Block().local_count(s, self.ncell, nprocs) for s in range(nprocs)]
        return [
            list(dd.sizes) if isinstance(dd, GenBlock) else even
            for dd in (step.dist.dtype.dims[0] for step in plan.steps)
        ]
