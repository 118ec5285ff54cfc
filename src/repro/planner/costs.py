"""The planner's cost engine — planner stage 3.

Prices the two kinds of modeled time a redistribution schedule trades
off:

- **phase cost** — what one phase costs under one candidate layout:
  per-reference communication from the compiler's §3.1 estimates
  (:func:`~repro.compiler.comm_analysis.estimate_ref`, converted to
  per-processor time through the machine's alpha/beta model), plus
  balanced compute, plus optional layout-*dependent* compute from an
  :class:`~repro.planner.phases.ArrayLoad` (the bottleneck processor's
  share — this is what makes imbalanced BLOCK layouts expensive in the
  PIC workload);
- **transition cost** — what moving an array between two layouts
  costs: the vectorized transfer matrix of the DISTRIBUTE
  implementation (shared, via the machine's
  :class:`~repro.backend.plan.PlanCache`, with the engine that
  will later execute the schedule), priced at the *bottleneck
  processor* — the maximum per-rank (messages, bytes) load, matching
  the network's serializing-endpoint semantics.

Both are memoized: the schedule search evaluates the same (phase,
layout) and (layout, layout) pairs many times.
"""

from __future__ import annotations

import numpy as np

from ..compiler.comm_analysis import estimate_ref
from ..core.distribution import Distribution
from ..core.query import TypePattern
from ..machine.machine import Machine
from ..obs import metrics as _obs
from .phases import ArrayLoad, Phase

__all__ = ["CostEngine", "SimulatedCostEngine"]

_MEMO_LOOKUPS = _obs.counter(
    "repro_planner_memo_lookups_total",
    "Cost-engine memo lookups, by memo table and outcome.",
    ("memo", "result"),
)


class CostEngine:
    """Memoized (phase, layout) and (layout, layout) pricing.

    Parameters
    ----------
    machine:
        Supplies the cost model, the processor count and the plan
        store (``machine.plans``) the transfer matrices are read
        through — so an :class:`~repro.runtime.engine.Engine` on the
        same machine executes the plans this engine priced.
    itemsize:
        Bytes per array element (default: float64).
    """

    def __init__(self, machine: Machine, itemsize: int = 8):
        self.machine = machine
        self.cost_model = machine.cost_model
        self.itemsize = int(itemsize)
        self._phase_memo: dict[tuple, float] = {}
        self._trans_memo: dict[tuple, float] = {}
        self._pattern_memo: dict[Distribution, TypePattern] = {}

    # -- phase pricing ---------------------------------------------------
    def phase_cost(self, phase: Phase, array: str, dist: Distribution) -> float:
        """Modeled time of ``phase`` (all repeats) for ``array`` under
        ``dist``; references to other arrays are not charged here."""
        key = (phase, array, dist)
        cached = self._phase_memo.get(key)
        if cached is not None:
            _MEMO_LOOKUPS.inc(memo="phase", result="hit")
            return cached
        _MEMO_LOOKUPS.inc(memo="phase", result="miss")
        comm, comp = self.comm_compute_split(phase, array, dist)
        total = (comm + comp) * phase.repeat
        self._phase_memo[key] = total
        return total

    def ref_cost(self, ref, dist: Distribution) -> float:
        """Per-execution communication time of one reference under
        ``dist`` — the §3.1 estimate averaged per processor."""
        pattern = self._pattern_memo.get(dist)
        if pattern is None:
            pattern = TypePattern(dist.dtype.dims)
            self._pattern_memo[dist] = pattern
        est = estimate_ref(ref, pattern, dist.shape, dist.proc_shape)
        if est.messages == 0 and est.volume == 0:
            return 0.0
        nprocs = max(1, dist.nprocs)
        return self.cost_model.transfer_time(
            est.messages / nprocs, est.volume * self.itemsize / nprocs
        )

    def load_cost(self, load: ArrayLoad, dist: Distribution) -> float:
        """Bottleneck compute time of a per-index load under ``dist``.

        The load's weights are assigned to owners along ``load.dim``;
        work within one slot is assumed evenly divisible across the
        processors that split the *other* dimensions.
        """
        d = load.dim
        dd = dist.dtype.dims[d]
        n = dist.shape[d]
        weights = np.asarray(load.weights, dtype=float)
        if len(weights) != n:
            raise ValueError(
                f"load has {len(weights)} weights, dimension extent is {n}"
            )
        if not dd.exclusive:
            # replicated: each replica does the full dim-work (divided
            # only by the processors splitting the other dimensions)
            # and nothing crosses an owner boundary
            p = dist.slots_along(d)
            other = max(1, dist.nprocs // max(1, p))
            bottleneck = float(weights.sum()) / other
            return self.cost_model.compute_time(
                bottleneck * load.flops_per_unit
            )
        p = dist.slots_along(d)
        owners = dd.owners_vec(n, p)
        per_slot = np.bincount(owners, weights=weights, minlength=p)
        other = max(1, dist.nprocs // max(1, p))
        bottleneck = float(per_slot.max()) / other
        time = self.cost_model.compute_time(bottleneck * load.flops_per_unit)
        if load.boundary_bytes_per_unit and n > 1:
            # owner-boundary traffic: weight units in indices adjacent
            # to a differently-owned neighbour pay the per-unit bytes;
            # messages aggregate per adjacent owner pair
            cut = owners[:-1] != owners[1:]
            edge = np.zeros(n, dtype=bool)
            edge[:-1] |= cut
            edge[1:] |= cut
            cross = float(weights[edge].sum())
            if cross > 0:
                pairs = {
                    (int(a), int(b))
                    for a, b in zip(owners[:-1][cut], owners[1:][cut])
                }
                msgs = 2 * len(pairs)
                nprocs = max(1, dist.nprocs)
                time += self.cost_model.transfer_time(
                    msgs / nprocs,
                    cross * load.boundary_bytes_per_unit / nprocs,
                )
        return time

    # -- transition pricing ----------------------------------------------
    def transition_cost(self, old: Distribution, new: Distribution) -> float:
        """Modeled time of ``DISTRIBUTE``-ing from ``old`` to ``new``:
        bottleneck-processor time of the aggregated all-to-all."""
        if old == new:
            return 0.0
        key = (old, new)
        cached = self._trans_memo.get(key)
        if cached is not None:
            _MEMO_LOOKUPS.inc(memo="transition", result="hit")
            return cached
        _MEMO_LOOKUPS.inc(memo="transition", result="miss")
        nprocs = self.machine.nprocs
        T = self.machine.plans.transfer_matrix(old, new, nprocs)
        sent_msgs = (T > 0).sum(axis=1)
        recv_msgs = (T > 0).sum(axis=0)
        sent_bytes = T.sum(axis=1) * self.itemsize
        recv_bytes = T.sum(axis=0) * self.itemsize
        time = max(
            self.cost_model.transfer_time(
                int(sent_msgs[r] + recv_msgs[r]),
                int(sent_bytes[r] + recv_bytes[r]),
            )
            for r in range(nprocs)
        )
        self._trans_memo[key] = time
        return time

    def comm_compute_split(
        self, phase: Phase, array: str, dist: Distribution
    ) -> tuple[float, float]:
        """Per-execution (communication, computation) times of one
        phase under ``dist`` — the decomposition the overlap-aware
        engine prices with split-phase semantics."""
        comm = 0.0
        for ref in phase.refs_to(array):
            comm += self.ref_cost(ref, dist)
        comp = 0.0
        if phase.load is not None and phase.load.array == array:
            comp += self.load_cost(phase.load, dist)
        if phase.work:
            comp += self.cost_model.compute_time(
                phase.work / self.machine.nprocs
            )
        return comm, comp

    # -- whole-sequence helpers -------------------------------------------
    def static_cost(
        self,
        phases,
        array: str,
        dist: Distribution,
        initial: Distribution | None = None,
    ) -> float:
        """Total cost of running every phase under the single layout
        ``dist`` (one up-front transition if ``initial`` differs)."""
        total = 0.0
        if initial is not None:
            total += self.transition_cost(initial, dist)
        for ph in phases:
            total += self.phase_cost(ph, array, dist)
        return total


class SimulatedCostEngine(CostEngine):
    """Timeline-aware pricing (the planner's ``cost_mode="simulated"``).

    The base engine charges every phase as communication *plus*
    computation and every transition as the bottleneck processor's
    serialized message sum — the aggregate (blocking) accounting.
    This engine prices against the discrete-event simulator's
    split-phase semantics instead:

    - **phases**: communication posted split-phase hides behind the
      phase's computation, so the per-execution time is
      ``max(comm, compute)`` rather than their sum — a layout whose
      traffic fits under its compute becomes as good as a
      communication-free one, which is exactly the freedom a schedule
      search needs to exploit overlap;
    - **transitions**: the DISTRIBUTE all-to-all is replayed through
      :func:`repro.sim.simulate` with ``overlap=True`` — message posts
      cost ``alpha`` per endpoint and the transfers pipeline in the
      background per link — so a transition costs its simulated
      split-phase makespan, not the blocking endpoint-serialized sum.

    With ``overlap=False`` both overrides degrade to blocking
    semantics: phases price as comm + compute and transitions as the
    blocking replay of the same exchange (equal, up to float
    association, to the base engine's closed form — asserted by the
    planner tests).

    Because this pricing runs inside the schedule search's inner loop,
    transitions are replayed through the vectorized array-backed
    replayer (:mod:`repro.sim.replay`) rather than the per-event loop,
    and memoized twice: per ``(old, new)`` layout pair, and — in the
    *trace memo* — per transfer-matrix content, so two transitions
    whose all-to-alls are identical (recurring phase pairs in a long
    schedule, mirrored workloads sharing a plan cache) simulate once.
    ``fast_replay=False`` forces the event-loop reference path (the
    bitwise oracle the property tests and the perf harness compare
    against).
    """

    def __init__(
        self,
        machine: Machine,
        itemsize: int = 8,
        overlap: bool = True,
        fast_replay: bool = True,
    ):
        super().__init__(machine, itemsize=itemsize)
        self.overlap = bool(overlap)
        self.fast_replay = bool(fast_replay)
        #: transfer-trace makespans keyed by (nprocs, T content): the
        #: per-(phase, layout-tuple) memo that stops the schedule
        #: search from re-simulating identical all-to-alls
        self._trace_memo: dict[tuple, float] = {}

    def phase_cost(self, phase: Phase, array: str, dist: Distribution) -> float:
        key = (phase, array, dist)
        cached = self._phase_memo.get(key)
        if cached is not None:
            _MEMO_LOOKUPS.inc(memo="phase", result="hit")
            return cached
        _MEMO_LOOKUPS.inc(memo="phase", result="miss")
        comm, comp = self.comm_compute_split(phase, array, dist)
        per_exec = max(comm, comp) if self.overlap else comm + comp
        total = per_exec * phase.repeat
        self._phase_memo[key] = total
        return total

    def transition_cost(self, old: Distribution, new: Distribution) -> float:
        if old == new:
            return 0.0
        key = (old, new)
        cached = self._trans_memo.get(key)
        if cached is not None:
            _MEMO_LOOKUPS.inc(memo="transition", result="hit")
            return cached
        _MEMO_LOOKUPS.inc(memo="transition", result="miss")
        nprocs = self.machine.nprocs
        T = self.machine.plans.transfer_matrix(old, new, nprocs)
        tkey = (nprocs, T.tobytes())
        time = self._trace_memo.get(tkey)
        if time is None:
            _MEMO_LOOKUPS.inc(memo="trace", result="miss")
            time = self._simulate_transfer(T, nprocs)
            self._trace_memo[tkey] = time
        else:
            _MEMO_LOOKUPS.inc(memo="trace", result="hit")
        self._trans_memo[key] = time
        return time

    def _simulate_transfer(self, T: np.ndarray, nprocs: int) -> float:
        """Makespan of one DISTRIBUTE all-to-all under this engine's
        semantics (split-phase or blocking)."""
        s, d = np.nonzero(T)
        nbytes = T[s, d] * self.itemsize
        if self.fast_replay:
            from ..sim.events import EventArrays
            from ..sim.replay import replay_blocking, replay_split_exchange

            if self.overlap:
                # every (s, d) pair occurs once in a transfer matrix,
                # so the single-phase fast path always applies
                return replay_split_exchange(
                    s.astype(np.int64), d.astype(np.int64), nbytes,
                    self.cost_model, nprocs,
                )
            arrays = EventArrays.exchange(s, d, nbytes)
            return replay_blocking(arrays, self.cost_model, nprocs).makespan
        # reference path: materialize the event log and replay it
        # through the per-event simulator (the bitwise oracle)
        from ..sim.events import EventLog
        from ..sim.simulate import simulate

        log = EventLog()
        phase = log.begin_phase("redistribute:plan")
        for q, r, nb in zip(s, d, nbytes):
            log.message(
                int(q), int(r), int(nb), "redistribute:plan", phase=phase
            )
        log.barrier()
        timeline = simulate(log, self.cost_model, nprocs, overlap=self.overlap)
        return timeline.makespan
