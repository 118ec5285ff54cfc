"""Unit tests for the array-backed simulator replay (PR 4)."""

import numpy as np
import pytest

from repro.machine import IPSC860, Machine, PARAGON, ProcessorArray
from repro.sim import (
    EventArrays,
    EventKind,
    EventLog,
    record,
    replay_blocking,
    replay_split_exchange,
    simulate,
)
from repro.sim.events import KIND_CODES


class TestEventArrays:
    def test_from_events_packs_all_fields(self):
        log = EventLog()
        log.kernel(1, 250.0, "k")
        log.message(0, 2, 64, "m")
        log.barrier()
        arr = EventArrays.from_events(log.events)
        assert len(arr) == 4  # kernel + send + recv + barrier
        assert arr.kind[0] == KIND_CODES[EventKind.KERNEL]
        assert arr.kind[1] == KIND_CODES[EventKind.SEND]
        assert arr.kind[2] == KIND_CODES[EventKind.RECV]
        assert arr.kind[3] == KIND_CODES[EventKind.BARRIER]
        assert arr.rank[1] == 0 and arr.peer[1] == 2 and arr.nbytes[1] == 64
        assert arr.flops[0] == 250.0

    def test_log_to_arrays_is_cached_and_invalidated(self):
        log = EventLog()
        log.kernel(0, 1.0)
        a1 = log.to_arrays()
        assert log.to_arrays() is a1  # cached
        log.barrier()
        a2 = log.to_arrays()           # appended: rebuilt
        assert a2 is not a1 and len(a2) == 2
        log.clear()
        assert len(log.to_arrays()) == 0

    def test_exchange_constructor(self):
        s = np.array([0, 1]); d = np.array([1, 2]); nb = np.array([8, 16])
        arr = EventArrays.exchange(s, d, nb)
        assert len(arr) == 3
        assert (arr.kind[:2] == KIND_CODES[EventKind.SEND]).all()
        assert arr.kind[2] == KIND_CODES[EventKind.BARRIER]
        assert (arr.phase[:2] == 0).all()


class TestReplayBlocking:
    def test_empty_trace(self):
        r = replay_blocking(EventArrays.from_events([]), PARAGON, 3)
        assert r.clocks == [0.0, 0.0, 0.0] and r.makespan == 0.0

    def test_matches_network_on_app_trace(self):
        from repro.apps.adi import execute_adi

        machine = Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)
        log = EventLog()
        with record(machine, log):
            execute_adi(machine, 16, 16, 2, "dynamic", seed=0)
        fast = replay_blocking(log.to_arrays(), PARAGON, 4)
        assert fast.clocks == machine.network.clocks

    def test_matches_event_loop_including_barriers(self):
        machine = Machine(ProcessorArray("R", (3,)), cost_model=IPSC860)
        log = EventLog()
        with record(machine, log):
            net = machine.network
            net.compute(0, 500.0)
            net.send(0, 1, 100)
            net.exchange([(0, 1, 8), (1, 2, 16), (2, 0, 24)])
            net.synchronize()
            net.compute(2, 123.0)
            net.synchronize()
        loop = simulate(log, IPSC860, 3, overlap=False)
        fast = replay_blocking(log.to_arrays(), IPSC860, 3)
        assert fast.clocks == loop.clocks
        assert fast.barriers == loop.barriers
        assert fast.makespan == loop.makespan


class TestReplaySplitExchange:
    def test_empty_phase_costs_nothing(self):
        z = np.empty(0, dtype=np.int64)
        assert replay_split_exchange(z, z, z, PARAGON, 4) == 0.0

    def test_duplicate_links_rejected(self):
        s = np.array([0, 0]); d = np.array([1, 1]); nb = np.array([8, 8])
        with pytest.raises(ValueError, match="duplicate directed links"):
            replay_split_exchange(s, d, nb, PARAGON, 2)

    def test_matches_event_loop(self):
        T = np.array([[0, 10, 0], [5, 0, 7], [0, 3, 0]], dtype=np.int64)
        s, d = np.nonzero(T)
        nb = T[s, d]
        log = EventLog()
        phase = log.begin_phase("redistribute:x")
        for q, r, b in zip(s, d, nb):
            log.message(int(q), int(r), int(b), "redistribute:x", phase=phase)
        log.barrier()
        loop = simulate(log, IPSC860, 3, overlap=True)
        fast = replay_split_exchange(s, d, nb, IPSC860, 3)
        assert fast == loop.makespan


class TestSimulatedCostEngineFastPath:
    def _dists(self):
        from repro.core.distribution import dist_type

        R = ProcessorArray("R", (4,))
        return (
            dist_type("BLOCK", ":").apply((32, 32), R),
            dist_type(":", "BLOCK").apply((32, 32), R),
        )

    @pytest.mark.parametrize("overlap", [True, False])
    def test_fast_replay_equals_event_loop_reference(self, overlap):
        from repro.planner import SimulatedCostEngine

        old, new = self._dists()
        fast = SimulatedCostEngine(
            Machine(ProcessorArray("R", (4,)), cost_model=PARAGON),
            overlap=overlap,
        )
        ref = SimulatedCostEngine(
            Machine(ProcessorArray("R", (4,)), cost_model=PARAGON),
            overlap=overlap, fast_replay=False,
        )
        assert fast.transition_cost(old, new) == ref.transition_cost(old, new)

    def test_trace_memo_shares_identical_transfer_matrices(self):
        from repro.planner import SimulatedCostEngine

        old, new = self._dists()
        engine = SimulatedCostEngine(
            Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)
        )
        engine.transition_cost(old, new)
        assert len(engine._trace_memo) == 1
        # a structurally equal pair built fresh: pair memo misses, the
        # trace memo hits (same transfer matrix content)
        from repro.core.distribution import dist_type

        R = ProcessorArray("R", (4,))
        old2 = dist_type("BLOCK", ":").apply((32, 32), R)
        new2 = dist_type(":", "BLOCK").apply((32, 32), R)
        before = len(engine._trace_memo)
        engine.transition_cost(old2, new2)
        assert len(engine._trace_memo) == before  # no new simulation
