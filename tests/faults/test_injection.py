"""Fault injection through the real backend stack.

These tests activate a :class:`FaultPlan` and drive the actual
multiprocess fleet: workers really crash (``os._exit``), really stall,
and the supervisor really tears down, respawns, restores the
op-boundary snapshot and replays — the recovered results must be
bitwise-identical to an undisturbed serial run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backend import BackendError, MultiprocessBackend, SerialBackend
from repro.core.distribution import dist_type
from repro.faults import (
    FaultPlan,
    KernelStall,
    ShmAllocFailure,
    WorkerCrash,
    deactivate,
    injected,
)
from repro.machine import Machine, ProcessorArray
from repro.runtime.engine import Engine

R = ProcessorArray("R", (4,))


@pytest.fixture(autouse=True)
def _clean_activation():
    deactivate()
    yield
    deactivate()


def _scale_by_rank(rank, local, idx):
    local *= rank + 1


def _fill_with_rank(rank, local, idx):
    local[...] = rank


def _drive(machine: Machine, backend, g: np.ndarray) -> np.ndarray:
    """declare → from_global → flip → rank-dependent kernel → flip back.

    Op sequence on the multiprocess backend: noop health check (1),
    redistribute (2), kernel (3), redistribute (4).
    """
    e = Engine(machine)
    v = e.declare("V", (16, 8), dist=dist_type(":", "BLOCK"), dynamic=True)
    v.from_global(g)
    e.distribute("V", dist_type("BLOCK", ":"))
    e.foreach_owned("V", _scale_by_rank)
    e.distribute("V", dist_type(":", "BLOCK"))
    return v.to_global().copy()


def _serial_reference(g: np.ndarray) -> np.ndarray:
    m = Machine(R)
    be = SerialBackend()
    be.attach(m)
    try:
        return _drive(m, be, g)
    finally:
        be.close()


class TestWorkerCrashRecovery:
    def test_crash_mid_kernel_restarts_and_replays(self):
        g = np.random.default_rng(5).standard_normal((16, 8))
        expected = _serial_reference(g)
        with injected(FaultPlan([WorkerCrash(rank=1, at_op=3)])):
            be = MultiprocessBackend(timeout=30.0)
            try:
                m = Machine(R)
                be.attach(m)
                out = _drive(m, be, g)
            finally:
                be.close()
        assert be.supervisor.restarts == 1
        assert np.array_equal(out, expected)

    def test_crash_mid_replayed_redistribute_rehydrates_plan(self):
        """The second A→B flip is a plan-cache hit — a crash right
        there replays the op on a fresh fleet that has seen no plan:
        every command carries its rank's share."""
        g = np.random.default_rng(6).standard_normal((16, 8))
        # ops: bind 1, flip 2, flip 3, flip 4 (cached plan) ← crash
        with injected(FaultPlan([WorkerCrash(rank=2, at_op=4)])):
            be = MultiprocessBackend(timeout=30.0)
            try:
                m = Machine(R)
                be.attach(m)
                e = Engine(m)
                v = e.declare(
                    "V", (16, 8), dist=dist_type(":", "BLOCK"), dynamic=True
                )
                v.from_global(g)
                e.distribute("V", dist_type("BLOCK", ":"))
                e.distribute("V", dist_type(":", "BLOCK"))
                e.distribute("V", dist_type("BLOCK", ":"))
                assert np.array_equal(v.to_global(), g)
            finally:
                be.close()
        assert be.supervisor.restarts == 1

    def test_restart_budget_exhausts(self):
        """Crashes on every replay attempt: the supervisor spends its
        budget, then the error surfaces as a retryable BackendError
        (the degradation tier's cue to go serial)."""
        # seq numbering: kernel dispatch 2 → crash; respawn noop 3,
        # replay 4 → crash; respawn noop 5, replay 6 → crash
        plan = FaultPlan([
            WorkerCrash(rank=0, at_op=2),
            WorkerCrash(rank=0, at_op=4),
            WorkerCrash(rank=0, at_op=6),
        ])
        with injected(plan):
            be = MultiprocessBackend(timeout=30.0, max_restarts=2)
            try:
                m = Machine(R)
                be.attach(m)
                e = Engine(m)
                e.declare("V", (8,), dist=dist_type("BLOCK"))
                with pytest.raises(BackendError) as info:
                    be.run_kernel(e.arrays["V"], _fill_with_rank)
                assert info.value.retryable
                assert 0 in info.value.dead_ranks
            finally:
                be.close()
        assert be.supervisor.restarts == 2

    def test_deterministic_error_is_not_retried(self):
        be = MultiprocessBackend(timeout=30.0)
        try:
            m = Machine(R)
            be.attach(m)
            e = Engine(m)
            e.declare("V", (8,), dist=dist_type("BLOCK"))
            with pytest.raises(BackendError, match="_explode"):
                be.run_kernel(e.arrays["V"], _explode)
            assert be.supervisor.restarts == 0  # no pointless restarts
        finally:
            be.close()


class TestHangDetection:
    def test_stalled_worker_detected_and_replaced(self):
        """A worker sleeping far past ``hang_timeout`` is judged hung
        long before the op timeout; the fleet restarts and the replay
        (fresh seq, no stall) completes correctly."""
        import time

        g = np.random.default_rng(7).standard_normal((16, 8))
        expected = _serial_reference(g)
        with injected(FaultPlan([KernelStall(rank=0, at_op=3, seconds=20.0)])):
            be = MultiprocessBackend(timeout=60.0, hang_timeout=1.0)
            try:
                m = Machine(R)
                be.attach(m)
                t0 = time.perf_counter()
                out = _drive(m, be, g)
                elapsed = time.perf_counter() - t0
            finally:
                be.close()
        assert be.supervisor.restarts == 1
        assert elapsed < 15.0  # detected at ~hang_timeout, not 20 s
        assert np.array_equal(out, expected)

    def test_hang_detection_off_by_default(self):
        be = MultiprocessBackend(timeout=30.0)
        assert be.effective_hang_timeout == be.timeout
        be2 = MultiprocessBackend(timeout=30.0, hang_timeout=2.0)
        assert be2.effective_hang_timeout == 2.0


class TestShmAllocFailure:
    def test_injected_allocation_failure_raises_memory_error(self):
        with injected(FaultPlan([ShmAllocFailure(at_alloc=1)])):
            be = MultiprocessBackend(timeout=30.0)
            try:
                m = Machine(R)
                be.attach(m)
                e = Engine(m)
                with pytest.raises(
                    MemoryError, match="injected shm allocation failure"
                ):
                    e.declare("V", (8,), dist=dist_type("BLOCK"))
            finally:
                be.close()

    def test_later_allocations_unaffected(self):
        with injected(FaultPlan([ShmAllocFailure(at_alloc=999)])):
            be = MultiprocessBackend(timeout=30.0)
            try:
                m = Machine(R)
                be.attach(m)
                e = Engine(m)
                e.declare("V", (8,), dist=dist_type("BLOCK"))
                be.run_kernel(e.arrays["V"], _fill_with_rank)
                assert np.array_equal(
                    e.arrays["V"].to_global(),
                    np.repeat(np.arange(4, dtype=float), 2),
                )
            finally:
                be.close()


class TestGracefulDegradation:
    def test_session_degrades_to_serial_and_is_poisoned(self):
        """Tier 2: an unrecoverable backend fault inside a stage falls
        back to the serial backend; the result is bitwise-identical to
        a serial-from-the-start run and the session is poisoned."""
        with repro.session(nprocs=4, backend="serial", seed=3) as sess:
            reference = sess.workload("adi", size=12, iterations=1).run()
        with injected(FaultPlan([ShmAllocFailure(at_alloc=1)])):
            with repro.session(
                nprocs=4, backend="multiprocess", seed=3
            ) as sess:
                result = sess.workload("adi", size=12, iterations=1).run()
                assert sess.poisoned
        assert result.solution_digest() == reference.solution_digest()
        assert result.backend == "serial"  # what ran, not what was asked for

    def test_degrade_false_raises(self):
        with injected(FaultPlan([ShmAllocFailure(at_alloc=1)])):
            with repro.session(
                nprocs=4, backend="multiprocess", seed=3, degrade=False
            ) as sess:
                with pytest.raises(MemoryError):
                    sess.workload("adi", size=12, iterations=1).run()
                assert not sess.poisoned


class TestRecoveryBitwiseProperty:
    @given(
        data_seed=st.integers(0, 10**6),
        crash_rank=st.integers(0, 3),
        at_op=st.integers(2, 4),
    )
    @settings(max_examples=5, deadline=None)
    def test_recovered_run_matches_serial(self, data_seed, crash_rank, at_op):
        """The acceptance property: crash any rank at any op of the
        drive sequence — the recovered multiprocess result equals the
        serial reference bit for bit."""
        g = np.random.default_rng(data_seed).standard_normal((16, 8))
        expected = _serial_reference(g)
        with injected(FaultPlan([WorkerCrash(rank=crash_rank, at_op=at_op)])):
            be = MultiprocessBackend(timeout=30.0)
            try:
                m = Machine(R)
                be.attach(m)
                out = _drive(m, be, g)
            finally:
                be.close()
        assert be.supervisor.restarts == 1
        assert out.tobytes() == expected.tobytes()


def _explode(rank, local, idx):
    raise RuntimeError(f"_explode on rank {rank}")
