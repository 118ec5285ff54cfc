"""Coverage for failure paths that predate the fault registry.

ISSUE 9 satellite: the ``dead workers:`` detection branch, the
attach-after-close guard, the never-sent :meth:`Transport.recv`
timeout, and the barrier failure taxonomy (broken vs timed out) —
exercised in-process with ``queue.Queue`` + ``threading.Barrier`` so
no fleets are spawned where a thread pair will do.
"""

import queue
import threading
import time

import pytest

from repro.backend import (
    BackendError,
    MultiprocessBackend,
    Transport,
    TransportBroken,
    TransportTimeout,
)
from repro.apps.smoothing import execute_smoothing
from repro.core.distribution import dist_type
from repro.faults import (
    FaultPlan,
    TransportDelay,
    TransportDrop,
    WorkerCrash,
    deactivate,
    injected,
)
from repro.machine import Machine, ProcessorArray
from repro.machine.cost_model import PARAGON
from repro.obs import flight_recorder
from repro.runtime.engine import Engine

R = ProcessorArray("R", (4,))


@pytest.fixture(autouse=True)
def _clean_activation():
    deactivate()
    yield
    deactivate()


def _fill_with_rank(rank, local, idx):
    local[...] = rank


def _pair(timeout=5.0, faults=None, abort_board=None):
    """Two in-process transport endpoints sharing a thread barrier."""
    boxes = [queue.Queue(), queue.Queue()]
    bar = threading.Barrier(2)
    mk = lambda r: Transport(  # noqa: E731
        r, 2, boxes[r], boxes, bar, timeout,
        abort_board=abort_board, faults=faults,
    )
    return mk(0), mk(1)


class TestPointToPoint:
    def test_recv_never_sent_times_out(self):
        t0, _ = _pair(timeout=0.2)
        with pytest.raises(
            TransportTimeout, match="no message from 1 tagged 'x'"
        ):
            t0.recv(1, "x")

    def test_out_of_order_messages_are_stashed(self):
        t0, t1 = _pair()
        t1.send(0, "a", "first")
        t1.send(0, "b", "second")
        assert t0.recv(1, "b") == "second"
        assert t0.recv(1, "a") == "first"
        assert t0.received_messages == 2

    def test_injected_link_delay_slows_the_nth_message(self):
        plan = FaultPlan(
            [TransportDelay(src=1, dst=0, seconds=0.15, first=2, last=2)]
        )
        t0, t1 = _pair(faults=plan)
        start = time.perf_counter()
        t1.send(0, "t", 1)  # message 1: undelayed
        fast = time.perf_counter() - start
        start = time.perf_counter()
        t1.send(0, "t", 2)  # message 2: +0.15 s
        slow = time.perf_counter() - start
        assert fast < 0.1 and slow >= 0.15
        assert t0.recv(1, "t") == 1 and t0.recv(1, "t") == 2

    def test_injected_drop_loses_the_message(self):
        plan = FaultPlan([TransportDrop(src=1, dst=0, at_message=1)])
        t0, t1 = _pair(timeout=0.2, faults=plan)
        t1.send(0, "t", "gone")
        assert t1.dropped_messages == 1
        assert t1.sent_messages == 1  # the sender believes it went out
        with pytest.raises(TransportTimeout, match="no message from"):
            t0.recv(1, "t")


class TestBarrierTaxonomy:
    def test_peer_abort_raises_broken_with_culprit(self):
        board = [0, 0]
        t0, t1 = _pair(timeout=5.0, abort_board=board)
        t1.mark_aborted()
        t1._barrier.abort()
        with pytest.raises(TransportBroken) as info:
            t0.barrier()
        assert info.value.aborted_ranks == (1,)
        assert "aborted by rank(s) [1]" in str(info.value)

    def test_external_teardown_raises_broken_without_culprit(self):
        t0, _ = _pair(timeout=5.0, abort_board=[0, 0])
        t0._barrier.abort()  # master-side teardown: nobody stamped
        with pytest.raises(TransportBroken) as info:
            t0.barrier()
        assert info.value.aborted_ranks == ()
        assert "aborted by a peer or the master" in str(info.value)

    def test_genuine_timeout_is_not_broken(self):
        t0, _ = _pair(timeout=0.2, abort_board=[0, 0])
        with pytest.raises(TransportTimeout, match="no peer aborted") as info:
            t0.barrier()  # the peer never arrives, nobody aborts
        assert not isinstance(info.value, TransportBroken)

    def test_broken_is_a_timeout_subtype(self):
        # pre-ISSUE-9 handlers that catch TransportTimeout keep working
        assert issubclass(TransportBroken, TransportTimeout)


class TestFleetFailurePaths:
    def test_dead_worker_branch_names_the_corpse(self):
        """max_restarts=0: the detection branch surfaces directly with
        the ``dead workers:`` message and a flight-recorder note."""
        with injected(FaultPlan([WorkerCrash(rank=3, at_op=2)])):
            be = MultiprocessBackend(timeout=30.0, max_restarts=0)
            try:
                m = Machine(R)
                be.attach(m)
                e = Engine(m)
                e.declare("V", (8,), dist=dist_type("BLOCK"))
                with pytest.raises(BackendError, match="dead workers:") as info:
                    be.run_kernel(e.arrays["V"], _fill_with_rank)
            finally:
                be.close()
        assert info.value.retryable
        assert info.value.dead_ranks == (3,)
        notes = flight_recorder.notes("backend.fleet_fault")
        assert notes and notes[-1]["dead"]

    def test_lost_halo_fails_in_the_worker_before_the_master_gives_up(self):
        """A dropped halo message surfaces as the receiving worker's
        TransportTimeout, inside the master's ack deadline: the op
        fails non-retryably and the fleet is not killed."""
        with injected(FaultPlan([TransportDrop(src=0, dst=1, at_message=1)])):
            be = MultiprocessBackend(timeout=0.5)
            try:
                m = Machine((2,), cost_model=PARAGON)
                be.attach(m)
                with pytest.raises(BackendError, match="TransportTimeout") as info:
                    execute_smoothing(8, 1, "columns", 2, PARAGON, machine=m)
                assert not info.value.retryable
                assert "unacknowledged" not in str(info.value)
                procs = be.fleet.procs
                assert len(procs) == 2 and all(p.is_alive() for p in procs)
            finally:
                be.close()

    def test_run_op_after_close_raises(self):
        be = MultiprocessBackend(timeout=30.0)
        m = Machine(R)
        be.attach(m)
        e = Engine(m)
        e.declare("V", (8,), dist=dist_type("BLOCK"))
        be.close()
        with pytest.raises(
            BackendError, match="not attached / already closed"
        ):
            be.run_op(print, [{} for _ in range(max(be.nprocs, 1))])

    def test_close_is_idempotent(self):
        be = MultiprocessBackend(timeout=30.0)
        m = Machine(R)
        be.attach(m)
        be.close()
        be.close()  # second close must be a no-op, not an error
