"""CircuitBreaker: the closed → open → half-open state machine.

All tests drive an injectable fake clock — nothing here sleeps.
"""

import threading

import pytest

from repro.faults import CircuitBreaker
from repro.faults.breaker import CLOSED, HALF_OPEN, OPEN


class Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return Clock()


def make(clock, threshold=3, cooldown=10.0, on_transition=None):
    return CircuitBreaker(
        threshold, cooldown, clock=clock, on_transition=on_transition
    )


def test_closed_allows_and_counts_consecutive_failures(clock):
    b = make(clock)
    assert b.state == CLOSED
    assert b.allow() and b.allow()
    b.record_failure()
    b.record_failure()
    assert b.state == CLOSED
    # a success resets the consecutive-failure count
    b.record_success()
    b.record_failure()
    b.record_failure()
    assert b.state == CLOSED
    b.record_failure()
    assert b.state == OPEN
    assert b.trips == 1


def test_open_sheds_until_cooldown(clock):
    b = make(clock)
    for _ in range(3):
        b.record_failure()
    assert b.state == OPEN
    assert not b.allow()
    assert b.retry_after() == pytest.approx(10.0)
    clock.advance(4.0)
    assert not b.allow()
    assert b.retry_after() == pytest.approx(6.0)


def test_half_open_admits_one_probe_then_closes_on_success(clock):
    b = make(clock)
    for _ in range(3):
        b.record_failure()
    clock.advance(10.0)
    assert b.allow()            # the probe
    assert b.state == HALF_OPEN
    assert not b.allow()        # everyone else still shed
    b.record_success()
    assert b.state == CLOSED
    assert b.allow()
    assert b.retry_after() == 0.0


def test_half_open_failure_reopens_and_restarts_cooldown(clock):
    b = make(clock)
    for _ in range(3):
        b.record_failure()
    clock.advance(10.0)
    assert b.allow()
    b.record_failure()
    assert b.state == OPEN
    assert b.trips == 2
    assert not b.allow()
    assert b.retry_after() == pytest.approx(10.0)
    clock.advance(10.0)
    assert b.allow()
    b.record_success()
    assert b.state == CLOSED


def test_release_frees_the_probe_without_a_verdict(clock):
    b = make(clock)
    for _ in range(3):
        b.record_failure()
    clock.advance(10.0)
    assert b.allow()            # the probe
    assert not b.allow()
    b.release()                 # it ended in a client error
    stats = b.stats()
    assert (stats["state"], stats["failures"], stats["trips"]) == \
        (HALF_OPEN, 3, 1)
    assert b.allow()            # the next request probes
    b.record_success()
    assert b.state == CLOSED


def test_straggler_failure_while_open_is_ignored(clock):
    b = make(clock)
    for _ in range(3):
        b.record_failure()
    opened = b.retry_after()
    b.record_failure()  # a request from before the trip reporting late
    assert b.state == OPEN
    assert b.trips == 1
    assert b.retry_after() == opened


def test_on_transition_sequence(clock):
    seen = []
    b = make(clock, on_transition=lambda old, new: seen.append((old, new)))
    for _ in range(3):
        b.record_failure()
    clock.advance(10.0)
    b.allow()
    b.record_success()
    assert seen == [
        (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
    ]


def test_stats_snapshot(clock):
    b = make(clock)
    b.record_failure()
    s = b.stats()
    assert s == {
        "state": CLOSED,
        "failures": 1,
        "trips": 0,
        "failure_threshold": 3,
        "cooldown_seconds": 10.0,
    }


def test_constructor_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(0)
    with pytest.raises(ValueError):
        CircuitBreaker(1, -1.0)


def test_thread_safety_single_probe(clock):
    """Many threads racing allow() after the cooldown: exactly one
    probe is admitted."""
    b = make(clock)
    for _ in range(3):
        b.record_failure()
    clock.advance(10.0)
    admitted = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        if b.allow():
            admitted.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(admitted) == 1
