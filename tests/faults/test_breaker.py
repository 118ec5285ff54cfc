"""CircuitBreaker: the closed → open → half-open state machine.

All tests drive an injectable fake clock — nothing here sleeps.
"""

import threading

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

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
    assert b.allow(object()) and b.allow(object())
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
    assert not b.allow(object())
    assert b.retry_after() == pytest.approx(10.0)
    clock.advance(4.0)
    assert not b.allow(object())
    assert b.retry_after() == pytest.approx(6.0)


def test_half_open_admits_one_probe_then_closes_on_success(clock):
    b = make(clock)
    for _ in range(3):
        b.record_failure()
    clock.advance(10.0)
    assert b.allow(object())    # the probe
    assert b.state == HALF_OPEN
    assert not b.allow(object())  # everyone else still shed
    b.record_success()
    assert b.state == CLOSED
    assert b.allow(object())
    assert b.retry_after() == 0.0


def test_half_open_failure_reopens_and_restarts_cooldown(clock):
    b = make(clock)
    for _ in range(3):
        b.record_failure()
    clock.advance(10.0)
    assert b.allow(object())
    b.record_failure()
    assert b.state == OPEN
    assert b.trips == 2
    assert not b.allow(object())
    assert b.retry_after() == pytest.approx(10.0)
    clock.advance(10.0)
    assert b.allow(object())
    b.record_success()
    assert b.state == CLOSED


def test_release_frees_the_probe_without_a_verdict(clock):
    b = make(clock)
    for _ in range(3):
        b.record_failure()
    clock.advance(10.0)
    probe = object()
    assert b.allow(probe)       # the probe
    assert not b.allow(object())
    b.release(probe)            # it ended in a client error
    stats = b.stats()
    assert (stats["state"], stats["failures"], stats["trips"]) == \
        (HALF_OPEN, 3, 1)
    assert b.allow(object())    # the next request probes
    b.record_success()
    assert b.state == CLOSED


def test_only_the_probe_holder_frees_the_slot(clock):
    """A request admitted while the breaker was closed that ends
    without a verdict after the breaker reopened and a probe went out
    holds no slot: its release must not admit a second probe."""
    b = CircuitBreaker(1, 1.0, clock=clock)
    straggler, probe = object(), object()
    assert b.allow(straggler)   # admitted while closed
    b.record_failure()          # another request trips the breaker
    assert b.state == OPEN
    clock.advance(1.0)
    assert b.allow(probe)       # the probe
    b.release(straggler)        # the straggler ends in a 4xx
    assert not b.allow(object())  # the probe is still in flight
    b.release(probe)
    assert b.allow(object())    # now the next request probes


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
    b.allow(object())
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
        if b.allow(object()):
            admitted.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(admitted) == 1


class BreakerMachine(RuleBasedStateMachine):
    """The breaker against a model of its requests, on a fake clock.

    Every admitted request is live until it ends with a success, a
    failure or a release; any live request may end (``pick`` indexes
    the live list), so the slot holder and stragglers admitted in an
    earlier episode both report.  An episode is one open -> half-open
    transition."""

    @initialize(threshold=st.integers(1, 2), admitted=st.integers(0, 8))
    def start(self, threshold, admitted):
        self.clock = Clock()
        self.seen = []
        self.breaker = CircuitBreaker(
            threshold, 10.0, clock=self.clock,
            on_transition=lambda old, new: self.seen.append((old, new)),
        )
        self.live = []  # [request, admitted as the probe of episode k]
        for _ in range(admitted):  # requests in flight from the start
            self.allow()

    def episode(self):
        return self.seen.count((OPEN, HALF_OPEN))

    @rule()
    def allow(self):
        request, state = object(), self.breaker.state
        if self.breaker.allow(request):
            probe = self.episode() if state != CLOSED else None
            self.live.append((request, probe))

    def finish(self, pick):
        """End the ``pick``-th live request; None when none is live."""
        if self.live:
            return self.live.pop(pick % len(self.live))[0]
        return None

    @rule(pick=st.integers(0, 3))
    def success(self, pick):
        if self.finish(pick) is None:
            return
        state = self.breaker.state
        self.breaker.record_success()
        if state == HALF_OPEN:  # one success after the cooldown closes it
            assert self.breaker.state == CLOSED

    @rule(pick=st.integers(0, 3))
    def failure(self, pick):
        if self.finish(pick) is not None:
            self.breaker.record_failure()

    @rule()
    def another_request_fails(self):
        if self.breaker.allow(object()):
            self.breaker.record_failure()

    @rule(pick=st.integers(0, 3))
    def release(self, pick):
        request = self.finish(pick)
        if request is not None:
            self.breaker.release(request)

    @rule(seconds=st.sampled_from([5.0, 10.0, 25.0]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def at_most_one_probe_in_flight(self):
        if self.breaker.state == HALF_OPEN:
            episode = self.episode()
            probes = [r for r, k in self.live if k == episode]
            assert len(probes) <= 1, probes

    @invariant()
    def a_live_probe_keeps_its_slot(self):
        if self.breaker.state == HALF_OPEN:
            episode = self.episode()
            for request, k in self.live:
                if k == episode:
                    assert self.breaker._probe is request

    @invariant()
    def a_held_slot_has_a_live_holder(self):
        holder = self.breaker._probe
        if holder is not None:
            assert self.breaker.state == HALF_OPEN
            assert (holder, self.episode()) in self.live

    @invariant()
    def trips_count_the_transitions_into_open(self):
        # closed -> open and a failed probe's half-open -> open alike
        assert self.breaker.trips == sum(new == OPEN for _, new in self.seen)


BreakerMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None,
)
test_breaker_state_machine = BreakerMachine.TestCase
