"""A per-route circuit breaker (closed → open → half-open → closed).

Classic three-state breaker with an injectable clock so tests never
sleep:

- **closed** — requests flow; consecutive failures are counted, and
  reaching ``failure_threshold`` trips the breaker open.
- **open** — requests are shed immediately (the caller answers 503
  with ``Retry-After``); after ``cooldown_seconds`` the next
  :meth:`allow` call becomes the single half-open probe.
- **half-open** — exactly one probe is in flight; its success closes
  the breaker, its failure re-opens it (restarting the cooldown); a
  probe that ends without a verdict (a client error) frees its slot
  through :meth:`release`, so the next request probes.

Thread-safe: the serving tier calls :meth:`allow` /
:meth:`record_success` / :meth:`record_failure` / :meth:`release`
from executor worker threads.  State transitions invoke
``on_transition(old, new)`` under the lock's shadow (after release) so
observers can emit metrics and flight-recorder notes without deadlock
risk.
"""

from __future__ import annotations

import threading
import time

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_seconds: float = 5.0,
        *,
        clock=time.monotonic,
        on_transition=None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False
        self.trips = 0  # lifetime closed->open transitions

    # -- internal ----------------------------------------------------------
    def _transition(self, new_state: str) -> tuple[str, str] | None:
        """Move to ``new_state``; returns (old, new) if it changed.
        Caller must hold the lock; fire the callback *after* release."""
        old = self._state
        if old == new_state:
            return None
        self._state = new_state
        if new_state == OPEN:
            self._opened_at = self._clock()
            self._probing = False
            self.trips += 1
        elif new_state == CLOSED:
            self._failures = 0
            self._opened_at = None
            self._probing = False
        elif new_state == HALF_OPEN:
            self._probing = False
        return (old, new_state)

    def _notify(self, change: tuple[str, str] | None) -> None:
        if change is not None and self._on_transition is not None:
            self._on_transition(*change)

    # -- the protocol ------------------------------------------------------
    def allow(self) -> bool:
        """May a request proceed right now?

        In the open state this flips to half-open once the cooldown has
        elapsed and admits exactly one probe; everyone else is shed
        until the probe reports back.
        """
        change = None
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.cooldown_seconds:
                    change = self._transition(HALF_OPEN)
                    self._probing = True
                    admitted = True
                else:
                    admitted = False
            else:  # HALF_OPEN: one probe at a time
                if self._probing:
                    admitted = False
                else:
                    self._probing = True
                    admitted = True
        self._notify(change)
        return admitted

    def record_success(self) -> None:
        change = None
        with self._lock:
            if self._state == HALF_OPEN:
                change = self._transition(CLOSED)
            else:
                self._failures = 0
        self._notify(change)

    def record_failure(self) -> None:
        change = None
        with self._lock:
            if self._state == HALF_OPEN:
                change = self._transition(OPEN)
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    change = self._transition(OPEN)
            else:  # already open (e.g. a straggler from before the trip)
                pass
        self._notify(change)

    def release(self) -> None:
        """End an admitted request without a verdict on the backend:
        a half-open probe's slot is freed for the next request; no
        state or count changes."""
        with self._lock:
            self._probing = False

    # -- introspection -----------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    def retry_after(self) -> float:
        """Seconds until the next probe would be admitted (0 when not
        shedding)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(
                0.0,
                self.cooldown_seconds - (self._clock() - self._opened_at),
            )

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "failures": self._failures,
                "trips": self.trips,
                "failure_threshold": self.failure_threshold,
                "cooldown_seconds": self.cooldown_seconds,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CircuitBreaker(state={self._state!r}, "
                f"failures={self._failures}, trips={self.trips})")
