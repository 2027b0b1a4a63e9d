"""Robustness policies for the serving tier: backoff, breakers, deadlines.

Everything here is deliberately *deterministic and clock-injectable*: the
randomness of the decorrelated-jitter backoff comes from a caller-supplied
``random.Random``, and the circuit breaker reads time through an injected
monotonic clock.  That makes the policies unit-testable tick by tick and
lets the fault-injection soak (:mod:`repro.serving.soak`) replay identical
schedules across runs.

The pieces:

* :class:`Backoff` — decorrelated-jitter delays (``sleep = U(base,
  prev * 3)`` capped), the AWS-recommended variant that avoids both thundering
  herds (full jitter) and lockstep retry waves (pure exponential).
* :class:`CircuitBreaker` — a closed / open / half-open breaker.  The engine
  mounts one around the *unbounded* conventional fallback
  (:class:`~repro.core.engine.BoundedEngine` ``fallback_breaker``), so a
  stampede of uncovered queries fails fast instead of starving the covered
  hot path whose cost is bounded by ``access_bound()``.  Each member of a
  :class:`~repro.sharding.replica.ReplicaSet` runs on one too, with the
  set's fetch count as its clock, so its cooldown is counted in fetches.
* :class:`Deadline` — an absolute expiry against the injected clock.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable


class Backoff:
    """Decorrelated-jitter backoff: each delay is ``U(base, 3 * previous)``.

    Deterministic given the injected ``rng``; one instance per request
    attempt-chain (delays are stateful — each draw feeds the next range).
    """

    def __init__(self, base: float, cap: float, rng: random.Random):
        if base <= 0 or cap < base:
            raise ValueError(f"backoff needs 0 < base <= cap, got {base}, {cap}")
        self.base = base
        self.cap = cap
        self._rng = rng
        self._previous = base

    def next_delay(self) -> float:
        """The next sleep, in seconds (never below ``base`` nor above ``cap``)."""
        self._previous = min(self.cap, self._rng.uniform(self.base, self._previous * 3))
        return self._previous

    def reset(self) -> None:
        self._previous = self.base


class CircuitBreaker:
    """A closed / open / half-open circuit breaker.

    * **closed** — calls flow; ``failure_threshold`` *consecutive* failures
      trip it open (reason ``"unhealthy"``), and so does :meth:`trip`, with
      the caller's reason.
    * **open** — every ``allow()`` is refused until ``cooldown`` has passed
      on the injected clock (seconds, or whatever unit the clock counts).
    * **half-open** — after the cooldown, a single probe call is admitted:
      failure re-opens the breaker for the same reason (and restarts the
      cooldown).

    A success closes the breaker from any state.  A caller that gates every
    call on ``allow()`` records no success while the breaker is open; one
    that trips it itself may (the replica set's immediate catch-up).

    The breaker itself never raises — callers translate a refused ``allow()``
    into :class:`~repro.core.errors.CircuitOpenError` (as
    :meth:`repro.core.engine.BoundedEngine.execute` does for the conventional
    fallback).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock
        self.state = self.CLOSED
        self.reason: str | None = None
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self._probe_in_flight = False
        # -- observability counters
        self.times_opened = 0
        self.rejected = 0
        self.successes = 0
        self.failures = 0

    def allow(self) -> bool:
        """Whether a call may proceed right now (may transition to half-open)."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            assert self.opened_at is not None
            if self.clock() - self.opened_at < self.cooldown:
                self.rejected += 1
                return False
            self.state = self.HALF_OPEN
            self._probe_in_flight = False
        # half-open: admit exactly one probe at a time
        if self._probe_in_flight:
            self.rejected += 1
            return False
        self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        self.state = self.CLOSED
        self.reason = None
        self.opened_at = None
        self._probe_in_flight = False

    def record_failure(self) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.trip(self.reason or "unhealthy")
        self._probe_in_flight = False

    def trip(self, reason: str) -> None:
        """Open the breaker now, for ``reason``, and (re)start the cooldown."""
        self.state = self.OPEN
        self.reason = reason
        self.opened_at = self.clock()
        self.times_opened += 1

    def stats(self) -> dict[str, int | str | None]:
        return {
            "state": self.state,
            "reason": self.reason,
            "times_opened": self.times_opened,
            "rejected": self.rejected,
            "successes": self.successes,
            "failures": self.failures,
        }


@dataclass
class Deadline:
    """An absolute expiry instant on a monotonic clock.

    ``None`` deadlines are represented by the caller, not here: a
    ``Deadline`` always expires.  ``remaining()`` never goes negative, which
    makes it safe to feed straight into sleeps and ``wait_for``.
    """

    expires_at: float
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)

    @classmethod
    def after(cls, seconds: float, clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(expires_at=clock() + seconds, clock=clock)

    def remaining(self) -> float:
        return max(0.0, self.expires_at - self.clock())

    @property
    def expired(self) -> bool:
        return self.clock() >= self.expires_at
