"""Unit tests for the serving-tier policies: backoff, breaker, deadline."""

import random

import pytest

from repro.serving.policy import Backoff, CircuitBreaker, Deadline


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBackoff:
    def test_delays_stay_within_base_and_cap(self):
        backoff = Backoff(base=0.01, cap=0.5, rng=random.Random(1))
        delays = [backoff.next_delay() for _ in range(200)]
        assert all(0.01 <= d <= 0.5 for d in delays)

    def test_deterministic_given_seed(self):
        a = Backoff(0.01, 0.5, random.Random(42))
        b = Backoff(0.01, 0.5, random.Random(42))
        assert [a.next_delay() for _ in range(10)] == [b.next_delay() for _ in range(10)]

    def test_decorrelated_range_depends_on_previous_draw(self):
        # The next delay is drawn from U(base, 3 * previous): with a previous
        # draw pinned at the cap, delays may exceed 3 * base.
        backoff = Backoff(0.1, 10.0, random.Random(0))
        seen_above_3x_base = False
        for _ in range(100):
            if backoff.next_delay() > 0.3:
                seen_above_3x_base = True
        assert seen_above_3x_base

    def test_reset_restores_base_range(self):
        backoff = Backoff(0.01, 100.0, random.Random(3))
        for _ in range(20):
            backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() <= 0.03  # first post-reset draw is U(base, 3*base)

    def test_building_one_draws_nothing(self):
        # The server builds one on a read's first fault: every seeded retry
        # schedule is the one it always was.
        rng = random.Random(0)
        untouched = rng.getstate()
        backoff = Backoff(0.001, 0.05, rng)
        assert (backoff.base, backoff.cap) == (0.001, 0.05)
        assert rng.getstate() == untouched

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Backoff(0.0, 1.0, random.Random(0))
        with pytest.raises(ValueError):
            Backoff(0.5, 0.1, random.Random(0))


class TestCircuitBreaker:
    def test_closed_allows_and_failures_below_threshold_stay_closed(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1.0, clock=FakeClock())
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_trips_open_and_rejects_until_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 1
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow()
        assert breaker.rejected == 2

    def test_half_open_admits_single_probe_then_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # second caller refused while probe in flight
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()

    def test_trip_records_its_reason_and_a_success_closes_from_open(self):
        # The replica set's use: it trips a member on divergence and may
        # record a catch-up's success before any cooldown has run out.
        breaker = CircuitBreaker(failure_threshold=3, cooldown=8, clock=FakeClock())
        breaker.trip("divergence")
        assert (breaker.state, breaker.stats()["reason"]) == (CircuitBreaker.OPEN, "divergence")
        breaker.record_success()
        assert (breaker.state, breaker.reason) == (CircuitBreaker.CLOSED, None)
        # re-admitted, the member needs the full threshold again
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert (breaker.state, breaker.reason) == (CircuitBreaker.OPEN, "unhealthy")

    def test_stats_snapshot(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=FakeClock())
        breaker.record_failure()
        breaker.allow()
        stats = breaker.stats()
        assert stats["state"] == CircuitBreaker.OPEN
        assert stats["times_opened"] == 1
        assert stats["rejected"] == 1
        assert stats["failures"] == 1

    def test_rejects_zero_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestDeadline:
    def test_remaining_counts_down_and_never_negative(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock)
        assert deadline.remaining() == 2.0
        assert not deadline.expired
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(10.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired

    def test_expired_exactly_at_boundary(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock)
        clock.advance(1.0)
        assert deadline.expired
