"""Serving-tier observability: queue depth, shed counts, latency quantiles.

The admission-control guarantees of :class:`~repro.serving.server.
BoundedServer` are only auditable if the tier measures itself: sheds must be
visible per reason (queue full / cost budget / deadline / breaker), and
latency must be reported as quantiles per strategy — the whole point of the
degradation ladder is that the *covered* p99 stays bounded while the
fallback path burns.
"""

from __future__ import annotations

import math
from collections import Counter, deque


class LatencyRecorder:
    """Bounded per-key latency samples with exact small-sample quantiles.

    Keeps up to ``cap`` most-recent samples per key (a soak run fits easily;
    a long-lived server degrades to a sliding window, which is the right
    bias for alerting anyway).  Quantiles use the nearest-rank method on the
    sorted window — exact for the sample sizes involved, no estimation
    sketch to misread.
    """

    def __init__(self, cap: int = 8192):
        self.cap = cap
        self._samples: dict[str, deque[float]] = {}

    def observe(self, key: str, seconds: float) -> None:
        window = self._samples.get(key)
        if window is None:
            window = self._samples[key] = deque(maxlen=self.cap)
        window.append(seconds)  # a full window drops its oldest sample

    def count(self, key: str) -> int:
        return len(self._samples.get(key, ()))

    def percentile(self, key: str, p: float) -> float | None:
        """Nearest-rank percentile (``p`` in [0, 100]); ``None`` if no samples."""
        window = self._samples.get(key)
        if not window:
            return None
        ordered = sorted(window)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def snapshot(self) -> dict[str, dict[str, float | int]]:
        return {
            key: {
                "count": len(window),
                "p50_ms": round((self.percentile(key, 50) or 0.0) * 1000, 3),
                "p95_ms": round((self.percentile(key, 95) or 0.0) * 1000, 3),
                "p99_ms": round((self.percentile(key, 99) or 0.0) * 1000, 3),
                "max_ms": round(max(window) * 1000, 3),
            }
            for key, window in self._samples.items()
            if window
        }


class ServingMetrics:
    """All counters and gauges of one :class:`~repro.serving.server.BoundedServer`."""

    def __init__(self):
        self.submitted = 0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.retries = 0
        self.writes_applied = 0
        self.write_failures = 0
        #: requests shed before doing work, by reason
        self.sheds: Counter[str] = Counter()
        #: terminal degradation-ladder outcomes, by ladder step name
        self.ladder: Counter[str] = Counter()
        #: reads answered from the result cache inside ``submit``, without
        #: queueing (part of ``ladder["result_cache"]``): over ``admitted``,
        #: the share of traffic that bypasses admission queueing
        self.inline_hits = 0
        #: requests waiting for a worker — misses, fallbacks and writes only:
        #: an inline hit takes no queue slot, so neither gauge sees it
        self.queue_depth = 0
        self.queue_depth_peak = 0
        self.latency = LatencyRecorder()

    # -- queue gauge -----------------------------------------------------------
    def enqueued(self) -> None:
        self.queue_depth += 1
        self.queue_depth_peak = max(self.queue_depth_peak, self.queue_depth)

    def dequeued(self) -> None:
        self.queue_depth = max(0, self.queue_depth - 1)

    # -- outcomes --------------------------------------------------------------
    def shed(self, reason: str) -> None:
        self.sheds[reason] += 1

    def finished(self, outcome: str, seconds: float) -> None:
        """A request reached a terminal ladder step ``outcome`` in ``seconds``."""
        self.ladder[outcome] += 1
        self.latency.observe(outcome, seconds)

    @property
    def total_sheds(self) -> int:
        return sum(self.sheds.values())

    def snapshot(self) -> dict:
        """Everything, JSON-ready (for soak reports)."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "retries": self.retries,
            "writes_applied": self.writes_applied,
            "write_failures": self.write_failures,
            "sheds": dict(self.sheds),
            "total_sheds": self.total_sheds,
            "ladder": dict(self.ladder),
            "inline_hits": self.inline_hits,
            "queue_depth_peak": self.queue_depth_peak,
            "latency": self.latency.snapshot(),
        }
