"""Hardened serving tier over the versioned bounded-evaluation core.

The package layers a robustness stack on top of
:class:`~repro.core.engine.BoundedEngine`:

* :mod:`~repro.serving.server` — the asyncio :class:`BoundedServer`:
  bounded admission queue, per-request deadlines, cost-budget shedding
  (sound because covered plans expose an exact ``access_bound()``), the
  graceful-degradation ladder, and serialized write batches.
* :mod:`~repro.serving.policy` — the retry backoff, the circuit breaker
  mounted around the unbounded conventional fallback, and deadlines.
* :mod:`~repro.serving.faults` — deterministic seeded fault injection at
  the executor / fallback / storage-write seams and a shard's fetch /
  write / snapshot calls.
* :mod:`~repro.serving.metrics` — queue, shed, ladder, and latency
  quantile observability.
* :mod:`~repro.serving.soak` — the seeded chaos soak that cross-checks
  every served read against the uncached reference evaluator.
"""

from .faults import FaultInjector, FaultSpec
from .metrics import LatencyRecorder, ServingMetrics
from .policy import Backoff, CircuitBreaker, Deadline
from .server import (
    BoundedServer,
    ReadRequest,
    ServeResponse,
    ServerConfig,
    WriteRequest,
)
from .soak import SoakConfig, run_soak

__all__ = [
    "Backoff",
    "BoundedServer",
    "CircuitBreaker",
    "Deadline",
    "FaultInjector",
    "FaultSpec",
    "LatencyRecorder",
    "ReadRequest",
    "ServeResponse",
    "ServerConfig",
    "ServingMetrics",
    "SoakConfig",
    "WriteRequest",
    "run_soak",
]
