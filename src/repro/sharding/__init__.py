"""Sharded, federated bounded evaluation.

Partition a database across heterogeneous shards (in-memory engines and
SQLite mirrors), scatter the fetch steps of covered bounded plans to the
owning shards, and merge the bounded partials centrally, validated against
the one version clock all the shards' fragments share.  See
:mod:`repro.sharding.router` for the soundness argument and
:mod:`repro.sharding.partition` for the one rule that decides which shard
owns a key.

The federation is static: a hash partition fixed when
:func:`build_topology` splits the data, one shard per fragment, no replicas.
It is not fault-tolerant — a shard failure reaches the caller as the typed
:class:`~repro.core.errors.TransientFault` (a read) or
:class:`~repro.core.errors.MaintenanceError` (a write) — and
:class:`repro.serving.faults.FaultInjector` injects seeded faults at the
shard-call seams to hold it to that.
"""

from .partition import Partitioner, stable_hash
from .router import RouterMetrics, ShardRouter, build_topology
from .shards import EngineShard, Shard, SQLiteShard

__all__ = [
    "EngineShard",
    "Partitioner",
    "RouterMetrics",
    "Shard",
    "ShardRouter",
    "SQLiteShard",
    "build_topology",
    "stable_hash",
]
