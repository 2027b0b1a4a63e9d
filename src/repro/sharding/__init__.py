"""Sharded, federated bounded evaluation.

Partition a database across heterogeneous shards (in-memory engines and
SQLite mirrors), scatter the fetch steps of covered bounded plans to the
owning shards, and merge the bounded partials centrally under per-shard
epoch validation.  See :mod:`repro.sharding.router` for the soundness
argument and :mod:`repro.sharding.partition` for the one rule that decides
which shard owns a key.

The self-healing layer on top: :mod:`repro.sharding.replica` (replica
groups with failover, quarantine and catch-up) and
:meth:`ShardRouter.rebalance` (epoch-guarded online key-range migration);
:class:`repro.serving.faults.FaultInjector` injects seeded faults at the
shard-call seams.
"""

from .partition import Partitioner, stable_hash
from .replica import ReplicaSet
from .router import RebalanceReport, RouterMetrics, ShardRouter, build_topology
from .shards import EngineShard, Shard, SQLiteShard

__all__ = [
    "EngineShard",
    "Partitioner",
    "RebalanceReport",
    "ReplicaSet",
    "RouterMetrics",
    "Shard",
    "ShardRouter",
    "SQLiteShard",
    "build_topology",
    "stable_hash",
]
