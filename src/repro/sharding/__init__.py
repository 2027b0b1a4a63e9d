"""Sharded, federated bounded evaluation (ROADMAP item 1).

Partition a database across heterogeneous shards (in-memory engines and
SQLite mirrors), scatter the fetch steps of covered bounded plans to the
owning shards, and merge the bounded partials centrally under per-shard
epoch validation.  See :mod:`repro.sharding.router` for the soundness
argument and :mod:`repro.sharding.partition` for the partitioning schemes.

The self-healing layer on top: :mod:`repro.sharding.replica` (replica
groups with failover, quarantine and catch-up) and
:mod:`repro.sharding.rebalance` (epoch-guarded online key-range
migration); :class:`repro.serving.faults.FaultInjector` injects seeded
faults at the shard-call seams.
"""

from .partition import (
    HashPartitioner,
    Partitioner,
    PartitionOverlay,
    RangePartitioner,
    stable_hash,
)
from .rebalance import RebalanceReport, rebalance_key_range
from .replica import ReplicaHealth, ReplicaSet
from .router import RouterMetrics, ShardRouter, build_topology
from .shards import EngineShard, Shard, SQLiteShard

__all__ = [
    "EngineShard",
    "HashPartitioner",
    "Partitioner",
    "PartitionOverlay",
    "RangePartitioner",
    "RebalanceReport",
    "ReplicaHealth",
    "ReplicaSet",
    "RouterMetrics",
    "Shard",
    "ShardRouter",
    "SQLiteShard",
    "build_topology",
    "rebalance_key_range",
    "stable_hash",
]
