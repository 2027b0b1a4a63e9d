"""The one way tests build a serving-core substrate beside its reference.

:class:`Substrate` wires an engine or a federation over a database and keeps
the single-database reference in step: for the engine the reference *is* its
database; a federation owns fragment copies and mirrors every fully applied
routed batch back.  ``tests/core/test_serving_core.py``,
``tests/property/test_oracle.py`` and the federation tests all build their
cores here.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.engine import BoundedEngine
from repro.discovery.maintenance import Update
from repro.serving.faults import FaultInjector, FaultSpec
from repro.sharding import SQLiteShard, build_topology
from repro.workloads import facebook

#: every substrate by name: ``None`` is one engine, a dict the federation's
#: :func:`~repro.sharding.build_topology` arguments
TOPOLOGIES = {
    "engine": None,
    "router-1-memory": {"shards": 1, "backends": "memory"},
    "router-1-sqlite": {"shards": 1, "backends": "sqlite"},
    "router-3-mixed": {"shards": 3, "backends": ["memory", "sqlite", "memory"]},
}


class Substrate:
    """A serving core over ``database`` plus the single-database reference.

    ``kind`` names a topology of :data:`TOPOLOGIES` or is one; ``options`` go
    to the core (``result_cache_size``, a federation's ``partition_keys`` …).
    """

    def __init__(self, kind, database, access, **options):
        self.reference = database
        topology = TOPOLOGIES[kind] if isinstance(kind, str) else kind
        self.federated = topology is not None
        if topology is None:
            self.core = BoundedEngine(database, access, **options)
        else:
            self.core = build_topology(
                database, access, **topology, **options, write_observer=self._mirror
            )

    def _mirror(self, updates) -> None:
        for update in updates:
            instance = self.reference.relation(update.relation)
            if update.kind == "insert":
                instance.insert(update.row)
            else:
                instance.delete(update.row)

    def data(self) -> dict:
        """Every relation's rows: the reference's, and the ones the core serves from."""
        names = self.reference.relation_names()
        held = self.core._gather(names) if self.federated else self.reference
        return {
            name: (set(self.reference.relation(name).rows), set(held.relation(name).rows))
            for name in names
        }

    def owner(self, update: Update):
        return self.core.shards[self.core.partitioner.shard_for_row(update.relation, update.row)]

    def insert_out_of_band(self, relation: str, row: tuple) -> None:
        """A real data change (storage, indexes, clocks) the core never settles."""
        if self.federated:
            self.owner(Update.insert(relation, row)).apply_updates(
                [Update.insert(relation, row)]
            )
        else:
            self.core.indexes.apply_insert(relation, row)
        self.reference.insert(relation, row)

    def second_core(self):
        """Another core over the same data: it settles nothing of this core's writes.

        A second router shares this one's shards; a second engine shares the
        database but keeps constraint indexes of its own (see :meth:`follow`).
        """
        if self.federated:
            return type(self.core)(self.core.shards, self.core.partitioner, self.core.access_schema)
        return BoundedEngine(self.reference, self.core.access_schema)

    def follow(self, core, report) -> None:
        """Hand ``core`` the rows ``report`` applied through this core.

        An engine's indexes are its own, not the database's, so the second
        engine's take the applied rows; shards are shared, so routers need
        nothing.  Neither core settles anything.
        """
        if not self.federated:
            for update in report.applied_updates:
                apply = core.indexes.apply_insert if update.kind == "insert" else core.indexes.apply_delete
                apply(update.relation, update.row)

    @contextmanager
    def second_update_fails(self, batch: list[Update]):
        """Within the block, ``batch`` applies its first update and aborts on the second."""
        with FaultInjector(seed=0) as injector:
            if self.federated:
                shard = self.owner(batch[0])
                injector.install_shard(shard)
                injector.configure(f"{shard.name}.write", FaultSpec(torn_write_every=1))
            else:
                injector.configure("storage.write", FaultSpec(fail_every=2))
                injector.install_writes(self.reference, [batch[0].relation])
            yield
        if self.federated:
            self._mirror(batch[:1])  # observers only see fully applied batches

    def epoch(self, update: Update) -> tuple:
        """The epoch token of ``update``'s relation where the update is owned."""
        if self.federated:
            return self.owner(update).snapshot((update.relation,))
        return self.reference.clock.snapshot((update.relation,))

    def result_cache(self) -> dict:
        return self.core.cache_stats()["result_cache"]

    def close(self) -> None:
        for shard in getattr(self.core, "shards", ()):
            if isinstance(shard, SQLiteShard):
                shard.close()


def mirrored_federation(scale=30, seed=5, **topology):
    """A federation over facebook data, and the database it mirrors every applied batch into."""
    database = facebook.generate(scale=scale, seed=seed)
    return Substrate(topology, database, facebook.access_schema(database.schema)).core, database
