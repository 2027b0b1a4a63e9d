"""Shard backends: heterogeneous engines behind one fetch/write protocol.

A shard owns one disjoint fragment of the data and answers two things for
the router: *bounded fetches* (the scatter half of scatter/gather — one
``fetch(X ∈ keys, R, Y)`` over its fragment's constraint index, ≤ ``|keys| ·
N`` tuples by the access schema) and *batched writes* (the routed portion of
an update batch, applied through the shard's own maintenance path).  Each
shard also exposes its fragment's :class:`~repro.storage.counters.
VersionClock` so the router can snapshot-validate a merge: partials fetched
from different epochs of the same shard are never combined.

Two interchangeable backends implement the protocol behind the same
:class:`~repro.core.plan.BoundedPlan` boundary:

* :class:`EngineShard` — the fragment plus its in-memory
  :class:`~repro.storage.index.IndexSet`; fetches are
  :class:`~repro.storage.index.ConstraintIndex` lookups, writes go through
  the batched index maintenance of :func:`~repro.discovery.maintenance.
  apply_updates` (one clock bump per batch).
* :class:`SQLiteShard` — the fragment mirrored into SQLite via
  :class:`~repro.backends.sqlite.SQLiteBackend`; fetches run SQL over the
  materialized ``ind_…`` index tables (the paper's Fig. 4 C1 component),
  writes maintain base *and* index tables through ``apply_insert`` /
  ``apply_delete``.

One federated plan can therefore execute fetch steps on both kinds in the
same run — the heterogeneity ROADMAP item 1 asks for.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..backends.sqlite import SQLiteBackend
from ..core.access import AccessConstraint, AccessSchema
from ..core.errors import StorageError
from ..discovery import maintenance
from ..discovery.maintenance import MaintenanceReport, Update
from ..storage.counters import AccessCounter
from ..storage.database import Database
from ..storage.index import IndexSet

Row = tuple


class Shard:
    """The protocol every shard backend implements (plus shared plumbing)."""

    kind: str = "abstract"

    def __init__(self, name: str, database: Database):
        self.name = name
        self.database = database

    # -- reads -------------------------------------------------------------------
    def fetch(
        self,
        constraint: AccessConstraint,
        base_relation: str,
        keys: Iterable[Sequence],
        counter: AccessCounter | None = None,
    ) -> frozenset[Row]:
        """Distinct index rows of ``constraint`` matching any key, this fragment only."""
        raise NotImplementedError

    def relation_rows(self, relation: str) -> tuple[Row, ...]:
        """All rows of ``relation`` held by this fragment (federated fallback)."""
        return self.database.relation(relation).rows

    # -- writes ------------------------------------------------------------------
    def apply_updates(self, updates: Iterable[Update]) -> MaintenanceReport:
        """Apply the routed portion of a batch; one clock bump per call."""
        raise NotImplementedError

    # -- versioning ----------------------------------------------------------------
    def snapshot(self, relations: Iterable[str]) -> tuple[int, ...]:
        return self.database.clock.snapshot(relations)

    def validate(self, relations: Iterable[str], snapshot: tuple[int, ...]) -> bool:
        return self.database.clock.validate(relations, snapshot)

    # -- reporting ---------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "tuples": self.database.size,
            "version": self.database.version,
        }


class EngineShard(Shard):
    """An in-memory shard: fetches via ``ConstraintIndex``, writes via index maintenance."""

    kind = "memory"

    def __init__(self, name: str, database: Database, access_schema: AccessSchema):
        super().__init__(name, database)
        self.access_schema = access_schema
        self.indexes = IndexSet.build(database, access_schema, check=False)

    def fetch(
        self,
        constraint: AccessConstraint,
        base_relation: str,
        keys: Iterable[Sequence],
        counter: AccessCounter | None = None,
    ) -> frozenset[Row]:
        index = self.indexes.resolve(constraint, base_relation)
        if index is None:
            raise StorageError(
                f"shard {self.name!r} has no index for constraint {constraint} "
                f"(base relation {base_relation!r})"
            )
        return frozenset(index.lookup_many([tuple(key) for key in keys], counter))

    def apply_updates(self, updates: Iterable[Update]) -> MaintenanceReport:
        # Through the module, at call time: the benchmark tracer wraps
        # ``maintenance.apply_updates`` from outside.  The clock is bumped
        # once per portion, over the partial on a failure.
        return maintenance.apply_updates(
            self.database, self.indexes, self.access_schema, updates
        )


class SQLiteShard(Shard):
    """A SQLite-mirrored shard: fetches via SQL over the ``ind_…`` index tables.

    The fragment is kept twice — as a :class:`Database` (the version clock
    and the rows the federated fallback gathers) and as its SQLite mirror.
    The write path maintains both in lockstep through the backend's
    ``apply_insert``/``apply_delete``, which is exactly the mirror write path
    this PR's satellite bugfixes harden.
    """

    kind = "sqlite"

    def __init__(self, name: str, database: Database, access_schema: AccessSchema):
        super().__init__(name, database)
        self.access_schema = access_schema
        self.backend = SQLiteBackend(database)
        self.backend.create_index_tables(access_schema)

    def fetch(
        self,
        constraint: AccessConstraint,
        base_relation: str,
        keys: Iterable[Sequence],
        counter: AccessCounter | None = None,
    ) -> frozenset[Row]:
        rows = self.backend.fetch_index(constraint, keys, base_relation=base_relation)
        if counter is not None:
            counter.record_fetch(base_relation, len(rows))
        return rows

    def apply_updates(self, updates: Iterable[Update]) -> MaintenanceReport:
        report = MaintenanceReport()
        for update in updates:
            relation = self.database.relation(update.relation)
            prepared = relation.prepare(update.row)
            if update.kind == "insert":
                if relation.insert(prepared):
                    self.backend.apply_insert(update.relation, prepared)
                    report.applied += 1
                    report.touched_relations.add(update.relation)
                else:
                    report.skipped += 1
            else:
                if relation.delete(prepared):
                    self.backend.apply_delete(update.relation, prepared)
                    report.applied += 1
                    report.touched_relations.add(update.relation)
                else:
                    report.skipped += 1
        if report.touched_relations:
            report.version = self.database.clock.bump(sorted(report.touched_relations))
        return report

    def close(self) -> None:
        self.backend.close()
