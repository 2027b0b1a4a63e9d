"""Shard backends: heterogeneous engines behind one fetch/write protocol.

A shard owns one disjoint fragment of the data and answers two things for
the router: *bounded fetches* (the scatter half of scatter/gather — one
``fetch(X ∈ keys, R, Y)`` over its fragment's constraint index, ≤ ``|keys| ·
N`` tuples by the access schema) and *batched writes* (the routed portion of
an update batch, applied through the shard's own maintenance path).  The
fragments of one federation share a single :class:`~repro.storage.counters.
VersionClock` (:meth:`~repro.sharding.partition.Partitioner.partition`),
which every shard's writes stamp and the router reads once per snapshot, so
partials fetched from different epochs are never combined.  A shard's own
``snapshot`` / ``validate`` read that shared clock too; the router does not
call them.

Two interchangeable backends implement the protocol behind the same
:class:`~repro.core.plan.BoundedPlan` boundary:

* :class:`EngineShard` — the fragment plus its in-memory
  :class:`~repro.storage.index.IndexSet`; fetches are
  :class:`~repro.storage.index.ConstraintIndex` lookups.
* :class:`SQLiteShard` — the fragment mirrored into SQLite via
  :class:`~repro.backends.sqlite.SQLiteBackend`; fetches run SQL over the
  materialized ``ind_…`` index tables (the paper's Fig. 4 C1 component).

One federated plan can therefore execute fetch steps on both kinds in the
same run.  Writes are **not** a backend concern: :meth:`Shard.apply_updates`
runs the one Proposition-12 loop of :func:`~repro.discovery.maintenance.
apply_updates` over the fragment and the backend's index ``maintainer`` (the
``IndexSet``, the SQLite mirror), so every backend keeps the same contract —
one clock bump per portion, and on a failure the prefix kept, the clock
settled over it, a :class:`~repro.core.errors.MaintenanceError` carrying the
partial report.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable

from ..backends.sqlite import SQLiteBackend
from ..core.access import AccessConstraint, AccessSchema
from ..core.errors import StorageError
from ..discovery import maintenance
from ..discovery.maintenance import IndexMaintainer, MaintenanceReport, Update
from ..storage.counters import AccessCounter
from ..storage.database import Database
from ..storage.index import IndexSet

Row = tuple


class Shard:
    """The protocol every shard backend implements (plus shared plumbing)."""

    kind: str = "abstract"
    #: the fragment's constraints and what keeps their indexes in step with
    #: its rows — both set by the backend's constructor
    access_schema: AccessSchema
    maintainer: IndexMaintainer

    def __init__(self, name: str, database: Database):
        self.name = name
        self.database = database

    # -- reads -------------------------------------------------------------------
    def fetch(
        self,
        constraint: AccessConstraint,
        base_relation: str,
        keys: Collection[Row],
        counter: AccessCounter | None = None,
    ) -> set[Row]:
        """Distinct index rows of ``constraint`` matching any key, this fragment only.

        ``keys`` are tuples aligned with ``sorted(constraint.lhs)`` — the
        router always hands tuples, so a backend uses them as given.  A
        counter, if given, records what an :class:`~repro.storage.index.
        IndexSet` fetch records, on every backend: one index probe per key
        and each returned row, nothing for no keys.  The router passes none:
        it records the merged fetch once itself.

        The result is a **fresh** set that the caller owns: no later fetch
        returns it again or reads it, so the router hands it on as the
        merged fetch, or unions other shards' partials into it, without a
        copy.  A wrapper (the fault injector) returns the set the shard
        returned, as it is.
        """
        raise NotImplementedError

    def relation_rows(self, relation: str) -> tuple[Row, ...]:
        """All rows of ``relation`` held by this fragment (federated fallback)."""
        return self.database.relation(relation).rows

    def group_of(self, constraint: AccessConstraint, row: Row) -> Collection[Row]:
        """This fragment's index rows of ``constraint`` sharing ``row``'s ``X``-value."""
        return self.maintainer.group_of(constraint, row)

    # -- writes ------------------------------------------------------------------
    def apply_updates(self, updates: Iterable[Update]) -> MaintenanceReport:
        """Apply the routed portion of a batch; one clock bump per call."""
        # Through the module, at call time: the benchmark tracer wraps
        # ``maintenance.apply_updates`` from outside.
        return maintenance.apply_updates(
            self.database, self.maintainer, self.access_schema, updates
        )

    # -- versioning: the federation's shared clock -----------------------------------
    def snapshot(self, relations: Iterable[str]) -> tuple[int, ...]:
        return self.database.clock.snapshot(relations)

    def validate(self, relations: Iterable[str], snapshot: tuple[int, ...]) -> bool:
        # one clock read, not ``VersionClock.validate``'s snapshot-and-compare
        return self.database.clock.snapshot(relations) == snapshot

    # -- reporting ---------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        # no version: the clock is the federation's, not this shard's
        return {"name": self.name, "kind": self.kind, "tuples": self.database.size}


class EngineShard(Shard):
    """An in-memory shard: fetches are ``ConstraintIndex`` lookups."""

    kind = "memory"

    def __init__(self, name: str, database: Database, access_schema: AccessSchema):
        super().__init__(name, database)
        self.access_schema = access_schema
        self.indexes = self.maintainer = IndexSet.build(
            database, access_schema, check=False
        )
        #: (constraint, base relation) -> its index's ``lookup_many``: an
        #: actualized occurrence resolves by shape, once, not once per fetch
        self._lookups: dict[tuple[AccessConstraint, str], Callable] = {}

    def fetch(
        self,
        constraint: AccessConstraint,
        base_relation: str,
        keys: Collection[Row],
        counter: AccessCounter | None = None,
    ) -> set[Row]:
        lookup_many = self._lookups.get((constraint, base_relation))
        if lookup_many is None:
            index = self.indexes.resolve(constraint, base_relation)
            if index is None:
                raise StorageError(
                    f"shard {self.name!r} has no index for constraint {constraint} "
                    f"(base relation {base_relation!r})"
                )
            lookup_many = self._lookups[constraint, base_relation] = index.lookup_many
        return lookup_many(keys, counter)


class SQLiteShard(Shard):
    """A SQLite-mirrored shard: fetches via SQL over the ``ind_…`` index tables.

    The fragment is kept twice — as a :class:`Database` (the version clock
    and the rows the federated fallback gathers) and as its SQLite mirror,
    base *and* index tables, which the shared write loop maintains in
    lockstep as this shard's ``maintainer``.
    """

    kind = "sqlite"

    def __init__(self, name: str, database: Database, access_schema: AccessSchema):
        super().__init__(name, database)
        self.access_schema = access_schema
        self.backend = self.maintainer = SQLiteBackend(database)
        self.backend.create_index_tables(access_schema)

    def fetch(
        self,
        constraint: AccessConstraint,
        base_relation: str,
        keys: Collection[Row],
        counter: AccessCounter | None = None,
    ) -> set[Row]:
        rows = self.backend.fetch_index(constraint, keys, base_relation=base_relation)
        if counter is not None and keys:
            counter.record_fetch_many(base_relation, len(keys), len(rows))
        return rows

    def close(self) -> None:
        self.backend.close()
