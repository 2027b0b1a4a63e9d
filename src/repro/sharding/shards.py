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

from typing import Callable, Iterable, Sequence

from ..backends.sqlite import SQLiteBackend
from ..core.access import AccessConstraint, AccessSchema
from ..core.errors import MaintenanceError, StorageError
from ..core.planstore import ResultCache
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
        predicate: Callable[[Row], bool] | None = None,
    ) -> frozenset[Row]:
        """Distinct index rows of ``constraint`` matching any key, this fragment only.

        ``predicate``, when given, is a row filter pushed down from a select
        step sitting directly on the fetch: the shard applies it *after* the
        index lookup (the tuples are still accessed and still counted — the
        access bound is about data touched, not data shipped) but *before*
        returning, so only matching rows cross the shard boundary and enter
        the router's merge.
        """
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
    def cache_counters(self) -> tuple[int, int]:
        """``(hits, misses)`` of this shard's fetch-partial cache (0 if none)."""
        return (0, 0)

    def stats(self) -> dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "tuples": self.database.size,
            "version": self.database.version,
        }


class EngineShard(Shard):
    """An in-memory shard: fetches via ``ConstraintIndex``, writes via index maintenance.

    Each engine shard keeps a small :class:`~repro.core.planstore.
    ResultCache` of *fetch partials* — the ``(constraint, key-set)`` →
    row-set pairs its index lookups produce — stamped with the shard's
    per-relation clock version and swept by routed writes.  The router's
    result cache serves whole federated results; this one serves the
    scatter's building blocks, so two different queries sharing a fetch
    step (or one query re-executed after an unrelated relation changed)
    skip the index walk.  Hits replay the exact access accounting of the
    lookups they stand in for (the bound is about tuples *touched*, and a
    cached partial stands for the same touched tuples), so ``P(D_Q)``
    reporting is identical with or without the cache.
    """

    kind = "memory"

    def __init__(
        self,
        name: str,
        database: Database,
        access_schema: AccessSchema,
        *,
        fetch_cache_size: int = 128,
    ):
        super().__init__(name, database)
        self.access_schema = access_schema
        self.indexes = IndexSet.build(database, access_schema, check=False)
        # The router keeps the (cross-shard) result cache; this one holds
        # fetch *partials*, not query results.
        self.fetch_cache = ResultCache(fetch_cache_size)
        #: per-entry ``(index_probes, tuples_fetched)`` so cache hits replay
        #: the miss path's accounting exactly (fetched ≥ |rows|: a tuple
        #: reached through two keys is counted per lookup)
        self._fetch_costs: dict = {}

    def fetch(
        self,
        constraint: AccessConstraint,
        base_relation: str,
        keys: Iterable[Sequence],
        counter: AccessCounter | None = None,
        predicate: Callable[[Row], bool] | None = None,
    ) -> frozenset[Row]:
        keys = [tuple(key) for key in keys]
        cache_key = None
        if predicate is None and self.fetch_cache.capacity > 0:
            # Predicated fetches bypass the cache: the pushed-down predicate
            # is a compiled closure with no stable identity to key on.
            cache_key = (constraint, base_relation, frozenset(keys))
            stamp = self.database.clock.snapshot((base_relation,))
            entry = self.fetch_cache.get(cache_key, stamp)
            if entry is not None:
                cost = self._fetch_costs.get(cache_key)
                if cost is not None:
                    if counter is not None:
                        counter.record_fetch_many(base_relation, cost[0], cost[1])
                    return entry.rows
        index = self.indexes.get(constraint)
        if index is None:
            index = self.indexes.find(base_relation, constraint.lhs, constraint.rhs)
        if index is None:
            raise StorageError(
                f"shard {self.name!r} has no index for constraint {constraint} "
                f"(base relation {base_relation!r})"
            )
        local = AccessCounter()
        rows: set[Row] = set()
        for key in keys:
            rows.update(index.lookup(key, local))
        if counter is not None:
            counter.merge(local)
        frozen = frozenset(rows)
        if cache_key is not None:
            self.fetch_cache.put(
                cache_key,
                rows=frozen,
                columns=(),
                dependencies=(base_relation,),
                snapshot=self.database.clock.snapshot((base_relation,)),
            )
            self._fetch_costs[cache_key] = (local.index_probes, local.fetched)
        if predicate is not None:
            frozen = frozenset(filter(predicate, frozen))
        return frozen

    def apply_updates(self, updates: Iterable[Update]) -> MaintenanceReport:
        try:
            # Through the module, at call time: the benchmark tracer wraps
            # ``maintenance.apply_updates`` from outside.  The clock is
            # bumped once per portion, over the partial on a failure.
            report = maintenance.apply_updates(
                self.database, self.indexes, self.access_schema, updates
            )
        except MaintenanceError:
            # A torn batch leaves shard state suspect: sweep every partial
            # rather than reason about which prefix survived.
            self.fetch_cache.invalidate(None)
            self._fetch_costs.clear()
            raise
        if report.touched_relations:
            self.fetch_cache.invalidate(sorted(report.touched_relations))
            self._prune_costs()
        return report

    def _prune_costs(self) -> None:
        if len(self._fetch_costs) > 4 * self.fetch_cache.capacity:
            live = self.fetch_cache._entries
            self._fetch_costs = {
                key: cost for key, cost in self._fetch_costs.items() if key in live
            }

    def cache_counters(self) -> tuple[int, int]:
        return (self.fetch_cache.hits, self.fetch_cache.misses)


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
        predicate: Callable[[Row], bool] | None = None,
    ) -> frozenset[Row]:
        rows = self.backend.fetch_index(constraint, keys, base_relation=base_relation)
        if counter is not None:
            counter.record_fetch(base_relation, len(rows))
        if predicate is not None:
            rows = frozenset(filter(predicate, rows))
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
