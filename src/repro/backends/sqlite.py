"""Running bounded evaluation on top of SQLite (the Section 7 framework, Fig. 4).

The paper implements its framework on MySQL and PostgreSQL; neither is
available offline, so this backend plays the same role with SQLite (bundled
with Python):

* base relations are loaded as ordinary tables;
* the index relations ``T_XY = π_XY(D_R)`` of an access schema are created as
  tables with an index on ``X`` (component C1 of Fig. 4);
* a bounded plan is executed by running its ``Plan2SQL`` translation, which
  only touches the index tables (components C5–C6);
* the conventional baseline runs the original query's SQL over the base
  tables.

This keeps the comparison honest: both sides run on the same SQL engine.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from typing import Collection, Sequence

from ..core.access import AccessConstraint, AccessSchema
from ..core.errors import StorageError
from ..core.plan import BoundedPlan
from ..core.plan2sql import (
    index_table_ddl,
    index_table_name,
    plan_to_sql,
    query_to_sql,
    quote_identifier,
)
from ..core.query import Query
from ..storage.database import Database


@dataclass
class SQLRunResult:
    """Rows and wall-clock time of one SQL execution."""

    rows: frozenset[tuple]
    elapsed: float
    sql: str


class SQLiteBackend:
    """An in-memory SQLite database mirroring a :class:`~repro.storage.database.Database`."""

    def __init__(self, database: Database):
        self.database = database
        self.connection = sqlite3.connect(":memory:")
        self._index_constraints: dict[str, AccessConstraint] = {}
        #: (constraint, base relation) -> the SQL of one fetch_index key
        self._fetch_sql: dict[tuple[AccessConstraint, str | None], str] = {}
        self._load_relations()

    # -- setup -------------------------------------------------------------------
    def _load_relations(self) -> None:
        cursor = self.connection.cursor()
        for relation in self.database:
            columns = ", ".join(quote_identifier(a) for a in relation.schema.attributes)
            cursor.execute(f"CREATE TABLE {quote_identifier(relation.schema.name)} ({columns})")
            placeholders = ", ".join("?" for _ in relation.schema.attributes)
            cursor.executemany(
                f"INSERT INTO {quote_identifier(relation.schema.name)} VALUES ({placeholders})",
                relation.rows,
            )
        self.connection.commit()

    def create_index_tables(self, access_schema: AccessSchema) -> dict[str, AccessConstraint]:
        """Materialize the index relations ``I_A`` for every constraint (component C1)."""
        cursor = self.connection.cursor()
        created: dict[str, AccessConstraint] = {}
        for constraint in access_schema:
            table = index_table_name(constraint)
            if table in self._index_constraints:
                continue
            for statement in index_table_ddl(constraint):
                cursor.execute(statement)
            self._index_constraints[table] = constraint
            created[table] = constraint
        self.connection.commit()
        return created

    def index_size(self) -> int:
        """Total number of rows across all materialized index tables."""
        cursor = self.connection.cursor()
        total = 0
        for table in self._index_constraints:
            cursor.execute(f"SELECT COUNT(*) FROM {quote_identifier(table)}")
            total += cursor.fetchone()[0]
        return total

    # -- execution -------------------------------------------------------------------
    def run_sql(self, sql: str) -> SQLRunResult:
        cursor = self.connection.cursor()
        started = time.perf_counter()
        cursor.execute(sql)
        rows = frozenset(tuple(row) for row in cursor.fetchall())
        elapsed = time.perf_counter() - started
        return SQLRunResult(rows=rows, elapsed=elapsed, sql=sql)

    def run_bounded_plan(self, plan: BoundedPlan) -> SQLRunResult:
        """Execute a bounded plan via its ``Plan2SQL`` translation (components C5–C6).

        The index tables needed by the plan must have been created first; a
        missing table raises :class:`StorageError` with the offending name.
        """
        translation = plan_to_sql(plan)
        for table in translation.index_tables:
            if table not in self._index_constraints:
                raise StorageError(
                    f"index table {table!r} has not been created; call "
                    "create_index_tables() with the plan's access schema first"
                )
        return self.run_sql(translation.sql)

    def run_query(self, query: Query) -> SQLRunResult:
        """Execute the original RA query over the base tables (the DBMS baseline)."""
        return self.run_sql(query_to_sql(query))

    def fetch_index(
        self,
        constraint: AccessConstraint,
        keys: Collection[Sequence],
        *,
        base_relation: str | None = None,
    ) -> set[tuple]:
        """``fetch(X ∈ keys, R, Y)`` over the index table of ``constraint``.

        Returns the distinct index rows (aligned with ``sorted(lhs | rhs)``)
        matching any of the given ``X``-values — the per-shard half of a
        federated scatter/gather fetch (see :mod:`repro.sharding`) — as a
        new set on every call.  A constraint with an empty LHS returns the
        whole index table.  No ``DISTINCT`` is needed for that (see
        :meth:`_prepare_fetch`).
        """
        sql = self._fetch_sql.get((constraint, base_relation))
        if sql is None:
            sql = self._fetch_sql[constraint, base_relation] = self._prepare_fetch(
                constraint, base_relation
            )
        execute = self.connection.execute
        if not constraint.lhs:
            return set(execute(sql))
        if len(keys) == 1:  # a point fetch: one statement, straight into the set
            (key,) = keys
            return set(execute(sql, key))
        rows: set[tuple] = set()
        for key in keys:
            rows.update(execute(sql, key))
        return rows

    def _prepare_fetch(self, constraint: AccessConstraint, base_relation: str | None) -> str:
        """The SQL :meth:`fetch_index` runs once per key over ``constraint``'s index table.

        No ``DISTINCT``, which would sort every fetch in a temporary B-tree:
        the index table is created by ``SELECT DISTINCT`` and
        :meth:`apply_insert` / :meth:`apply_delete` keep it duplicate-free,
        so a key's rows are distinct as stored — and :meth:`fetch_index`
        folds them into a set anyway.
        """
        table = index_table_name(constraint, base_relation)
        if table not in self._index_constraints:
            raise StorageError(
                f"index table {table!r} has not been created; call "
                "create_index_tables() with the plan's access schema first"
            )
        columns = sorted(constraint.lhs | constraint.rhs)
        select_list = ", ".join(quote_identifier(c) for c in columns)
        sql = f"SELECT {select_list} FROM {quote_identifier(table)}"
        lhs = sorted(constraint.lhs)
        if not lhs:
            return sql
        conditions = " AND ".join(f"{quote_identifier(c)} = ?" for c in lhs)
        return f"{sql} WHERE {conditions}"

    # -- maintenance ---------------------------------------------------------------------
    # The maintainer seam of :func:`repro.discovery.maintenance.apply_updates`
    # (shared with :class:`~repro.storage.index.IndexSet`).  Each call is one
    # transaction: committed whole, or rolled back when a statement fails.
    def apply_insert(self, relation: str, row: Sequence) -> None:
        """Insert a tuple into a base table and refresh affected index tables.

        Base tables mirror the set semantics of
        :class:`~repro.storage.relation.RelationInstance`: re-inserting a row
        that is already present is a no-op, exactly like the index-table path
        below — an unconditional ``INSERT`` would duplicate the row in SQLite
        while the mirrored :class:`~repro.storage.database.Database` keeps one
        copy, skewing conventional-baseline timings and any ``COUNT``.
        """
        schema = self.database.schema[relation]
        with self.connection:
            cursor = self.connection.cursor()
            values = tuple(row)
            base_conditions = " AND ".join(
                f"{quote_identifier(a)} = ?" for a in schema.attributes
            )
            cursor.execute(
                f"SELECT 1 FROM {quote_identifier(relation)} WHERE {base_conditions} LIMIT 1",
                values,
            )
            if cursor.fetchone() is not None:
                return
            placeholders = ", ".join("?" for _ in schema.attributes)
            cursor.execute(
                f"INSERT INTO {quote_identifier(relation)} VALUES ({placeholders})", values
            )
            for table, constraint in self._index_constraints.items():
                if constraint.relation != relation:
                    continue
                columns = sorted(constraint.lhs | constraint.rhs)
                positions = schema.positions(columns)
                projected = tuple(values[p] for p in positions)
                column_list = ", ".join(quote_identifier(c) for c in columns)
                conditions = " AND ".join(f"{quote_identifier(c)} = ?" for c in columns)
                cursor.execute(
                    f"SELECT 1 FROM {quote_identifier(table)} WHERE {conditions}", projected
                )
                if cursor.fetchone() is None:
                    placeholders = ", ".join("?" for _ in columns)
                    cursor.execute(
                        f"INSERT INTO {quote_identifier(table)} ({column_list}) VALUES ({placeholders})",
                        projected,
                    )

    def apply_delete(self, relation: str, row: Sequence) -> None:
        """Delete a tuple from a base table and refresh affected index tables.

        The counterpart :meth:`apply_insert` always had — without it, a
        delete routed through the engine left the SQLite mirror silently
        drifted from the :class:`~repro.storage.database.Database`.  An index
        row ``π_XY(t)`` is dropped only when no *remaining* base row still
        projects to it (several base rows can share one index row when the
        constraint's attributes are a proper subset of the relation's).
        """
        schema = self.database.schema[relation]
        with self.connection:
            cursor = self.connection.cursor()
            values = tuple(row)
            base_conditions = " AND ".join(
                f"{quote_identifier(a)} = ?" for a in schema.attributes
            )
            cursor.execute(
                f"DELETE FROM {quote_identifier(relation)} WHERE {base_conditions}", values
            )
            for table, constraint in self._index_constraints.items():
                if constraint.relation != relation:
                    continue
                columns = sorted(constraint.lhs | constraint.rhs)
                positions = schema.positions(columns)
                projected = tuple(values[p] for p in positions)
                conditions = " AND ".join(f"{quote_identifier(c)} = ?" for c in columns)
                cursor.execute(
                    f"SELECT 1 FROM {quote_identifier(relation)} WHERE {conditions} LIMIT 1",
                    projected,
                )
                if cursor.fetchone() is None:
                    cursor.execute(
                        f"DELETE FROM {quote_identifier(table)} WHERE {conditions}", projected
                    )

    def group_of(self, constraint: AccessConstraint, row: Sequence) -> set[tuple]:
        """The index rows of ``constraint`` sharing ``row``'s ``X``-value (empty without a table)."""
        if index_table_name(constraint) not in self._index_constraints:
            return set()
        positions = self.database.schema[constraint.relation].positions(sorted(constraint.lhs))
        return self.fetch_index(constraint, [tuple(row[p] for p in positions)])

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
