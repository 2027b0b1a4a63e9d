"""SQLite mirror write-path: delete support, insert dedupe, the fetch SQL.

The mirror's contract is lockstep with its :class:`~repro.storage.database.
Database`: after any interleaving of inserts and deletes routed through both,
the SQLite base tables hold exactly the relation instances' rows, the index
tables hold exactly the constraint projections, and bounded-plan SQL and
conventional SQL both agree row-for-row with the in-memory reference.  These
tests pin the two write-path fixes (``apply_delete`` existing at all, and
``apply_insert`` deduplicating base rows under set semantics) and the SQL a
fetch runs; the whole contract, under seeded schedules through the one write
loop (``maintenance.apply_updates``), is held by ``tests/property/test_oracle.py``.
"""

import pytest

from repro.backends import sqlite as sqlite_module
from repro.backends.sqlite import SQLiteBackend
from repro.core.errors import StorageError
from repro.core.plan2sql import index_table_name
from repro.sharding import SQLiteShard
from repro.storage.counters import AccessCounter
from repro.workloads import WORKLOADS

#: ψ3's index table: dine([pid, cid] → [pid, cid]); its columns are a proper
#: subset of dine's, so several base rows can share one index row.
PSI3_TABLE = "ind_dine_cid_pid__cid_pid"


@pytest.fixture
def backend(fb_database, fb_access):
    with SQLiteBackend(fb_database) as backend:
        backend.create_index_tables(fb_access)
        yield backend


def _count(backend, table: str) -> int:
    result = backend.run_sql(f'SELECT COUNT(*) FROM "{table}"')
    return next(iter(result.rows))[0]


class TestApplyDelete:
    def test_removes_base_row(self, backend):
        row = next(iter(backend.database.relation("cafe").rows))
        before = _count(backend, "cafe")
        backend.apply_delete("cafe", row)
        assert _count(backend, "cafe") == before - 1

    def test_absent_row_is_a_noop(self, backend):
        before = _count(backend, "friend")
        index_before = backend.index_size()
        backend.apply_delete("friend", ("ghost", "ghost"))
        assert _count(backend, "friend") == before
        assert backend.index_size() == index_before

    def test_shared_index_row_outlives_first_base_row(self, backend):
        # Two dine rows differing only in month project to ONE ψ3 index row.
        first = ("p_share", "c_share", "may", 2015)
        second = ("p_share", "c_share", "jun", 2015)
        backend.apply_insert("dine", first)
        backend.apply_insert("dine", second)
        shared = backend.run_sql(
            f'SELECT * FROM "{PSI3_TABLE}" WHERE "pid" = \'p_share\''
        )
        assert len(shared.rows) == 1

        # Deleting one base row must keep the index row: the other still
        # projects to it — dropping it would lose bounded-plan answers.
        backend.apply_delete("dine", first)
        assert len(
            backend.run_sql(
                f'SELECT * FROM "{PSI3_TABLE}" WHERE "pid" = \'p_share\''
            ).rows
        ) == 1
        # Deleting the last projecting base row finally drops the index row.
        backend.apply_delete("dine", second)
        assert (
            backend.run_sql(
                f'SELECT * FROM "{PSI3_TABLE}" WHERE "pid" = \'p_share\''
            ).rows
            == frozenset()
        )


class TestApplyInsertDedupe:
    def test_duplicate_insert_does_not_grow_base_table(self, backend):
        existing = next(iter(backend.database.relation("friend").rows))
        before = _count(backend, "friend")
        backend.apply_insert("friend", existing)
        assert _count(backend, "friend") == before

    def test_delete_after_duplicate_insert_leaves_no_copy(self, backend):
        # The pre-fix behaviour left TWO SQLite copies after a duplicate
        # insert, so one delete still left a phantom row behind.
        existing = next(iter(backend.database.relation("cafe").rows))
        backend.apply_insert("cafe", existing)
        backend.apply_delete("cafe", existing)
        conditions = " AND ".join(
            f'"{a}" = ?' for a in backend.database.schema["cafe"].attributes
        )
        cursor = backend.connection.cursor()
        cursor.execute(f'SELECT COUNT(*) FROM "cafe" WHERE {conditions}', existing)
        assert cursor.fetchone()[0] == 0


class TestRowTransactions:
    """A maintenance call is one transaction: a failing statement leaves no half-written row."""

    def test_failed_index_refresh_rolls_the_base_row_back(self, backend):
        import sqlite3

        backend.run_sql(f'DROP TABLE "{PSI3_TABLE}"')  # the refresh of ψ3 now fails
        row = ("p_half", "c_half", "may", 2015)
        before = _count(backend, "dine")
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            backend.apply_insert("dine", row)  # base INSERT ran, then the refresh raised
        assert _count(backend, "dine") == before
        backend.apply_insert("cafe", ("c_ok", "nyc"))  # commits nothing left over
        assert _count(backend, "dine") == before


class TestFetchIndex:
    def test_matches_manual_projection(self, backend, fb_access, fb_database):
        psi1 = next(c for c in fb_access if c.name == "psi1")
        rows = backend.fetch_index(psi1, [("p0",)])
        expected = {
            (row[1], row[0])  # index columns are sorted(lhs|rhs) = (fid, pid)
            for row in fb_database.relation("friend").rows
            if row[0] == "p0"
        }
        assert rows == frozenset(expected)

    def test_multiple_keys_union(self, backend, fb_access):
        psi4 = next(c for c in fb_access if c.name == "psi4")
        one = backend.fetch_index(psi4, [("c0",)])
        two = backend.fetch_index(psi4, [("c1",)])
        both = backend.fetch_index(psi4, [("c0",), ("c1",)])
        assert both == one | two

    def test_missing_table_raises(self, fb_database, fb_access):
        with SQLiteBackend(fb_database) as bare:
            psi1 = next(c for c in fb_access if c.name == "psi1")
            with pytest.raises(StorageError, match="has not been created"):
                bare.fetch_index(psi1, [("p0",)])
            # the refusal is not remembered: once the table exists, it fetches
            bare.create_index_tables(fb_access)
            assert bare.fetch_index(psi1, [("p0",)])

    def test_sql_built_once_and_one_statement_per_key(
        self, backend, fb_access, fb_database, monkeypatch
    ):
        psi2 = next(c for c in fb_access if c.name == "psi2")
        dine_rows = fb_database.relation("dine").rows
        # aligned with sorted(lhs) = (month, pid, year), taken from rows that exist
        keys = sorted({(month, pid, year) for pid, _, month, year in dine_rows})[:3]
        named = []
        monkeypatch.setattr(
            sqlite_module,
            "index_table_name",
            lambda *args: named.append(args) or index_table_name(*args),
        )
        statements: list[str] = []
        backend.connection.set_trace_callback(statements.append)
        try:
            first = backend.fetch_index(psi2, keys)
            again = backend.fetch_index(psi2, keys)
        finally:
            backend.connection.set_trace_callback(None)
        assert len(named) == 1  # the SQL of (psi2, its own relation), built once
        assert len(statements) == 2 * len(keys)
        assert first and first == again
        assert first == frozenset().union(*(backend.fetch_index(psi2, [k]) for k in keys))
        assert all(type(row) is tuple for row in first)

    @pytest.mark.parametrize("name", ["AIRCA", "MCBM", "TFACC"])
    def test_fetch_sql_sorts_nothing_and_searches_the_index(self, name):
        workload = WORKLOADS[name]
        with SQLiteBackend(workload.database(scale=10, seed=7)) as bare:
            bare.create_index_tables(workload.access_schema)
            for constraint in workload.access_schema:
                sql = bare._prepare_fetch(constraint, constraint.relation)
                explained = bare.connection.execute(
                    f"EXPLAIN QUERY PLAN {sql}", (None,) * len(constraint.lhs)
                )
                steps = [row[3] for row in explained]
                assert not any("TEMP B-TREE" in step for step in steps), (constraint, steps)
                if constraint.lhs:
                    index = f"ix_{index_table_name(constraint)}"
                    assert any(f"INDEX {index} (" in step for step in steps), (constraint, steps)

    def test_a_duplicated_index_row_comes_back_and_is_counted_once(self, fb_database, fb_access):
        psi1 = next(c for c in fb_access if c.name == "psi1")
        shard = SQLiteShard("s", fb_database, fb_access)
        try:
            rows = shard.fetch(psi1, "friend", [("p0",)])
            assert rows
            table = index_table_name(psi1)
            execute = shard.backend.connection.execute
            execute(f'INSERT INTO "{table}" SELECT * FROM "{table}" WHERE "pid" = ?', ("p0",))
            stored = execute(f'SELECT COUNT(*) FROM "{table}" WHERE "pid" = ?', ("p0",))
            assert stored.fetchone()[0] == 2 * len(rows)
            counter = AccessCounter()
            assert shard.fetch(psi1, "friend", [("p0",)], counter) == rows
            assert (counter.fetched, counter.index_probes) == (len(rows), 1)
        finally:
            shard.close()

    def test_empty_lhs_returns_the_whole_index_table(self, fb_database):
        from repro.core.access import AccessConstraint, AccessSchema

        months = AccessConstraint.of("dine", (), "month", 12)
        with SQLiteBackend(fb_database) as bare:
            bare.create_index_tables(AccessSchema([months]))
            expected = {(row[2],) for row in fb_database.relation("dine").rows}
            # the keys are not read: X is empty, so every key selects every row
            assert bare.fetch_index(months, [("ignored",)]) == frozenset(expected)
            assert bare.fetch_index(months, []) == frozenset(expected)
