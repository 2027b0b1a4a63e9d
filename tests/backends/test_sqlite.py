"""Tests for the SQLite backend (bounded evaluation on a real SQL engine)."""

import pytest

from repro.core.errors import StorageError
from repro.core.planner import plan_query
from repro.backends.sqlite import SQLiteBackend
from repro.evaluator.algebra import evaluate
from repro.workloads import facebook


@pytest.fixture
def backend(fb_database):
    with SQLiteBackend(fb_database) as backend:
        yield backend


class TestSetup:
    def test_base_tables_loaded(self, backend, fb_database):
        result = backend.run_sql('SELECT COUNT(*) FROM "dine"')
        assert result.rows == frozenset({(len(fb_database.relation("dine")),)})

    def test_index_tables_created(self, backend, fb_access):
        created = backend.create_index_tables(fb_access)
        assert len(created) == 4
        assert backend.index_size() > 0
        # creating again is a no-op
        assert backend.create_index_tables(fb_access) == {}

    def test_missing_index_table_rejected(self, backend, fb_q1, fb_access):
        plan = plan_query(fb_q1, fb_access)
        with pytest.raises(StorageError, match="has not been created"):
            backend.run_bounded_plan(plan)


class TestExecutionAgreement:
    def test_bounded_plan_matches_reference(self, backend, fb_q1, fb_access, fb_database):
        backend.create_index_tables(fb_access)
        plan = plan_query(fb_q1, fb_access)
        result = backend.run_bounded_plan(plan)
        assert result.rows == evaluate(fb_q1, fb_database).rows

    def test_bounded_plan_with_difference(self, backend, fb_q0_prime, fb_access, fb_database):
        backend.create_index_tables(fb_access)
        plan = plan_query(fb_q0_prime, fb_access)
        result = backend.run_bounded_plan(plan)
        assert result.rows == evaluate(fb_q0_prime, fb_database).rows

    def test_original_query_matches_reference(self, backend, fb_q0, fb_database):
        result = backend.run_query(fb_q0)
        assert result.rows == evaluate(fb_q0, fb_database).rows

    def test_bounded_and_original_agree(self, backend, fb_q1, fb_access):
        backend.create_index_tables(fb_access)
        bounded = backend.run_bounded_plan(plan_query(fb_q1, fb_access))
        original = backend.run_query(fb_q1)
        assert bounded.rows == original.rows


class TestMaintenance:
    def test_apply_insert_refreshes_index_tables(self, backend, fb_access, fb_database):
        backend.create_index_tables(fb_access)
        q1 = facebook.query_q1()
        plan = plan_query(q1, fb_access)
        before = backend.run_bounded_plan(plan).rows
        backend.apply_insert("cafe", ("c_sql", "nyc"))
        backend.apply_insert("friend", ("p0", "p_sql"))
        backend.apply_insert("dine", ("p_sql", "c_sql", "may", 2015))
        after = backend.run_bounded_plan(plan).rows
        assert ("c_sql",) in after
        assert before <= after

    def test_group_of_reads_the_index_table_and_is_empty_without_one(self, backend, fb_access):
        psi1 = next(c for c in fb_access if c.name == "psi1")
        row = sorted(backend.database.relation("friend").rows)[0]
        assert backend.group_of(psi1, row) == set()  # no index tables yet
        backend.create_index_tables(fb_access)
        group = backend.group_of(psi1, row)
        assert group and all(index_row[1] == row[0] for index_row in group)

    def test_apply_insert_deduplicates_index_rows(self, backend, fb_access):
        backend.create_index_tables(fb_access)
        size_before = backend.index_size()
        # a duplicate of an existing cafe tuple adds nothing to the index tables
        existing = next(iter(backend.database.relation("cafe").rows))
        backend.apply_insert("cafe", existing)
        assert backend.index_size() == size_before
