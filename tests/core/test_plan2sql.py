"""Unit tests for Plan2SQL and the RA-to-SQL translation (Section 7)."""

import sqlite3

import pytest

from repro.core.access import AccessConstraint
from repro.core.plan2sql import (
    index_table_ddl,
    index_table_name,
    plan_to_sql,
    query_to_sql,
    quote_identifier,
    sql_literal,
)
from repro.core.plan import ConstOp, IntersectOp, PlanBuilder, RenameOp, UnionOp
from repro.core.planner import plan_query
from repro.core.query import Relation, Rename, eq
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor
from repro.workloads import facebook


class TestSQLHelpers:
    def test_quote_identifier_escapes(self):
        assert quote_identifier("dine.cid") == '"dine.cid"'
        assert quote_identifier('we"ird') == '"we""ird"'

    def test_sql_literal_types(self):
        assert sql_literal(None) == "NULL"
        assert sql_literal(True) == "1"
        assert sql_literal(5) == "5"
        assert sql_literal(2.5) == "2.5"
        assert sql_literal("o'hare") == "'o''hare'"

    def test_index_table_name_deterministic(self):
        psi2 = AccessConstraint.of("dine", ["pid", "year", "month"], "cid", 31)
        assert index_table_name(psi2) == "ind_dine_month_pid_year__cid"
        assert index_table_name(psi2, "dine_base") == "ind_dine_base_month_pid_year__cid"

    def test_index_table_ddl_creates_table_and_index(self):
        psi1 = AccessConstraint.of("friend", "pid", "fid", 5000)
        statements = index_table_ddl(psi1)
        assert len(statements) == 2
        assert statements[0].startswith("CREATE TABLE")
        assert "SELECT DISTINCT" in statements[0]
        assert statements[1].startswith("CREATE INDEX")

    def test_index_table_ddl_empty_lhs_has_no_index(self):
        months = AccessConstraint.of("dine", (), "month", 12)
        statements = index_table_ddl(months)
        assert len(statements) == 1


class TestPlanToSQL:
    def test_plan_sql_uses_only_index_tables(self, fb_q1, fb_access):
        plan = plan_query(fb_q1, fb_access)
        translation = plan_to_sql(plan)
        assert translation.sql.startswith("WITH ")
        # every FROM target is either a CTE t<k> or an index table
        for table in translation.index_tables:
            assert table.startswith("ind_")
        # base tables never appear unqualified in FROM clauses
        assert 'FROM "friend"' not in translation.sql
        assert 'FROM "dine"' not in translation.sql

    def test_plan_sql_mentions_constants(self, fb_q1, fb_access):
        translation = plan_to_sql(plan_query(fb_q1, fb_access))
        assert "'p0'" in translation.sql
        assert "'nyc'" in translation.sql

    def test_plan_sql_is_valid_sqlite(self, fb_q1, fb_access, fb_database):
        """The generated SQL parses and runs on SQLite against the index tables."""
        plan = plan_query(fb_q1, fb_access)
        translation = plan_to_sql(plan)
        connection = sqlite3.connect(":memory:")
        cursor = connection.cursor()
        for relation in fb_database:
            cols = ", ".join(quote_identifier(a) for a in relation.schema.attributes)
            cursor.execute(f"CREATE TABLE {quote_identifier(relation.schema.name)} ({cols})")
            cursor.executemany(
                f"INSERT INTO {quote_identifier(relation.schema.name)} VALUES "
                f"({', '.join('?' for _ in relation.schema.attributes)})",
                relation.rows,
            )
        for constraint in fb_access:
            for statement in index_table_ddl(constraint):
                cursor.execute(statement)
        cursor.execute(translation.sql)
        rows = frozenset(tuple(r) for r in cursor.fetchall())
        assert rows == evaluate(fb_q1, fb_database).rows

    def test_difference_plan_sql(self, fb_q0_prime, fb_access):
        translation = plan_to_sql(plan_query(fb_q0_prime, fb_access))
        assert "EXCEPT" in translation.sql


class TestQueryToSQL:
    def test_simple_selection(self, fb_schema):
        cafe = Relation.from_schema(fb_schema, "cafe")
        query = cafe.select(eq(cafe["city"], "nyc")).project([cafe["cid"]])
        sql = query_to_sql(query)
        assert "SELECT DISTINCT" in sql
        assert '"cafe"' in sql
        assert "'nyc'" in sql

    def test_join_and_difference(self, fb_q0):
        sql = query_to_sql(fb_q0)
        assert "JOIN" in sql
        assert "EXCEPT" in sql

    def test_query_sql_runs_on_sqlite(self, fb_q0, fb_database):
        connection = sqlite3.connect(":memory:")
        cursor = connection.cursor()
        for relation in fb_database:
            cols = ", ".join(quote_identifier(a) for a in relation.schema.attributes)
            cursor.execute(f"CREATE TABLE {quote_identifier(relation.schema.name)} ({cols})")
            cursor.executemany(
                f"INSERT INTO {quote_identifier(relation.schema.name)} VALUES "
                f"({', '.join('?' for _ in relation.schema.attributes)})",
                relation.rows,
            )
        cursor.execute(query_to_sql(fb_q0))
        rows = frozenset(tuple(r) for r in cursor.fetchall())
        assert rows == evaluate(fb_q0, fb_database).rows


def sqlite_over(database):
    """A SQLite connection holding ``database``'s base tables."""
    connection = sqlite3.connect(":memory:")
    for relation in database:
        name = quote_identifier(relation.schema.name)
        cols = ", ".join(quote_identifier(a) for a in relation.schema.attributes)
        connection.execute(f"CREATE TABLE {name} ({cols})")
        marks = ", ".join("?" for _ in relation.schema.attributes)
        connection.executemany(f"INSERT INTO {name} VALUES ({marks})", relation.rows)
    return connection


class TestProductAndRename:
    @pytest.fixture
    def parts(self, fb_schema):
        friend = Relation.from_schema(fb_schema, "friend")
        cafe = Relation.from_schema(fb_schema, "cafe")
        mates = friend.select(eq(friend["pid"], "p0")).project([friend["fid"]])
        return mates, cafe.select(eq(cafe["city"], "nyc")).project([cafe["cid"]])

    def test_a_product_query_runs_on_sqlite_to_the_evaluators_rows(self, parts, fb_database):
        query = parts[0].product(parts[1])
        sql = query_to_sql(query)
        assert "CROSS JOIN" in sql
        rows = frozenset(sqlite_over(fb_database).execute(sql))
        assert rows == evaluate(query, fb_database).rows != frozenset()

    def test_a_renamed_query_runs_on_sqlite_to_the_evaluators_rows(self, parts, fb_database):
        query = Rename(parts[0], "mates")
        sql = query_to_sql(query)
        assert '"friend.fid" AS "mates.fid"' in sql
        rows = frozenset(sqlite_over(fb_database).execute(sql))
        assert rows == evaluate(query, fb_database).rows != frozenset()

    def test_a_plan_with_an_intersection_and_a_rename_runs_on_sqlite(self, fb_access, fb_indexes):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(ConstOp(value=2, column="x"), ["x"])
        t2 = builder.add(UnionOp(inputs=(t0, t1)), ["x"])
        t3 = builder.add(IntersectOp(inputs=(t2, t1)), ["x"])
        t4 = builder.add(RenameOp(mapping={"x": "y"}, inputs=(t3,)), ["y"])
        plan = builder.build(t4)
        translation = plan_to_sql(plan)
        assert "INTERSECT" in translation.sql and '"x" AS "y"' in translation.sql
        rows = frozenset(sqlite3.connect(":memory:").execute(translation.sql))
        assert rows == PlanExecutor(fb_indexes).execute(plan).rows == {(2,)}
