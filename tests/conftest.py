"""Shared fixtures: the paper's running example and small synthetic databases."""

from __future__ import annotations

import pytest

from repro.backends.sqlite import SQLiteBackend
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.schema import DatabaseSchema
from repro.storage.database import Database
from repro.storage.index import IndexSet
from repro.workloads import facebook


class Maintainers:
    """Builds one kind of index maintainer — the seam of ``maintenance.apply_updates``."""

    def __init__(self, kind: str):
        self.kind = kind
        self.backends: list[SQLiteBackend] = []

    def build(self, database: Database, access: AccessSchema):
        """An ``IndexSet`` over ``database``, or a SQLite mirror of it with its index tables."""
        if self.kind == "indexset":
            return IndexSet.build(database, access)
        backend = SQLiteBackend(database)
        backend.create_index_tables(access)
        self.backends.append(backend)
        return backend

    def contents(self, maintainer) -> dict:
        """Everything ``maintainer`` holds, comparable with a freshly built one's."""
        if self.kind == "indexset":
            return {index.constraint: index._entries for index in maintainer}
        tables = [*maintainer.database.relation_names(), *maintainer._index_constraints]
        return {
            table: sorted(maintainer.run_sql(f'SELECT * FROM "{table}"').rows)
            for table in tables
        }


@pytest.fixture(params=["indexset", "sqlite"])
def maintainers(request):
    """One contract, both maintainers: every test using this runs over each kind."""
    kinds = Maintainers(request.param)
    yield kinds
    for backend in kinds.backends:
        backend.close()


@pytest.fixture
def fb_schema() -> DatabaseSchema:
    """The friend/dine/cafe schema of Example 1."""
    return facebook.schema()


@pytest.fixture
def fb_access(fb_schema) -> AccessSchema:
    """The access schema A0 = {ψ1, ψ2, ψ3, ψ4} of Example 1."""
    return facebook.access_schema(fb_schema)


@pytest.fixture
def fb_database() -> Database:
    """A small deterministic instance of the Example 1 schema satisfying A0."""
    return facebook.generate(scale=40, seed=7)


@pytest.fixture
def fb_indexes(fb_database, fb_access) -> IndexSet:
    return IndexSet.build(fb_database, fb_access)


@pytest.fixture
def fb_q0():
    """Q0 = Q1 − Q2 as written in Example 1 (not covered)."""
    return facebook.query_q0()


@pytest.fixture
def fb_q0_prime():
    """Q0' = Q1 − Q3, the covered rewriting of Q0."""
    return facebook.query_q0_prime()


@pytest.fixture
def fb_q1():
    return facebook.query_q1()


@pytest.fixture
def fb_q2():
    return facebook.query_q2()


@pytest.fixture
def tiny_schema() -> DatabaseSchema:
    """A two-relation schema used by unit tests that need something minimal."""
    return DatabaseSchema.from_dict(
        {
            "r": ["a", "b", "e"],
            "s": ["f", "g", "h"],
        }
    )


@pytest.fixture
def tiny_access(tiny_schema) -> AccessSchema:
    """The access schema A1 of Example 3."""
    return AccessSchema(
        [
            AccessConstraint.of("r", ["a", "b"], "e", 10),
            AccessConstraint.of("s", "f", ["g", "h"], 2),
            AccessConstraint.of("s", ["g", "h"], ["g", "h"], 1),
        ],
        schema=tiny_schema,
    )


@pytest.fixture
def hot_cold_setup():
    """A two-relation database plus a covered query that reads only ``hot``.

    Used by the cache-invalidation tests: writes to ``cold`` are unrelated
    to the query's dependency set, writes to ``hot`` are dependent.
    Returns ``(database, access_schema, hot_query)``.
    """
    from repro.core.query import Relation, eq

    schema = DatabaseSchema.from_dict({"hot": ["k", "v"], "cold": ["k", "v"]})
    access = AccessSchema(
        [
            AccessConstraint.of("hot", "k", "v", 5, name="hot_kv"),
            AccessConstraint.of("cold", "k", "v", 5, name="cold_kv"),
        ],
        schema=schema,
    )
    database = Database(schema)
    database.insert_many("hot", [("a", 1), ("a", 2), ("b", 3)])
    database.insert_many("cold", [("x", 9)])
    hot = Relation.from_schema(schema, "hot")
    hot_query = hot.select(eq(hot["k"], "a")).project([hot["v"]])
    return database, access, hot_query


@pytest.fixture
def tiny_database(tiny_schema) -> Database:
    database = Database(tiny_schema)
    database.insert_many(
        "r",
        [
            (1, 1, "x"),
            (1, 2, "y"),
            (2, 1, "z"),
            (2, 2, "w"),
            (1, 3, "v"),
        ],
    )
    database.insert_many(
        "s",
        [
            ("u1", 1, 1),
            ("u1", 2, 2),
            ("u2", 1, 2),
            ("u3", 3, 3),
        ],
    )
    return database
