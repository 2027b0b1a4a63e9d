"""Unit tests for the reference RA evaluator."""

import pytest

from repro.core.errors import QueryError
from repro.core.query import (
    Comparison,
    Constant,
    Difference,
    Join,
    Product,
    Relation,
    Rename,
    Union,
    conjunction,
    eq,
)
from repro.evaluator.algebra import AlgebraEvaluator, ResultSet, evaluate
from repro.storage.counters import AccessCounter
from repro.storage.database import Database


@pytest.fixture
def db(fb_schema):
    database = Database(fb_schema)
    database.insert_many(
        "friend", [("p0", "f1"), ("p0", "f2"), ("p1", "f3")]
    )
    database.insert_many(
        "dine",
        [
            ("f1", "c1", "may", 2015),
            ("f2", "c2", "may", 2015),
            ("f3", "c1", "jan", 2014),
            ("p0", "c3", "feb", 2015),
        ],
    )
    database.insert_many("cafe", [("c1", "nyc"), ("c2", "boston"), ("c3", "nyc")])
    return database


@pytest.fixture
def friend(fb_schema):
    return Relation.from_schema(fb_schema, "friend")


@pytest.fixture
def dine(fb_schema):
    return Relation.from_schema(fb_schema, "dine")


@pytest.fixture
def cafe(fb_schema):
    return Relation.from_schema(fb_schema, "cafe")


class TestBasicOperators:
    def test_scan(self, db, cafe):
        result = evaluate(cafe, db)
        assert len(result) == 3
        assert result.columns == ("cafe.cid", "cafe.city")

    def test_selection_constant(self, db, cafe):
        result = evaluate(cafe.select(eq(cafe["city"], "nyc")), db)
        assert result.values("cafe.cid") == {"c1", "c3"}

    def test_selection_inequality(self, db, dine):
        result = evaluate(dine.select(Comparison(dine["year"], ">", Constant(2014))), db)
        assert len(result) == 3

    def test_selection_incomparable_types_do_not_match(self, db, dine):
        result = evaluate(dine.select(Comparison(dine["year"], "<", Constant("zzz"))), db)
        assert len(result) == 0

    def test_projection_dedupes(self, db, dine):
        result = evaluate(dine.project(["month"]), db)
        assert result.rows == {("may",), ("jan",), ("feb",)}

    def test_product(self, db, friend, cafe):
        result = evaluate(Product(friend, cafe), db)
        assert len(result) == 3 * 3
        assert len(result.columns) == 4

    def test_join(self, db, friend, dine):
        joined = Join(friend, dine, eq(friend["fid"], dine["pid"]))
        result = evaluate(joined, db)
        assert len(result) == 3

    def test_join_with_residual_condition(self, db, friend, dine):
        condition = conjunction(
            [eq(friend["fid"], dine["pid"]), Comparison(dine["year"], ">", Constant(2014))]
        )
        result = evaluate(Join(friend, dine, condition), db)
        assert len(result) == 2

    def test_union_and_difference(self, db, cafe, fb_schema):
        cafe2 = Relation("cafe2", fb_schema["cafe"].attributes, base="cafe")
        nyc = cafe.select(eq(cafe["city"], "nyc")).project([cafe["cid"]])
        boston = cafe2.select(eq(cafe2["city"], "boston")).project([cafe2["cid"]])
        union = evaluate(Union(nyc, boston), db)
        assert union.rows == {("c1",), ("c2",), ("c3",)}
        difference = evaluate(Difference(nyc, boston), db)
        assert difference.rows == {("c1",), ("c3",)}

    def test_rename(self, db, cafe):
        renamed = Rename(cafe.project(["cid"]), "venues")
        result = evaluate(renamed, db)
        assert result.columns == ("venues.cid",)

    def test_example1_q0(self, db, fb_q0):
        """On this hand-built instance, p0's friends dined at c1/c2 (nyc: c1),
        while p0 itself dined only at c3 — so Q0 returns {c1}."""
        result = evaluate(fb_q0, db)
        assert result.rows == {("c1",)}


class TestResultSet:
    def test_column_position_error(self):
        result = ResultSet(("a",), frozenset({(1,)}))
        with pytest.raises(QueryError):
            result.column_position("b")

    def test_values(self):
        result = ResultSet(("a",), frozenset({(1,), (2,)}))
        assert result.values("a") == {1, 2}


class TestAccessAccounting:
    def test_scans_recorded(self, db, friend, dine):
        counter = AccessCounter()
        evaluate(Join(friend, dine, eq(friend["fid"], dine["pid"])), db, counter)
        assert counter.scanned == len(db.relation("friend")) + len(db.relation("dine"))
        assert counter.fetched == 0

    def test_evaluator_reuse(self, db, cafe):
        evaluator = AlgebraEvaluator(db)
        evaluator.evaluate(cafe)
        evaluator.evaluate(cafe)
        assert evaluator.counter.scanned == 6
