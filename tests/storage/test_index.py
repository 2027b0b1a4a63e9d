"""Unit tests for constraint indexes and index sets."""

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.errors import ConstraintViolation, StorageError
from repro.storage.counters import AccessCounter
from repro.storage.database import Database
from repro.storage.index import ConstraintIndex, IndexSet


@pytest.fixture
def small_db(fb_schema):
    database = Database(fb_schema)
    database.insert_many(
        "friend", [("p0", "f1"), ("p0", "f2"), ("p1", "f1")]
    )
    database.insert_many(
        "dine",
        [
            ("f1", "c1", "may", 2015),
            ("f1", "c2", "may", 2015),
            ("f2", "c1", "jan", 2014),
        ],
    )
    database.insert_many("cafe", [("c1", "nyc"), ("c2", "boston")])
    return database


class TestConstraintIndex:
    def test_lookup_returns_distinct_xy_values(self, small_db):
        psi1 = AccessConstraint.of("friend", "pid", "fid", 5000)
        index = ConstraintIndex(psi1, small_db.relation("friend"))
        values = index.lookup(("p0",))
        assert set(values) == {("f1", "p0"), ("f2", "p0")}
        assert index.lookup(("p9",)) == ()

    def test_lookup_records_access(self, small_db):
        psi1 = AccessConstraint.of("friend", "pid", "fid", 5000)
        index = ConstraintIndex(psi1, small_db.relation("friend"))
        counter = AccessCounter()
        index.lookup(("p0",), counter)
        assert counter.fetched == 2
        assert counter.index_probes == 1
        assert counter.per_relation["friend"] == 2

    def test_composite_key_lookup(self, small_db):
        psi2 = AccessConstraint.of("dine", ["pid", "year", "month"], "cid", 31)
        index = ConstraintIndex(psi2, small_db.relation("dine"))
        # keys follow sorted(lhs) = (month, pid, year)
        assert index.lhs == ("month", "pid", "year")
        values = index.lookup(("may", "f1", 2015))
        assert {v[index.columns.index("cid")] for v in values} == {"c1", "c2"}

    def test_empty_lhs_index(self, small_db):
        months = AccessConstraint.of("dine", (), "month", 12)
        index = ConstraintIndex(months, small_db.relation("dine"))
        values = index.lookup(())
        assert {v[0] for v in values} == {"may", "jan"}

    def test_wrong_relation_rejected(self, small_db):
        psi1 = AccessConstraint.of("friend", "pid", "fid", 5000)
        with pytest.raises(StorageError):
            ConstraintIndex(psi1, small_db.relation("dine"))

    def test_sizes(self, small_db):
        psi1 = AccessConstraint.of("friend", "pid", "fid", 5000)
        index = ConstraintIndex(psi1, small_db.relation("friend"))
        assert index.entry_count == 2
        assert index.size == 3
        assert index.cell_size == 6
        assert index.max_group_size() == 2

    def test_check_detects_violation(self, small_db):
        tight = AccessConstraint.of("friend", "pid", "fid", 1)
        index = ConstraintIndex(tight, small_db.relation("friend"))
        with pytest.raises(ConstraintViolation):
            index.check()

    def test_incremental_add_and_remove(self, small_db):
        psi1 = AccessConstraint.of("friend", "pid", "fid", 5000)
        relation = small_db.relation("friend")
        index = ConstraintIndex(psi1, relation)
        index.add_row(("p0", "f3"))
        assert ("f3", "p0") in index.lookup(("p0",))
        relation.insert(("p0", "f3"))
        relation.delete(("p0", "f3"))
        index.remove_row(("p0", "f3"))
        assert ("f3", "p0") not in index.lookup(("p0",))

    def test_remove_keeps_value_with_other_witness(self, fb_schema):
        """Deleting one tuple must not drop an XY value still present in another tuple."""
        database = Database(fb_schema)
        database.insert_many(
            "dine", [("p0", "c1", "may", 2015), ("p0", "c1", "jun", 2015)]
        )
        constraint = AccessConstraint.of("dine", "pid", "cid", 31)
        relation = database.relation("dine")
        index = ConstraintIndex(constraint, relation)
        relation.delete(("p0", "c1", "may", 2015))
        index.remove_row(("p0", "c1", "may", 2015))
        assert index.lookup(("p0",)) != ()


class TestIndexSet:
    def test_build_all(self, small_db, fb_access):
        indexes = IndexSet.build(small_db, fb_access)
        assert len(indexes) == 4
        for constraint in fb_access:
            assert constraint in indexes
            assert indexes.index_for(constraint).constraint == constraint

    def test_build_checks_violations(self, small_db, fb_schema):
        bad = AccessSchema(
            [AccessConstraint.of("friend", "pid", "fid", 1)], schema=fb_schema
        )
        with pytest.raises(ConstraintViolation):
            IndexSet.build(small_db, bad, check=True)
        # with check disabled the index is still built
        assert len(IndexSet.build(small_db, bad, check=False)) == 1

    def test_find_by_shape(self, small_db, fb_access):
        indexes = IndexSet.build(small_db, fb_access)
        found = indexes.find("friend", {"pid"}, {"fid"})
        assert found is not None
        assert indexes.find("friend", {"fid"}, {"pid"}) is None

    def test_missing_index_raises(self, small_db, fb_access):
        indexes = IndexSet.build(small_db, fb_access)
        other = AccessConstraint.of("cafe", "city", "cid", 100)
        with pytest.raises(StorageError):
            indexes.index_for(other)
        assert other not in indexes

    def test_total_sizes_and_report(self, small_db, fb_access):
        indexes = IndexSet.build(small_db, fb_access)
        assert indexes.total_size == sum(i.size for i in indexes)
        assert indexes.total_cell_size >= indexes.total_size
        report = indexes.size_report()
        assert len(report) == 4

    def test_apply_insert_and_delete(self, small_db, fb_access):
        indexes = IndexSet.build(small_db, fb_access)
        psi1 = next(c for c in fb_access if c.name == "psi1")
        indexes.apply_insert("friend", ("p1", "f9"))
        assert ("f9", "p1") in indexes.index_for(psi1).lookup(("p1",))
        indexes.apply_delete("friend", ("p1", "f9"))
        assert ("f9", "p1") not in indexes.index_for(psi1).lookup(("p1",))
