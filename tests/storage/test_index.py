"""Unit tests for constraint indexes and index sets."""

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.errors import ConstraintViolation, StorageError
from repro.core.planner import plan_query
from repro.evaluator.executor import PlanExecutor
from repro.storage.counters import AccessCounter
from repro.storage.database import Database
from repro.storage.index import ConstraintIndex, IndexSet
from repro.workloads import facebook


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
        assert len(list(index.keys())) == 2  # distinct X-values
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

    def test_total_sizes(self, small_db, fb_access):
        indexes = IndexSet.build(small_db, fb_access)
        assert indexes.total_size == sum(i.size for i in indexes)
        assert indexes.total_cell_size >= indexes.total_size
        assert len(list(indexes)) == 4

    def test_apply_insert_and_delete(self, small_db, fb_access):
        indexes = IndexSet.build(small_db, fb_access)
        psi1 = next(c for c in fb_access if c.name == "psi1")
        indexes.apply_insert("friend", ("p1", "f9"))
        assert ("f9", "p1") in indexes.index_for(psi1).lookup(("p1",))
        indexes.apply_delete("friend", ("p1", "f9"))
        assert ("f9", "p1") not in indexes.index_for(psi1).lookup(("p1",))


class TestLookupMany:
    def test_bulk_lookup_matches_per_key_lookups(self, fb_indexes, fb_access):
        psi1 = next(c for c in fb_access if c.name == "psi1")
        index = fb_indexes.index_for(psi1)
        keys = list(index.keys())[:5] + [("nobody",)]
        single_counter = AccessCounter()
        singles = []
        for key in keys:
            singles.extend(index.lookup(key, single_counter))
        bulk_counter = AccessCounter()
        bulk = index.lookup_many(keys, bulk_counter)
        assert sorted(bulk) == sorted(singles)
        assert bulk_counter.fetched == single_counter.fetched
        assert bulk_counter.index_probes == single_counter.index_probes == len(keys)
        assert bulk_counter.per_relation == single_counter.per_relation

    @pytest.mark.parametrize("count", [0, 1, 3, 100])
    def test_one_record_counts_like_a_lookup_per_key(self, fb_indexes, fb_access, count):
        psi2 = next(c for c in fb_access if c.name == "psi2")
        index = fb_indexes.index_for(psi2)
        stored = sorted(index.keys())
        assert len(stored) >= count
        # every third key misses: a probe that finds nothing is still a probe
        keys = [key if i % 3 else (f"nobody{i}", *key[1:]) for i, key in enumerate(stored[:count])]
        self.assert_counts_like_lookups(index, keys)

    def test_a_duplicate_key_is_probed_and_counted_again(self, fb_indexes, fb_access):
        psi1 = next(c for c in fb_access if c.name == "psi1")
        index = fb_indexes.index_for(psi1)
        first, second = sorted(index.keys())[:2]
        rows, counter = self.assert_counts_like_lookups(
            index, [first, second, first, ("nobody",), first]
        )
        assert counter.fetched == 3 * len(index.lookup(first)) + len(index.lookup(second))
        assert counter.fetched > len(rows)

    @staticmethod
    def assert_counts_like_lookups(index, keys):
        looked_up, singles = AccessCounter(), set()
        for key in keys:
            singles.update(index.lookup(key, looked_up))
        gathered = AccessCounter()
        rows = index.lookup_many(keys, gathered)
        assert isinstance(rows, set) and rows == singles
        assert gathered.fetched == looked_up.fetched
        assert gathered.index_probes == looked_up.index_probes == len(keys)
        assert gathered.per_relation == looked_up.per_relation
        return rows, gathered

    def test_a_plan_records_once_per_fetch_step_and_never_looks_up(
        self, fb_database, fb_access, fb_indexes, monkeypatch
    ):
        # Q1 bound to a witness chain friend -> dine -> cafe, so its answer has a row
        dined = {row[0]: row for row in sorted(fb_database.relation("dine").rows)}
        pid, fid = next(r for r in sorted(fb_database.relation("friend").rows) if r[1] in dined)
        _, cid, month, year = dined[fid]
        city = dict(fb_database.relation("cafe").rows)[cid]
        plan = plan_query(facebook.query_q1(pid, month, year, city), fb_access)
        records = []
        monkeypatch.setattr(
            ConstraintIndex, "lookup", lambda *args: pytest.fail("a per-key lookup ran")
        )
        monkeypatch.setattr(AccessCounter, "record_fetch", lambda *args: records.append(args))
        record_many = AccessCounter.record_fetch_many
        monkeypatch.setattr(
            AccessCounter,
            "record_fetch_many",
            lambda self, *args: records.append(args) or record_many(self, *args),
        )
        executor = PlanExecutor(fb_indexes)
        result = executor.execute(plan, capture_env=True)
        assert (cid,) in result.rows
        fetches = plan.fetch_steps()
        keyed_from = executor.compile(plan).keys
        assert all(result.env[keyed_from[step.id][0]] for step in fetches)  # each had keys
        assert len(records) == len(fetches) > 1
        assert result.counter.index_probes > len(fetches)  # a record covers many keys
