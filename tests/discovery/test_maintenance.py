"""Unit tests for incremental maintenance of ⟨A, I_A⟩ (Proposition 12)."""

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.discovery.maintenance import Update, apply_updates
from repro.storage.database import Database
from repro.storage.index import IndexSet
from repro.workloads import facebook


@pytest.fixture
def db(fb_schema):
    database = Database(fb_schema)
    database.insert_many("friend", [("p0", "f1"), ("p0", "f2")])
    database.insert_many("dine", [("f1", "c1", "may", 2015)])
    database.insert_many("cafe", [("c1", "nyc")])
    return database


@pytest.fixture
def indexes(db, fb_access, maintainers):
    """The maintainer under test: an ``IndexSet`` or a SQLite mirror of ``db``."""
    return maintainers.build(db, fb_access)


class TestUpdate:
    def test_constructors(self):
        insert = Update.insert("friend", ("p0", "f9"))
        delete = Update.delete("friend", ("p0", "f9"))
        assert insert.kind == "insert"
        assert delete.kind == "delete"
        assert insert.row == ("p0", "f9")


class TestApplyUpdates:
    def test_insert_updates_database_and_indexes(self, db, indexes, fb_access):
        psi1 = next(c for c in fb_access if c.name == "psi1")
        report = apply_updates(
            db, indexes, fb_access, [Update.insert("friend", ("p0", "f3"))]
        )
        assert report.applied == 1
        assert ("p0", "f3") in db.relation("friend")
        assert ("f3", "p0") in indexes.group_of(psi1, ("p0", "f3"))
        assert report.work_units > 0

    def test_duplicate_insert_skipped(self, db, indexes, fb_access):
        report = apply_updates(
            db, indexes, fb_access, [Update.insert("friend", ("p0", "f1"))]
        )
        assert report.applied == 0
        assert report.skipped == 1

    def test_delete_updates_indexes(self, db, indexes, fb_access):
        psi1 = next(c for c in fb_access if c.name == "psi1")
        report = apply_updates(
            db, indexes, fb_access, [Update.delete("friend", ("p0", "f1"))]
        )
        assert report.applied == 1
        group = indexes.group_of(psi1, ("p0", "f1"))
        assert ("f1", "p0") not in group and ("f2", "p0") in group

    def test_delete_missing_row_skipped(self, db, indexes, fb_access):
        report = apply_updates(
            db, indexes, fb_access, [Update.delete("friend", ("p9", "f9"))]
        )
        assert report.skipped == 1

    def test_overfilling_insert_is_applied_and_read_back_by_group(self, fb_schema, maintainers):
        # The loop maintains I_A and judges no bound: the serving core counts
        # the groups ``group_of`` reads back, after the batch, against N.
        tight = AccessSchema(
            [AccessConstraint.of("friend", "pid", "fid", 1, name="tight")],
            schema=fb_schema,
        )
        database = Database(fb_schema)
        database.insert("friend", ("p0", "f1"))
        indexes = maintainers.build(database, tight)
        report = apply_updates(
            database,
            indexes,
            tight,
            [
                Update.insert("friend", ("p1", "f1")),  # its own group: within the bound
                Update.insert("friend", ("p0", "f2")),
                Update.insert("friend", ("p0", "f3")),
            ],
        )
        assert report.applied == 3
        (constraint,) = tight
        assert len(indexes.group_of(constraint, ("p1", "f1"))) == 1
        assert len(indexes.group_of(constraint, ("p0", "f3"))) == 3

    def test_queries_stay_correct_after_updates(self, fb_database, fb_access, maintainers):
        from repro.core.planner import plan_query
        from repro.evaluator.algebra import evaluate
        from repro.evaluator.executor import execute_plan

        indexes = maintainers.build(fb_database, fb_access)
        updates = [
            Update.insert("cafe", ("c_up", "nyc")),
            Update.insert("friend", ("p0", "p_up")),
            Update.insert("dine", ("p_up", "c_up", "may", 2015)),
            Update.delete("cafe", next(iter(fb_database.relation("cafe").rows))),
        ]
        apply_updates(fb_database, indexes, fb_access, updates)
        q1 = facebook.query_q1()
        plan = plan_query(q1, fb_access)
        if isinstance(indexes, IndexSet):
            answered = execute_plan(plan, indexes).rows
        else:
            answered = indexes.run_bounded_plan(plan).rows
        assert answered == evaluate(q1, fb_database).rows

    def test_work_independent_of_database_size(self, fb_access):
        """Proposition 12: maintenance work depends on |ΔD| and A only."""
        small = facebook.generate(scale=30, seed=2)
        large = facebook.generate(scale=150, seed=2)
        updates = [Update.insert("friend", (f"px{i}", f"fy{i}")) for i in range(20)]
        small_report = apply_updates(
            small, IndexSet.build(small, fb_access), fb_access, updates
        )
        large_report = apply_updates(
            large, IndexSet.build(large, fb_access), fb_access, updates
        )
        assert small_report.work_units == large_report.work_units


class TestBatchVersioning:
    def test_batch_costs_one_version_bump(self, db, indexes, fb_access):
        base = db.version
        report = apply_updates(
            db,
            indexes,
            fb_access,
            [
                Update.insert("friend", ("p0", "f3")),
                Update.insert("friend", ("p0", "f4")),
                Update.insert("cafe", ("c2", "sf")),
            ],
        )
        assert report.applied == 3
        assert report.touched_relations == {"friend", "cafe"}
        assert db.version == base + 1  # one tick for the whole batch
        assert report.version == db.version
        assert db.relation_version("friend") == db.version
        assert db.relation_version("cafe") == db.version
        assert db.relation_version("dine") < db.version

    def test_skipped_updates_do_not_touch(self, db, indexes, fb_access):
        base = db.version
        report = apply_updates(
            db,
            indexes,
            fb_access,
            [
                Update.insert("friend", ("p0", "f1")),  # duplicate
                Update.delete("dine", ("zz", "zz", "zz", 0)),  # missing
            ],
        )
        assert report.applied == 0
        assert report.touched_relations == set()
        assert report.version is None
        assert db.version == base


class TestEngineBatchUpdates:
    def test_engine_batch_repairs_cached_result_with_delta_maintenance(
        self, fb_database, fb_access, row_kernels
    ):
        from repro.core.engine import BoundedEngine
        from repro.evaluator.algebra import evaluate

        # row kernels, so a dirty entry is patched
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        assert engine.execute(q1).result_cached
        base_version = fb_database.version
        report = engine.apply_updates(
            [
                Update.insert("cafe", ("c_b", "nyc")),
                Update.insert("friend", ("p0", "p_b")),
                Update.insert("dine", ("p_b", "c_b", "may", 2015)),
            ]
        )
        assert report.applied == 3
        assert report.applied_updates[0].row == ("c_b", "nyc")
        assert fb_database.version == base_version + 1  # one bump for the batch
        assert report.version == fb_database.version
        # one derivation pass for the whole batch, not one per update
        stats = engine.cache_stats()["result_cache"]
        assert stats["repaired"] == 1
        assert engine.cache_stats()["plan_store"]["sweeps"] == 0
        result = engine.execute(q1)
        assert result.cached and result.result_cached
        assert ("c_b",) in result.rows
        assert result.rows == evaluate(q1, fb_database).rows

    def test_engine_batch_drops_a_dirty_columnar_entry_once_and_stays_correct(
        self, fb_database, fb_access, columnar_kernels
    ):
        from repro.core.engine import BoundedEngine
        from repro.evaluator.algebra import evaluate

        # columnar kernels, so a dirty entry is dropped rather than patched
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        assert engine.execute(q1).result_cached
        base_version = fb_database.version
        report = engine.apply_updates(
            [
                Update.insert("cafe", ("c_b", "nyc")),
                Update.insert("friend", ("p0", "p_b")),
                Update.insert("dine", ("p_b", "c_b", "may", 2015)),
            ]
        )
        assert report.applied == 3
        assert fb_database.version == base_version + 1  # one bump for the batch
        # one settlement for the whole batch: one drop, no sweep
        stats = engine.cache_stats()["result_cache"]
        assert (stats["repaired"], stats["invalidated"]) == (0, 1)
        assert stats["repair_fallback_reasons"] == {"executor_mode": 1}
        assert engine.cache_stats()["plan_store"]["sweeps"] == 0
        result = engine.execute(q1)
        assert result.cached and not result.result_cached
        assert ("c_b",) in result.rows
        assert result.rows == evaluate(q1, fb_database).rows

    def test_engine_batch_on_unrelated_relation_keeps_hot_entries(self, hot_cold_setup):
        from repro.core.engine import BoundedEngine

        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        engine.execute(hot_query)
        report = engine.apply_updates(
            [Update.insert("cold", ("y", 1)), Update.delete("cold", ("x", 9))]
        )
        assert report.touched_relations == {"cold"}
        repeat = engine.execute(hot_query)
        assert repeat.cached
        assert repeat.result_cached
        assert engine.cache_stats()["plan_store"]["invalidated"] == 0

    def test_engine_batch_of_noops_sweeps_nothing(self, fb_database, fb_access):
        from repro.core.engine import BoundedEngine

        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        existing = next(iter(fb_database.relation("cafe").rows))
        report = engine.apply_updates([Update.insert("cafe", existing)])
        assert report.applied == 0
        assert engine.cache_stats()["plan_store"]["sweeps"] == 0
        assert engine.execute(q1).result_cached
