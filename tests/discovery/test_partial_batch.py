"""Partial-batch failure semantics of ``apply_updates``, on both maintainers.

A mid-batch failure must: keep the cleanly-applied prefix, leave storage and
the maintainer's indexes agreeing row by row (a row the maintainer refuses
is taken back out of storage), surface a :class:`MaintenanceError` carrying
the partial report and the original exception as its cause, settle the
version clock over every relation the aborted batch touched, and — at the
engine level — sweep the caches so no reader can ever be served pre-batch
rows.  ``TestApplyUpdatesPartialFailure`` holds an ``IndexSet`` and a
``SQLiteBackend`` mirror to that one contract.
"""

import pytest

from repro.core.engine import BoundedEngine
from repro.core.errors import MaintenanceError, StorageError, TransientFault
from repro.discovery.maintenance import Update, apply_updates


@pytest.fixture
def db(fb_schema):
    from repro.workloads import facebook

    return facebook.generate(scale=20, seed=3)


@pytest.fixture
def indexes(db, fb_access, maintainers):
    """The maintainer under test: an ``IndexSet`` or a SQLite mirror of ``db``."""
    return maintainers.build(db, fb_access)


def failing_delete(database, relation: str, nth: int):
    """Make the ``nth`` call to ``relation``'s delete raise a TransientFault."""
    instance = database.relation(relation)
    original = instance.delete
    calls = {"n": 0}

    def flaky(row):
        calls["n"] += 1
        if calls["n"] == nth:
            raise TransientFault("injected storage fault")
        return original(row)

    instance.delete = flaky
    return lambda: delattr(instance, "delete")


class TestApplyUpdatesPartialFailure:
    def test_prefix_kept_and_report_carried(self, db, indexes, fb_access):
        rows = list(db.relation("cafe").rows)[:3]
        updates = [Update.delete("cafe", row) for row in rows]
        restore = failing_delete(db, "cafe", 3)
        try:
            with pytest.raises(MaintenanceError) as excinfo:
                apply_updates(db, indexes, fb_access, updates)
        finally:
            restore()
        report = excinfo.value.report
        assert report is not None
        assert report.failed
        assert report.applied == 2
        assert report.failed_update == updates[2]
        assert "TransientFault" in report.error
        # The prefix really landed; the faulted row is still present.
        remaining = set(db.relation("cafe").rows)
        assert rows[0] not in remaining and rows[1] not in remaining
        assert rows[2] in remaining

    def test_clock_settled_over_partially_touched_relations(self, db, indexes, fb_access):
        rows = list(db.relation("cafe").rows)[:2]
        before = db.relation_version("cafe")
        restore = failing_delete(db, "cafe", 2)
        try:
            with pytest.raises(MaintenanceError) as excinfo:
                apply_updates(db, indexes, fb_access, [Update.delete("cafe", r) for r in rows])
        finally:
            restore()
        assert db.relation_version("cafe") > before
        assert excinfo.value.report.touched_relations == {"cafe"}
        assert excinfo.value.report.version == db.version

    def test_failure_on_first_update_touches_nothing(self, db, indexes, fb_access):
        row = next(iter(db.relation("cafe").rows))
        before = db.relation_version("cafe")
        restore = failing_delete(db, "cafe", 1)
        try:
            with pytest.raises(MaintenanceError) as excinfo:
                apply_updates(db, indexes, fb_access, [Update.delete("cafe", row)])
        finally:
            restore()
        assert excinfo.value.report.applied == 0
        assert excinfo.value.report.touched_relations == set()
        assert db.relation_version("cafe") == before  # nothing changed: no bump

    def test_indexes_stay_consistent_with_storage(
        self, db, indexes, fb_access, maintainers
    ):
        rows = list(db.relation("cafe").rows)[:3]
        restore = failing_delete(db, "cafe", 3)
        try:
            with pytest.raises(MaintenanceError):
                apply_updates(
                    db, indexes, fb_access, [Update.delete("cafe", r) for r in rows]
                )
        finally:
            restore()
        rebuilt = maintainers.build(db, fb_access)
        assert maintainers.contents(indexes) == maintainers.contents(rebuilt)

    @pytest.mark.parametrize("kind", ["insert", "delete"])
    def test_row_the_maintainer_refuses_is_taken_back_out_of_storage(
        self, db, indexes, fb_access, maintainers, monkeypatch, kind
    ):
        present = list(db.relation("cafe").rows)[:2]
        if kind == "insert":
            updates = [Update.insert("cafe", ("c_new1", "nyc")), Update.insert("cafe", ("c_new2", "nyc"))]
        else:
            updates = [Update.delete("cafe", row) for row in present]
        apply = getattr(indexes, f"apply_{kind}")
        calls = []

        def refusing(relation, row):
            calls.append(row)
            if len(calls) == 2:
                raise RuntimeError("index backend went away")  # not a ReproError
            return apply(relation, row)

        monkeypatch.setattr(indexes, f"apply_{kind}", refusing)
        before = db.version
        with pytest.raises(MaintenanceError) as excinfo:
            apply_updates(db, indexes, fb_access, updates)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        report = excinfo.value.report
        assert (report.applied, report.failed_update) == (1, updates[1])
        assert report.applied_updates == updates[:1]
        assert "RuntimeError" in report.error
        assert db.version == before + 1 == report.version  # settled over the prefix
        # The prefix landed on both sides; the refused row on neither.
        stored = set(db.relation("cafe").rows)
        if kind == "insert":
            assert ("c_new1", "nyc") in stored and ("c_new2", "nyc") not in stored
        else:
            assert present[0] not in stored and present[1] in stored
        monkeypatch.undo()
        rebuilt = maintainers.build(db, fb_access)
        assert maintainers.contents(indexes) == maintainers.contents(rebuilt)


class TestEnginePartialFailure:
    def test_no_stale_serve_after_partial_batch(self, hot_cold_setup):
        """The original stale-serve bug: a mid-batch failure used to leave the
        result cache unswept, so the next read served pre-batch rows."""
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        before = engine.execute(hot_query).rows
        assert engine.execute(hot_query).result_cached

        # Batch: delete ("a", 1) — applies; then delete ("a", 2) — faults.
        restore = failing_delete(database, "hot", 2)
        try:
            with pytest.raises(MaintenanceError) as excinfo:
                engine.apply_updates(
                    [Update.delete("hot", ("a", 1)), Update.delete("hot", ("a", 2))]
                )
        finally:
            restore()
        assert excinfo.value.report.applied == 1

        after = engine.execute(hot_query)
        assert not after.result_cached, "partial batch must sweep the result cache"
        assert after.rows == before - {(1,)}

    def test_partial_report_version_matches_database(self, hot_cold_setup):
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        restore = failing_delete(database, "hot", 2)
        try:
            with pytest.raises(MaintenanceError) as excinfo:
                engine.apply_updates(
                    [Update.delete("hot", ("a", 1)), Update.delete("hot", ("a", 2))]
                )
        finally:
            restore()
        assert excinfo.value.report.version == database.version

    def test_clean_batch_still_reports_unfailed(self, hot_cold_setup):
        database, access, _ = hot_cold_setup
        engine = BoundedEngine(database, access)
        report = engine.apply_updates([Update.delete("hot", ("a", 1))])
        assert not report.failed
        assert report.error is None


class TestRowValidation:
    """Satellite 2: ``apply_insert`` / ``apply_delete`` validate before mutating."""

    def test_bad_arity_insert_leaves_everything_untouched(self, hot_cold_setup):
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        baseline = engine.execute(hot_query).rows
        version = database.version
        rows_before = set(database.relation("hot").rows)
        with pytest.raises(StorageError, match="expects 2 values|arity|2"):
            engine.apply_insert("hot", ("a", 1, "extra"))
        assert set(database.relation("hot").rows) == rows_before
        assert database.version == version
        assert engine.execute(hot_query).rows == baseline

    def test_unknown_column_mapping_rejected_before_mutation(self, hot_cold_setup):
        database, access, _ = hot_cold_setup
        engine = BoundedEngine(database, access)
        version = database.version
        with pytest.raises(StorageError, match="unknown attributes.*nope"):
            engine.apply_insert("hot", {"k": "z", "v": 1, "nope": 2})
        assert database.version == version

    def test_unknown_column_delete_rejected(self, hot_cold_setup):
        database, access, _ = hot_cold_setup
        engine = BoundedEngine(database, access)
        with pytest.raises(StorageError, match="unknown attributes"):
            engine.apply_delete("hot", {"k": "a", "v": 1, "wrong": 1})

    def test_valid_mapping_insert_still_works(self, hot_cold_setup):
        database, access, _ = hot_cold_setup
        engine = BoundedEngine(database, access)
        engine.apply_insert("hot", {"k": "z", "v": 42})
        assert ("z", 42) in set(database.relation("hot").rows)

    def test_relation_prepare_rejects_unknown_attributes(self, fb_database):
        instance = fb_database.relation("cafe")
        row = dict(zip(instance.schema.attributes, next(iter(instance.rows))))
        row["bogus_column"] = 1
        with pytest.raises(StorageError, match="unknown attributes.*bogus_column"):
            instance.prepare(row)
