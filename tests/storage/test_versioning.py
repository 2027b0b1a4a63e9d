"""Data versioning: the VersionClock and Database's per-relation counters."""

from repro.storage.counters import VersionClock
from repro.storage.database import Database


class TestVersionClock:
    def test_starts_at_zero(self):
        clock = VersionClock()
        assert clock.global_version == 0
        assert clock.version_of("anything") == 0
        assert clock.snapshot(["a", "b"]) == (0, 0)

    def test_bump_advances_global_and_stamps_keys(self):
        clock = VersionClock()
        version = clock.bump(["r", "s"])
        assert version == 1
        assert clock.global_version == 1
        assert clock.version_of("r") == 1
        assert clock.version_of("s") == 1
        assert clock.version_of("t") == 0

    def test_batch_costs_one_tick(self):
        clock = VersionClock()
        clock.bump(["r", "s", "t"])
        assert clock.global_version == 1

    def test_snapshot_detects_interleaved_writes(self):
        clock = VersionClock()
        clock.bump(["r"])
        before = clock.snapshot(["r", "s"])
        assert clock.snapshot(["r", "s"]) == before  # no write, stable token
        clock.bump(["s"])
        assert clock.snapshot(["r", "s"]) != before
        # a write to an unrelated key leaves the token unchanged
        stable = clock.snapshot(["r"])
        clock.bump(["s"])
        assert clock.snapshot(["r"]) == stable

    def test_versions_are_monotonic(self):
        clock = VersionClock()
        seen = [clock.bump(["r"]) for _ in range(5)]
        assert seen == sorted(seen)
        assert len(set(seen)) == 5


class TestDatabaseVersioning:
    def test_insert_bumps_touched_relation_only(self, fb_schema):
        database = Database(fb_schema)
        base = database.version
        assert database.insert("friend", ("p0", "f1"))
        assert database.version == base + 1
        assert database.relation_version("friend") == database.version
        assert database.relation_version("cafe") == 0

    def test_noop_writes_do_not_bump(self, fb_schema):
        database = Database(fb_schema)
        database.insert("friend", ("p0", "f1"))
        version = database.version
        assert not database.insert("friend", ("p0", "f1"))  # duplicate
        assert not database.delete("friend", ("p9", "f9"))  # missing
        assert database.version == version

    def test_insert_many_is_one_tick(self, fb_schema):
        database = Database(fb_schema)
        base = database.version
        added = database.insert_many("friend", [("p0", f"f{i}") for i in range(10)])
        assert added == 10
        assert database.version == base + 1

    def test_delete_bumps(self, fb_schema):
        database = Database(fb_schema)
        database.insert("friend", ("p0", "f1"))
        version = database.version
        assert database.delete("friend", ("p0", "f1"))
        assert database.version == version + 1
