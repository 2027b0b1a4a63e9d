"""Unit tests for database statistics collection."""

from repro.storage.database import Database
from repro.storage.statistics import DatabaseStatistics


class TestStatistics:
    def test_collect_counts(self, fb_schema):
        database = Database(fb_schema)
        database.insert_many("cafe", [("c1", "nyc"), ("c2", "nyc"), ("c3", "boston")])
        stats = DatabaseStatistics.collect(database)
        cafe = stats["cafe"]
        assert cafe.row_count == 3
        assert cafe.distinct("cid") == 3
        assert cafe.distinct("city") == 2
        assert "cafe" in stats

    def test_distinct_of_empty_relation(self, fb_schema):
        database = Database(fb_schema)
        stats = DatabaseStatistics.collect(database)
        assert stats["friend"].row_count == 0
        assert stats["friend"].distinct("pid") == 0

    def test_sample_values_bounded(self, fb_schema):
        database = Database(fb_schema)
        database.insert_many("cafe", [(f"c{i}", f"city{i}") for i in range(100)])
        stats = DatabaseStatistics.collect(database, sample_size=5)
        assert len(stats["cafe"].sample_values["cid"]) == 5

    def test_workload_statistics(self, fb_database):
        stats = DatabaseStatistics.collect(fb_database)
        assert stats["dine"].row_count == len(fb_database.relation("dine"))
        assert stats["dine"].distinct("month") <= 12
