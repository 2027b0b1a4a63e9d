"""The partitioner: deterministic assignment, disjoint cover, guarded overrides."""

import zlib

import pytest

from repro.core.errors import StorageError
from repro.sharding import Partitioner, stable_hash
from repro.workloads import facebook


@pytest.fixture
def fb_schema():
    return facebook.schema()


class TestStableHash:
    def test_is_crc32_of_repr(self):
        # Python's str hash is salted per interpreter; the partitioner must
        # place the same key on the same shard across processes.
        assert stable_hash("p0") == zlib.crc32(repr("p0").encode("utf-8"))
        assert stable_hash(2015) == zlib.crc32(repr(2015).encode("utf-8"))

    def test_repeated_calls_agree(self):
        assert stable_hash(("p0", "c1")) == stable_hash(("p0", "c1"))


class TestPartitioner:
    def test_default_key_is_the_first_attribute(self, fb_schema):
        partitioner = Partitioner(fb_schema, 3)
        assert partitioner.attribute("friend") == "pid"
        assert partitioner.attribute("cafe") == "cid"

    def test_key_override_changes_routing(self, fb_schema):
        by_pid = Partitioner(fb_schema, 3)
        by_fid = Partitioner(fb_schema, 3, keys={"friend": "fid"})
        row = ("p1", "p2")
        assert by_pid.shard_for_row("friend", row) == by_pid.shard_for_value(
            "friend", "p1"
        )
        assert by_fid.shard_for_row("friend", row) == by_fid.shard_for_value(
            "friend", "p2"
        )

    def test_partition_is_a_disjoint_cover(self, fb_schema):
        database = facebook.generate(scale=25, seed=2)
        partitioner = Partitioner(fb_schema, 3)
        fragments = partitioner.partition(database)
        assert len(fragments) == 3
        for name in database.relation_names():
            original = set(database.relation(name).rows)
            pieces = [set(fragment.relation(name).rows) for fragment in fragments]
            assert set().union(*pieces) == original
            assert sum(len(piece) for piece in pieces) == len(original)  # disjoint
            for index, piece in enumerate(pieces):
                for row in piece:
                    assert partitioner.shard_for_row(name, row) == index

    def test_partition_leaves_the_input_untouched(self, fb_schema):
        database = facebook.generate(scale=25, seed=2)
        before = database.size
        Partitioner(fb_schema, 4).partition(database)
        assert database.size == before

    def test_validation_errors(self, fb_schema):
        with pytest.raises(StorageError, match="shard count"):
            Partitioner(fb_schema, 0)
        with pytest.raises(StorageError, match="not an attribute"):
            Partitioner(fb_schema, 2, keys={"friend": "city"})
        with pytest.raises(StorageError, match="unknown relations"):
            Partitioner(fb_schema, 2, keys={"nosuch": "pid"})
        with pytest.raises(StorageError, match="no partitioning defined"):
            Partitioner(fb_schema, 2).attribute("nosuch")

    def test_key_reads_the_partition_attribute(self, fb_schema):
        partitioner = Partitioner(fb_schema, 3, keys={"friend": "fid"})
        assert partitioner.key("friend", ("p1", "p2")) == "p2"
        assert partitioner.key("cafe", ("c1", "austin")) == "c1"

    def test_owner_is_the_crc32_hash_without_overrides(self, fb_schema):
        partitioner = Partitioner(fb_schema, 3)
        for value in ("p0", "p7", "c3", 2013):
            assert partitioner.shard_for_value("friend", value) == stable_hash(value) % 3
        assert partitioner.override_count == 0


class TestOverrides:
    """``(lo, hi, src, dst)``: keys in range that the map so far sends to ``src``."""

    def test_an_override_moves_only_the_sources_keys_in_range(self, fb_schema):
        partitioner = Partitioner(fb_schema, 3)
        values = [f"p{i}" for i in range(40)]
        before = {v: partitioner.shard_for_value("friend", v) for v in values}
        partitioner.add_override("friend", "p1", "p3", 0, 2)
        assert partitioner.override_count == 1
        for value in values:
            moved = "p1" <= value < "p3" and before[value] == 0
            expected = 2 if moved else before[value]
            assert partitioner.shard_for_value("friend", value) == expected
        assert any("p1" <= v < "p3" and before[v] == 0 for v in values)
        # another relation's keys and a key that does not compare stay put
        assert partitioner.shard_for_value("dine", "p1") == stable_hash("p1") % 3
        assert partitioner.shard_for_value("friend", 7) == stable_hash(7) % 3

    def test_overrides_chain_in_application_order(self, fb_schema):
        partitioner = Partitioner(fb_schema, 3)
        value = "p0"
        first = stable_hash(value) % 3
        second, third = (first + 1) % 3, (first + 2) % 3
        partitioner.add_override("friend", "p", "q", first, second)
        partitioner.add_override("friend", "p", "q", second, third)
        assert partitioner.shard_for_value("friend", value) == third
        assert partitioner.shard_for_row("friend", (value, "p1")) == third
