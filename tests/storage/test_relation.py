"""Unit tests for relation instances."""

import pytest

from repro.core.errors import StorageError
from repro.core.schema import RelationSchema
from repro.storage.relation import RelationInstance


@pytest.fixture
def cafe_schema():
    return RelationSchema("cafe", ["cid", "city"])


@pytest.fixture
def cafe(cafe_schema):
    return RelationInstance(cafe_schema, [("c1", "nyc"), ("c2", "boston")])


class TestInsertDelete:
    def test_insert_positional_and_mapping(self, cafe):
        assert cafe.insert(("c3", "austin"))
        assert cafe.insert({"cid": "c4", "city": "denver"})
        assert len(cafe) == 4

    def test_duplicate_insert_is_noop(self, cafe):
        assert not cafe.insert(("c1", "nyc"))
        assert len(cafe) == 2

    def test_insert_wrong_arity(self, cafe):
        with pytest.raises(StorageError, match="arity"):
            cafe.insert(("c5",))

    def test_insert_missing_attribute(self, cafe):
        with pytest.raises(StorageError, match="missing attributes"):
            cafe.insert({"cid": "c5"})

    def test_insert_many_counts_new_rows(self, cafe):
        added = cafe.insert_many([("c1", "nyc"), ("c9", "miami")])
        assert added == 1

    def test_delete(self, cafe):
        assert cafe.delete(("c1", "nyc"))
        assert not cafe.delete(("c1", "nyc"))
        assert len(cafe) == 1
        assert ("c1", "nyc") not in cafe

    def test_contains(self, cafe):
        assert ("c1", "nyc") in cafe
        assert {"cid": "c2", "city": "boston"} in cafe
        assert ("c2", "nyc") not in cafe

    def test_order_after_interleaved_insert_delete_reinsert(self, cafe):
        # Insertion order survives deletes; a re-inserted row goes to the end.
        cafe.insert(("c3", "austin"))
        cafe.delete(("c1", "nyc"))
        cafe.insert(("c4", "denver"))
        cafe.insert(("c1", "nyc"))
        cafe.delete(("c3", "austin"))
        expected = [("c2", "boston"), ("c4", "denver"), ("c1", "nyc")]
        assert list(cafe) == expected
        assert cafe.rows == tuple(expected)
        assert len(cafe) == 3

    def test_duplicate_and_missing_rows_change_nothing(self, cafe):
        before = cafe.rows
        assert not cafe.insert({"cid": "c2", "city": "boston"})
        assert not cafe.delete(("c2", "nyc"))
        assert cafe.insert_many([("c1", "nyc"), ("c1", "nyc")]) == 0
        assert cafe.rows == before
        assert cafe.delete(("c2", "boston")) and not cafe.delete(("c2", "boston"))
        assert cafe.rows == (("c1", "nyc"),)

    def test_delete_does_not_scan_the_relation(self, cafe_schema):
        # Proposition 12: a delete costs the tuple written, not |R|.  Rows
        # whose equality raises would be hit by any scan for the victim.
        class Unscannable(str):
            def __eq__(self, other):
                if self is other:
                    return True
                raise AssertionError("delete compared the victim with another row")

            __hash__ = str.__hash__

        rows = [(Unscannable(f"c{i}"), "x") for i in range(50)]
        instance = RelationInstance(cafe_schema, rows)
        assert instance.delete(rows[-1])
        assert len(instance) == 49


class TestAccessors:
    def test_rows_and_iteration(self, cafe):
        assert set(cafe.rows) == {("c1", "nyc"), ("c2", "boston")}
        assert sorted(cafe) == sorted(cafe.rows)

    def test_project(self, cafe):
        assert cafe.project(["city"]) == {("nyc",), ("boston",)}
        assert cafe.distinct_count(["city"]) == 2

    def test_group_max_multiplicity(self):
        schema = RelationSchema("dine", ["pid", "cid"])
        relation = RelationInstance(
            schema, [("p0", "c1"), ("p0", "c2"), ("p0", "c3"), ("p1", "c1")]
        )
        assert relation.group_max_multiplicity(["pid"], ["cid"]) == 3
        assert relation.group_max_multiplicity(["cid"], ["pid"]) == 2
        assert relation.group_max_multiplicity(["pid", "cid"], ["cid"]) == 1

    def test_group_max_multiplicity_empty_relation(self, cafe_schema):
        empty = RelationInstance(cafe_schema)
        assert empty.group_max_multiplicity(["cid"], ["city"]) == 0


class TestCSVRoundTrip:
    def test_round_trip(self, cafe, cafe_schema, tmp_path):
        path = tmp_path / "cafe.csv"
        cafe.to_csv(path)
        loaded = RelationInstance.from_csv(cafe_schema, path)
        # CSV stringifies values; compare on string forms
        assert {tuple(map(str, row)) for row in cafe.rows} == set(loaded.rows)

    def test_header_mismatch_rejected(self, cafe, tmp_path):
        path = tmp_path / "cafe.csv"
        cafe.to_csv(path)
        other_schema = RelationSchema("cafe", ["a", "b"])
        with pytest.raises(StorageError, match="header"):
            RelationInstance.from_csv(other_schema, path)

    def test_empty_file(self, cafe_schema, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        loaded = RelationInstance.from_csv(cafe_schema, path)
        assert len(loaded) == 0
