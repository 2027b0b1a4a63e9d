"""Unit tests for relational schemas and attributes."""

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import Attribute, DatabaseSchema, RelationSchema


class TestAttribute:
    def test_str_is_qualified(self):
        assert str(Attribute("dine", "cid")) == "dine.cid"

    def test_parse_qualified(self):
        attr = Attribute.parse("cafe.city")
        assert attr == Attribute("cafe", "city")

    def test_parse_unqualified_with_default(self):
        assert Attribute.parse("city", "cafe") == Attribute("cafe", "city")

    def test_parse_unqualified_without_default_raises(self):
        with pytest.raises(SchemaError):
            Attribute.parse("city")

    def test_ordering_and_hashing(self):
        a = Attribute("r", "a")
        b = Attribute("r", "b")
        assert a < b
        assert len({a, Attribute("r", "a"), b}) == 2


class TestRelationSchema:
    def test_basic_properties(self):
        schema = RelationSchema("friend", ["pid", "fid"])
        assert len(schema) == 2
        assert "pid" in schema
        assert "xid" not in schema
        assert list(schema) == ["pid", "fid"]

    def test_position_lookup(self):
        schema = RelationSchema("dine", ["pid", "cid", "month", "year"])
        assert schema.position("month") == 2
        assert schema.positions(["year", "pid"]) == (3, 0)

    def test_position_unknown_attribute(self):
        schema = RelationSchema("dine", ["pid", "cid"])
        with pytest.raises(SchemaError, match="no attribute"):
            schema.position("city")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            RelationSchema("r", ["a", "a"])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("", ["a"])

    def test_empty_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [])

    def test_qualified_attributes(self):
        schema = RelationSchema("cafe", ["cid", "city"])
        assert schema.qualified() == (Attribute("cafe", "cid"), Attribute("cafe", "city"))

    def test_rename_keeps_attributes(self):
        schema = RelationSchema("cafe", ["cid", "city"])
        renamed = schema.rename("cafe2")
        assert renamed.name == "cafe2"
        assert renamed.attributes == schema.attributes

    def test_equality_and_hash(self):
        a = RelationSchema("r", ["x", "y"])
        b = RelationSchema("r", ["x", "y"])
        c = RelationSchema("r", ["y", "x"])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestDatabaseSchema:
    def test_from_dict_and_lookup(self, fb_schema):
        assert "friend" in fb_schema
        assert fb_schema["dine"].attributes == ("pid", "cid", "month", "year")
        assert len(fb_schema) == 3

    def test_unknown_relation(self, fb_schema):
        with pytest.raises(SchemaError, match="unknown relation"):
            fb_schema["restaurant"]

    def test_duplicate_relation_rejected(self):
        schema = DatabaseSchema([RelationSchema("r", ["a"])])
        with pytest.raises(SchemaError, match="already declared"):
            schema.add(RelationSchema("r", ["b"]))

    def test_relation_names_order(self, fb_schema):
        assert fb_schema.relation_names() == ("friend", "dine", "cafe")

    def test_get_returns_none_for_missing(self, fb_schema):
        assert fb_schema.get("nope") is None

    def test_equality(self, fb_schema):
        assert fb_schema == DatabaseSchema.from_dict(
            {
                "friend": ["pid", "fid"],
                "dine": ["pid", "cid", "month", "year"],
                "cafe": ["cid", "city"],
            }
        )
