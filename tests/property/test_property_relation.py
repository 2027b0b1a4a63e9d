"""Property-based tests for the storage layer (set semantics, indexes)."""

from hypothesis import given, settings, strategies as st

from repro.core.access import AccessConstraint
from repro.core.schema import RelationSchema
from repro.storage.index import ConstraintIndex
from repro.storage.relation import RelationInstance

rows = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["x", "y", "z"]),
)
row_lists = st.lists(rows, max_size=40)


def make_relation(data):
    schema = RelationSchema("r", ["a", "b", "c"])
    return RelationInstance(schema, data)


class TestSetSemantics:
    @given(row_lists)
    @settings(max_examples=60, deadline=None)
    def test_no_duplicates_stored(self, data):
        relation = make_relation(data)
        assert len(relation) == len(set(data))
        assert set(relation.rows) == set(data)

    @given(row_lists, rows)
    @settings(max_examples=60, deadline=None)
    def test_insert_then_delete_roundtrip(self, data, extra):
        relation = make_relation(data)
        was_new = relation.insert(extra)
        assert extra in relation
        if was_new:
            assert relation.delete(extra)
            assert extra not in relation
            assert set(relation.rows) == set(data)

    @given(row_lists)
    @settings(max_examples=60, deadline=None)
    def test_projection_matches_python_set(self, data):
        relation = make_relation(data)
        assert relation.project(["a"]) == {(row[0],) for row in data}
        assert relation.project(["c", "a"]) == {(row[2], row[0]) for row in data}

    @given(row_lists)
    @settings(max_examples=60, deadline=None)
    def test_group_max_multiplicity_matches_bruteforce(self, data):
        relation = make_relation(data)
        groups = {}
        for a, b, c in set(data):
            groups.setdefault(a, set()).add((b,))
        expected = max((len(v) for v in groups.values()), default=0)
        assert relation.group_max_multiplicity(["a"], ["b"]) == expected


class TestConstraintIndexProperties:
    @given(row_lists)
    @settings(max_examples=60, deadline=None)
    def test_lookup_equals_filtered_projection(self, data):
        relation = make_relation(data)
        constraint = AccessConstraint.of("r", "a", "b", 1000)
        index = ConstraintIndex(constraint, relation)
        for key in {row[0] for row in data}:
            expected = {
                (row[0], row[1]) if index.columns == ("a", "b") else (row[1], row[0])
                for row in set(data)
                if row[0] == key
            }
            got = set(index.lookup((key,)))
            normalized = {
                (value[index.columns.index("a")], value[index.columns.index("b")])
                for value in got
            }
            assert normalized == {(row[0], row[1]) for row in set(data) if row[0] == key}

    @given(row_lists)
    @settings(max_examples=60, deadline=None)
    def test_index_size_bounded_by_relation(self, data):
        relation = make_relation(data)
        constraint = AccessConstraint.of("r", "a", ["b", "c"], 1000)
        index = ConstraintIndex(constraint, relation)
        assert index.size <= len(relation)
        assert len(list(index.keys())) <= len(relation)  # one group per X-value

    @given(row_lists, rows)
    @settings(max_examples=60, deadline=None)
    def test_incremental_insert_matches_rebuild(self, data, extra):
        relation = make_relation(data)
        constraint = AccessConstraint.of("r", "a", "c", 1000)
        index = ConstraintIndex(constraint, relation)
        if relation.insert(extra):
            index.add_row(extra)
        rebuilt = ConstraintIndex(constraint, relation)
        for key in {row[0] for row in relation.rows}:
            assert set(index.lookup((key,))) == set(rebuilt.lookup((key,)))
