"""Unit tests for query normalization (distinct relation occurrences, Lemma 1)."""

import pytest

from repro.core.errors import QueryError
from repro.core.normalize import normalize
from repro.core.query import Difference, Projection, Relation, Rename, Union, eq
from repro.core.schema import Attribute
from repro.workloads import facebook


class TestNormalizeSimple:
    def test_single_occurrence_untouched(self, fb_schema):
        friend = Relation.from_schema(fb_schema, "friend")
        query = friend.select(eq(friend["pid"], "p0"))
        normalized = normalize(query)
        assert normalized.occurrences == {"friend": "friend"}
        assert normalized.renamed == {}
        assert [r.name for r in normalized.query.relations()] == ["friend"]

    def test_duplicate_across_difference_renamed(self, fb_schema):
        dine_a = Relation.from_schema(fb_schema, "dine")
        dine_b = Relation.from_schema(fb_schema, "dine")
        query = Difference(
            dine_a.project([dine_a["cid"]]), dine_b.project([dine_b["cid"]])
        )
        normalized = normalize(query)
        names = [r.name for r in normalized.query.relations()]
        assert len(set(names)) == 2
        assert normalized.occurrences[names[0]] == "dine"
        assert normalized.occurrences[names[1]] == "dine"

    def test_duplicate_across_union_condition_rewritten(self, fb_schema):
        cafe_a = Relation.from_schema(fb_schema, "cafe")
        cafe_b = Relation.from_schema(fb_schema, "cafe")
        query = Union(
            cafe_a.select(eq(cafe_a["city"], "nyc")).project([cafe_a["cid"]]),
            cafe_b.select(eq(cafe_b["city"], "boston")).project([cafe_b["cid"]]),
        )
        normalized = normalize(query)
        right = normalized.query.children[1]
        renamed_relation = next(iter(right.relations()))
        assert renamed_relation.name != "cafe"
        # the selection and projection inside the renamed branch reference the new name
        selection = right.children[0]
        attrs = {a.relation for a in selection.condition.attributes()}
        assert attrs == {renamed_relation.name}
        assert right.output_attributes()[0].relation == renamed_relation.name

    def test_rename_node_folds_into_relation(self, fb_schema):
        friend = Relation.from_schema(fb_schema, "friend")
        renamed = Rename(friend, "buddies")
        normalized = normalize(renamed)
        occurrence = next(iter(normalized.query.relations()))
        assert occurrence.name == "buddies"
        assert occurrence.base == "friend"
        assert normalized.occurrences["buddies"] == "friend"

    def test_a_rename_over_more_than_a_relation_stays_a_rename(self, fb_schema):
        friend = Relation.from_schema(fb_schema, "friend")
        renamed = Rename(friend.project([friend["fid"]]), "buddies")
        normalized = normalize(renamed)
        assert isinstance(normalized.query, Rename) and normalized.query.name == "buddies"
        assert isinstance(normalized.query.child, Projection)
        assert normalized.occurrences == {"friend": "friend"}

    def test_a_rename_onto_another_relations_occurrence_is_refused(self, fb_schema):
        friend = Relation.from_schema(fb_schema, "friend")
        cafe = Relation.from_schema(fb_schema, "cafe")
        with pytest.raises(QueryError, match="'friend' collides with an existing occurrence"):
            normalize(friend.product(Rename(cafe, "friend")))


class TestNormalizePaperQueries:
    def test_q0_prime_occurrences(self, fb_q0_prime):
        normalized = normalize(fb_q0_prime)
        occurrences = normalized.occurrences
        # Q0' mentions friend twice, dine three times, cafe twice.
        bases = sorted(occurrences.values())
        assert bases.count("dine") == 3
        assert bases.count("friend") == 2
        assert bases.count("cafe") == 2
        names = [r.name for r in normalized.query.relations()]
        assert len(names) == len(set(names))

    def test_actualize_copies_constraints(self, fb_q0_prime, fb_access):
        normalized = normalize(fb_q0_prime)
        actualized = normalized.actualize(fb_access)
        # every dine occurrence gets psi2 and psi3
        dine_occurrences = [o for o, b in normalized.occurrences.items() if b == "dine"]
        for occurrence in dine_occurrences:
            assert len(actualized.for_relation(occurrence)) == 2

    def test_normalization_preserves_semantics(self, fb_database, fb_q0_prime):
        from repro.evaluator.algebra import evaluate

        normalized = normalize(fb_q0_prime)
        original = evaluate(fb_q0_prime, fb_database)
        rewritten = evaluate(normalized.query, fb_database)
        assert original.rows == rewritten.rows
