"""Unit tests for A-equivalent rewriting and the bounded-evaluability oracle."""

import pytest

from repro.core.coverage import is_covered
from repro.core.query import Difference, Relation, Rename, Union, conjunction, eq
from repro.core.rewrite import (
    clone_with_fresh_names,
    find_covered_rewrite,
    guard_difference,
    guard_differences,
    is_boundedly_evaluable,
    prune_unsatisfiable_branches,
    rewrite_candidates,
)
from repro.evaluator.algebra import evaluate
from repro.workloads import facebook


class TestCloneWithFreshNames:
    def test_clone_renames_every_occurrence(self, fb_q1):
        clone = clone_with_fresh_names(fb_q1, suffix="x")
        original_names = {r.name for r in fb_q1.relations()}
        clone_names = {r.name for r in clone.relations()}
        assert original_names.isdisjoint(clone_names)
        assert {r.base for r in clone.relations()} == {r.base for r in fb_q1.relations()}

    def test_clone_preserves_semantics(self, fb_q1, fb_database):
        clone = clone_with_fresh_names(fb_q1)
        assert evaluate(clone, fb_database).rows == evaluate(fb_q1, fb_database).rows

    def test_clone_of_a_product_and_a_rename(self, fb_schema, fb_database):
        friend = Relation.from_schema(fb_schema, "friend")
        cafe = Relation.from_schema(fb_schema, "cafe")
        mates = friend.select(eq(friend["pid"], "p0")).project([friend["fid"]])
        nyc = cafe.select(eq(cafe["city"], "nyc")).project([cafe["cid"]])
        for query in (mates.product(nyc), Rename(mates, "mates")):
            clone = clone_with_fresh_names(query, suffix="x")
            assert {r.name for r in clone.relations()} <= {"friend_x", "cafe_x"}
            assert evaluate(clone, fb_database).rows == evaluate(query, fb_database).rows
        assert clone.name == "mates_x"


class TestGuardDifference:
    def test_guarded_query_equivalent_on_data(self, fb_q0, fb_database):
        guarded = guard_differences(fb_q0)
        assert evaluate(guarded, fb_database).rows == evaluate(fb_q0, fb_database).rows

    def test_guarded_q0_is_covered(self, fb_q0, fb_access):
        """The guard-difference rewrite makes Example 1's Q0 covered, like Q0'."""
        guarded = guard_differences(fb_q0)
        assert not is_covered(fb_q0, fb_access)
        assert is_covered(guarded, fb_access)

    def test_guard_difference_node_shape(self, fb_q0):
        guarded = guard_difference(fb_q0)
        assert isinstance(guarded, Difference)
        # the right-hand side now mentions the relations of Q1 as well
        right_bases = {r.base for r in guarded.right.relations()}
        assert {"friend", "dine", "cafe"} <= right_bases

    def test_nested_differences_all_guarded(self, fb_schema, fb_database):
        cafe_a = Relation("cafe_a", fb_schema["cafe"].attributes, base="cafe")
        cafe_b = Relation("cafe_b", fb_schema["cafe"].attributes, base="cafe")
        cafe_c = Relation("cafe_c", fb_schema["cafe"].attributes, base="cafe")
        query = Difference(
            Difference(cafe_a.project([cafe_a["cid"]]), cafe_b.project([cafe_b["cid"]])),
            cafe_c.project([cafe_c["cid"]]),
        )
        guarded = guard_differences(query)
        assert evaluate(guarded, fb_database).rows == evaluate(query, fb_database).rows


class TestPruneUnsatisfiable:
    def test_unsat_branch_removed(self, fb_schema, fb_database):
        cafe_a = Relation("cafe_a", fb_schema["cafe"].attributes, base="cafe")
        cafe_b = Relation("cafe_b", fb_schema["cafe"].attributes, base="cafe")
        unsat = cafe_a.select(
            conjunction([eq(cafe_a["city"], "nyc"), eq(cafe_a["city"], "boston")])
        ).project([cafe_a["cid"]])
        sat = cafe_b.select(eq(cafe_b["city"], "nyc")).project([cafe_b["cid"]])
        query = Union(unsat, sat)
        pruned = prune_unsatisfiable_branches(query)
        assert not isinstance(pruned, Union)
        assert evaluate(pruned, fb_database).rows == evaluate(query, fb_database).rows

    def test_satisfiable_union_untouched(self, fb_schema):
        cafe_a = Relation("cafe_a", fb_schema["cafe"].attributes, base="cafe")
        cafe_b = Relation("cafe_b", fb_schema["cafe"].attributes, base="cafe")
        query = Union(cafe_a.project([cafe_a["cid"]]), cafe_b.project([cafe_b["cid"]]))
        assert isinstance(prune_unsatisfiable_branches(query), Union)


class TestOracle:
    def test_q0_is_boundedly_evaluable(self, fb_q0, fb_access):
        """The headline claim of Example 1: Q0 is bounded although not covered."""
        verdict = find_covered_rewrite(fb_q0, fb_access)
        assert verdict.bounded
        assert verdict.rewrite != "identity"
        assert verdict.witness is not None
        assert is_covered(verdict.witness, fb_access)

    def test_covered_query_uses_identity(self, fb_q1, fb_access):
        verdict = find_covered_rewrite(fb_q1, fb_access)
        assert verdict.bounded and verdict.rewrite == "identity"

    def test_unbounded_query_rejected(self, fb_q2, fb_access):
        """Q2 alone has no covered rewrite: its cid values cannot be bounded."""
        assert not is_boundedly_evaluable(fb_q2, fb_access)

    def test_witness_equivalence_on_data(self, fb_q0, fb_access, fb_database):
        verdict = find_covered_rewrite(fb_q0, fb_access)
        assert (
            evaluate(verdict.witness, fb_database).rows
            == evaluate(fb_q0, fb_database).rows
        )

    def test_rewrite_candidates_listed_in_order(self, fb_q0):
        names = [name for name, _ in rewrite_candidates(fb_q0)]
        assert names[0] == "identity"
        assert "guard-difference" in names
        assert len(names) == 4
