"""Unit tests for covered queries and algorithm CovChk (Sections 3–4)."""

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.coverage import (
    CoverageChecker,
    check_coverage,
    covered_attributes,
    is_covered,
    is_fetchable,
    is_indexed,
    uncovered_attributes,
)
from repro.core.normalize import normalize
from repro.core.query import Relation, Union, conjunction, eq
from repro.core.schema import Attribute
from repro.core.spc import SPCAnalysis
from repro.workloads import facebook


class TestExample4:
    """Example 4 of the paper: Q1 and Q3 covered, Q2 not, Q0' covered, Q0 not."""

    def test_q1_covered(self, fb_q1, fb_access):
        assert is_covered(fb_q1, fb_access)

    def test_q2_not_covered(self, fb_q2, fb_access):
        result = check_coverage(fb_q2, fb_access)
        assert not result.is_covered
        assert not result.is_fetchable
        missing = {a.name for s in result.subqueries for a in s.missing_attributes}
        assert "cid" in missing

    def test_q3_covered(self, fb_access):
        assert is_covered(facebook.query_q3(), fb_access)

    def test_q0_not_covered(self, fb_q0, fb_access):
        assert not is_covered(fb_q0, fb_access)

    def test_q0_prime_covered(self, fb_q0_prime, fb_access):
        result = check_coverage(fb_q0_prime, fb_access)
        assert result.is_covered
        assert result.is_fetchable and result.is_indexed
        assert len(result.subqueries) == 2

    def test_q1_not_covered_without_psi1(self, fb_q1, fb_access):
        psi1 = next(c for c in fb_access if c.name == "psi1")
        assert not is_covered(fb_q1, fb_access.without(psi1))

    def test_q1_not_indexed_without_psi2(self, fb_q1, fb_access):
        psi2 = next(c for c in fb_access if c.name == "psi2")
        reduced = fb_access.without(psi2)
        result = check_coverage(fb_q1, reduced)
        assert not result.is_covered


class TestCoverageRules:
    def test_constant_attributes_always_covered(self, fb_schema, fb_access):
        cafe = Relation.from_schema(fb_schema, "cafe")
        query = cafe.select(eq(cafe["cid"], "c1")).project([cafe["city"]])
        assert is_covered(query, fb_access)

    def test_empty_lhs_constraint_covers_rhs(self, fb_schema):
        dine = Relation.from_schema(fb_schema, "dine")
        access = AccessSchema(
            [
                AccessConstraint.of("dine", (), "month", 12),
                AccessConstraint.of("dine", ["pid", "year", "month"], "cid", 31),
                AccessConstraint.of("dine", ["pid", "cid"], ["pid", "cid"], 1),
            ],
            schema=fb_schema,
        )
        query = (
            dine.select(conjunction([eq(dine["pid"], "p0"), eq(dine["year"], 2015)]))
            .project([dine["cid"], dine["month"]])
        )
        # month comes from the ∅ -> month constraint, cid from ψ2 afterwards
        assert is_fetchable(query, access)

    def test_is_indexed_is_the_coverage_checks_verdict(self, fb_q1, fb_q0, fb_access):
        for query in (fb_q1, fb_q0):
            assert is_indexed(query, fb_access) == check_coverage(query, fb_access).is_indexed
        assert is_indexed(fb_q1, fb_access) and not is_indexed(fb_q0, fb_access)

    def test_equality_propagates_coverage(self, fb_q1, fb_access):
        """cafe.cid is covered because it equals dine.cid, which ψ2 covers."""
        result = check_coverage(fb_q1, fb_access)
        analysis = result.subqueries[0].analysis
        covered = covered_attributes(analysis, result.actualized)
        assert Attribute("cafe", "cid") in covered

    def test_indexed_requires_spanning_constraint(self, fb_schema):
        """A relation is indexed only if one constraint spans its needed attributes."""
        dine = Relation.from_schema(fb_schema, "dine")
        access = AccessSchema(
            [
                # covers cid via (pid, year, month) but does not span 'city-free' needs
                AccessConstraint.of("dine", ["pid", "year", "month"], "cid", 31),
            ],
            schema=fb_schema,
        )
        query = dine.select(
            conjunction(
                [eq(dine["pid"], "p0"), eq(dine["year"], 2015), eq(dine["month"], "may")]
            )
        ).project([dine["cid"]])
        assert is_covered(query, access)

    def test_uncovered_attributes_helper(self, fb_q2, fb_access):
        missing = uncovered_attributes(fb_q2, fb_access)
        assert {a.name for a in missing} == {"cid"}

    def test_non_normal_form_is_conservatively_rejected(self, fb_schema, fb_access):
        cafe = Relation.from_schema(fb_schema, "cafe")
        cafe2 = Relation("cafe_b", fb_schema["cafe"].attributes, base="cafe")
        union = Union(
            cafe.select(eq(cafe["cid"], "c1")), cafe2.select(eq(cafe2["cid"], "c2"))
        )
        query = union.project([cafe["cid"]])
        result = check_coverage(query, fb_access)
        assert not result.normal_form
        assert not result.is_covered
        assert "normal form" in result.explain()

    def test_explain_mentions_reasons(self, fb_q2, fb_access):
        text = check_coverage(fb_q2, fb_access).explain()
        assert "not fetchable" in text or "not indexed" in text

    def test_index_choices_prefer_small_bounds(self, fb_q0_prime, fb_access):
        result = check_coverage(fb_q0_prime, fb_access)
        # In the guarded sub-query Q3, the dine occurrence used only for the
        # (pid, cid) membership check is indexed by ψ3 (bound 1), not ψ2.
        chosen_bounds = [
            c.bound
            for sub in result.subqueries
            for c in sub.index_choices.values()
        ]
        assert 1 in chosen_bounds


class TestCoverageChecker:
    def test_checker_matches_check_coverage(self, fb_q1, fb_q2, fb_access):
        for query in (fb_q1, fb_q2):
            checker = CoverageChecker(query)
            assert checker.is_covered(fb_access) == is_covered(query, fb_access)

    def test_checker_subsets(self, fb_q1, fb_access):
        checker = CoverageChecker(fb_q1)
        assert checker.is_covered(fb_access)
        first = fb_access.constraints()[0]
        assert not checker.is_covered(fb_access.restrict([first]))

    def test_monotonicity_in_constraints(self, fb_q1, fb_access):
        """Adding constraints never makes a covered query uncovered."""
        checker = CoverageChecker(fb_q1)
        constraints = list(fb_access)
        for k in range(len(constraints) + 1):
            subset = fb_access.restrict(constraints[:k])
            if checker.is_covered(subset):
                for bigger in range(k, len(constraints) + 1):
                    assert checker.is_covered(fb_access.restrict(constraints[:bigger]))
                break
