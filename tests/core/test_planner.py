"""Unit tests for algorithm QPlan (canonical bounded plan generation, Section 5)."""

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.coverage import check_coverage
from repro.core.errors import NotCoveredError
from repro.core.plan import FetchOp
from repro.core.planner import generate_plan, plan_query
from repro.core.query import Relation, conjunction, eq
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import execute_plan
from repro.storage.index import IndexSet
from repro.workloads import facebook


class TestPlanGeneration:
    def test_not_covered_raises(self, fb_q0, fb_access):
        coverage = check_coverage(fb_q0, fb_access)
        with pytest.raises(NotCoveredError):
            generate_plan(coverage)

    def test_q1_plan_structure(self, fb_q1, fb_access):
        plan = plan_query(fb_q1, fb_access)
        plan.validate()
        # fetches use only constraints of the (actualized) access schema
        used = {c.name for c in plan.constraints_used()}
        assert used <= {"psi1", "psi2", "psi3", "psi4"}
        # ψ1, ψ2, ψ4 are all needed to fetch Q1's attributes
        assert {"psi1", "psi2", "psi4"} <= used
        # every relation occurrence has a surrogate
        assert set(plan.surrogates) == {"friend", "dine", "cafe"}

    def test_q0_prime_plan_length_reasonable(self, fb_q0_prime, fb_access):
        """Lemma 8: the plan length is O(|Q||A|)."""
        plan = plan_query(fb_q0_prime, fb_access)
        assert plan.length <= fb_q0_prime.size * (fb_access.size + 5)

    def test_access_bound_independent_of_data(self, fb_q0_prime, fb_access):
        """The bound is in the ballpark of Example 1's 470 000 and data-free."""
        plan = plan_query(fb_q0_prime, fb_access)
        bound = plan.access_bound()
        assert bound > 0
        # 5000 (friends) enters, as does the 31-per-month factor
        assert bound >= 5000 * 31
        assert bound <= 50 * 470_000

    def test_unit_fetch_plans_shared_across_attributes(self, fb_q1, fb_access):
        """Attributes unified by Σ_Q share one unit fetching plan (memoization)."""
        plan = plan_query(fb_q1, fb_access)
        # friend.fid and dine.pid are equated, so there is a single entry for them
        tokens = set(plan.fetch_plans)
        assert len([t for t in tokens if t.endswith(".fid") or t.endswith(".pid")]) <= 3

    def test_plan_correct_on_data(self, fb_q1, fb_access, fb_database, fb_indexes):
        plan = plan_query(fb_q1, fb_access)
        execution = execute_plan(plan, fb_indexes)
        reference = evaluate(fb_q1, fb_database)
        assert execution.rows == reference.rows

    def test_q0_prime_plan_correct_on_data(self, fb_q0_prime, fb_q0, fb_access, fb_database, fb_indexes):
        plan = plan_query(fb_q0_prime, fb_access)
        execution = execute_plan(plan, fb_indexes)
        assert execution.rows == evaluate(fb_q0_prime, fb_database).rows
        # and Q0' is equivalent to the original Q0 (Example 1)
        assert execution.rows == evaluate(fb_q0, fb_database).rows

    def test_selection_only_query(self, fb_schema, fb_access, fb_database, fb_indexes):
        cafe = Relation.from_schema(fb_schema, "cafe")
        query = cafe.select(eq(cafe["cid"], "c1")).project([cafe["city"]])
        plan = plan_query(query, fb_access)
        execution = execute_plan(plan, fb_indexes)
        assert execution.rows == evaluate(query, fb_database).rows

    def test_union_query_plan(self, fb_schema, fb_access, fb_database, fb_indexes):
        cafe_a = Relation("cafe_a", fb_schema["cafe"].attributes, base="cafe")
        cafe_b = Relation("cafe_b", fb_schema["cafe"].attributes, base="cafe")
        query = (
            cafe_a.select(eq(cafe_a["cid"], "c1")).project([cafe_a["city"]])
        ).union(cafe_b.select(eq(cafe_b["cid"], "c2")).project([cafe_b["city"]]))
        plan = plan_query(query, fb_access)
        execution = execute_plan(plan, fb_indexes)
        assert execution.rows == evaluate(query, fb_database).rows

    def test_empty_lhs_constraint_plan(self, fb_schema, fb_database):
        """A query needing an attribute covered only by an ∅ -> X constraint."""
        access = AccessSchema(
            [
                AccessConstraint.of("dine", (), "month", 12, name="months"),
                AccessConstraint.of("dine", ["pid", "year", "month"], "cid", 31, name="psi2"),
                AccessConstraint.of("dine", ["pid", "cid"], ["pid", "cid"], 1, name="psi3"),
            ],
            schema=fb_schema,
        )
        dine = Relation.from_schema(fb_schema, "dine")
        query = dine.select(
            conjunction([eq(dine["pid"], "p1"), eq(dine["year"], 2015)])
        ).project([dine["cid"], dine["month"]])
        plan = plan_query(query, access)
        indexes = IndexSet.build(fb_database, access)
        execution = execute_plan(plan, indexes)
        assert execution.rows == evaluate(query, fb_database).rows

    def test_plan_fetches_only_via_indexes(self, fb_q0_prime, fb_access):
        plan = plan_query(fb_q0_prime, fb_access)
        for step in plan.steps:
            if isinstance(step.op, FetchOp):
                assert step.op.constraint in plan.access_schema

    def test_minimized_schema_still_plans(self, fb_q1, fb_access):
        """QPlan works against the subset returned by access minimization."""
        from repro.core.minimize import minimize_access

        subset = minimize_access(fb_q1, fb_access).selected
        plan = plan_query(fb_q1, subset)
        assert {c.name for c in plan.constraints_used()} <= {c.name for c in subset}
