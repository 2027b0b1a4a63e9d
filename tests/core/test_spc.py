"""Unit tests for SPC analysis: max SPC sub-queries, Σ_Q, ρ_U, induced FDs."""

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.errors import QueryError
from repro.core.normalize import normalize
from repro.core.query import Difference, Relation, Union, conjunction, eq
from repro.core.schema import Attribute
from repro.core.spc import SPCAnalysis, is_normal_form, max_spc_subqueries
from repro.workloads import facebook


class TestMaxSPCSubqueries:
    def test_whole_spc_query_is_single_subquery(self, fb_q1):
        subs = max_spc_subqueries(fb_q1)
        assert len(subs) == 1
        assert subs[0] is fb_q1

    def test_difference_splits_into_two(self, fb_q0):
        subs = max_spc_subqueries(fb_q0)
        assert len(subs) == 2

    def test_nested_set_operators(self, fb_schema):
        cafe = Relation.from_schema(fb_schema, "cafe")
        cafe2 = Relation("cafe2", fb_schema["cafe"].attributes, base="cafe")
        cafe3 = Relation("cafe3", fb_schema["cafe"].attributes, base="cafe")
        query = Difference(
            Union(cafe.project(["cid"]), cafe2.project([cafe2["cid"]])),
            cafe3.project([cafe3["cid"]]),
        )
        subs = max_spc_subqueries(query)
        assert len(subs) == 3

    def test_projection_over_union_is_not_spc_root(self, fb_schema):
        cafe = Relation.from_schema(fb_schema, "cafe")
        cafe2 = Relation("cafe2", fb_schema["cafe"].attributes, base="cafe")
        union = Union(cafe, cafe2)
        query = union.project([cafe["cid"]])
        subs = max_spc_subqueries(query)
        assert {id(s) for s in subs} == {id(cafe), id(cafe2)}
        assert not is_normal_form(query)

    def test_normal_form_of_top_level_difference(self, fb_q0_prime):
        assert is_normal_form(fb_q0_prime)


class TestSPCAnalysis:
    def test_rejects_non_spc(self, fb_q0):
        with pytest.raises(QueryError):
            SPCAnalysis(fb_q0)

    def test_equality_atoms_and_transitivity(self, fb_schema):
        friend = Relation.from_schema(fb_schema, "friend")
        dine = Relation.from_schema(fb_schema, "dine")
        query = friend.join(dine, eq(friend["fid"], dine["pid"])).select(
            eq(friend["fid"], "p9")
        )
        analysis = SPCAnalysis(query)
        # Σ_Q ⊢ friend.fid = dine.pid: one equality class, one token
        assert analysis.unify(Attribute("friend", "fid")) == analysis.unify(Attribute("dine", "pid"))
        # transitivity: dine.pid = friend.fid = 'p9'
        assert analysis.constant_for(Attribute("dine", "pid")) == "p9"

    def test_unification_shares_token(self, fb_q1):
        analysis = SPCAnalysis(fb_q1)
        assert analysis.unify(Attribute("friend", "fid")) == analysis.unify(
            Attribute("dine", "pid")
        )
        assert analysis.unify(Attribute("dine", "cid")) == analysis.unify(
            Attribute("cafe", "cid")
        )

    def test_needed_and_constant_attributes_q1(self, fb_q1):
        analysis = SPCAnalysis(fb_q1)
        needed_names = {str(a) for a in analysis.needed_attributes}
        assert "dine.cid" in needed_names
        assert "friend.pid" in needed_names
        assert "cafe.city" in needed_names
        constant_names = {str(a) for a in analysis.constant_attributes}
        assert "friend.pid" in constant_names
        assert "cafe.city" in constant_names
        assert "dine.cid" not in constant_names

    def test_unified_sets(self, fb_q2):
        analysis = SPCAnalysis(fb_q2)
        assert analysis.unified_constant < analysis.unified_needed

    def test_relation_needed_attributes(self, fb_q1):
        analysis = SPCAnalysis(fb_q1)
        dine_needed = {a.name for a in analysis.relation_needed_attributes("dine")}
        assert dine_needed == {"pid", "cid", "month", "year"}
        cafe_needed = {a.name for a in analysis.relation_needed_attributes("cafe")}
        assert cafe_needed == {"cid", "city"}

    def test_unsatisfiable_detection(self, fb_schema):
        cafe = Relation.from_schema(fb_schema, "cafe")
        query = cafe.select(conjunction([eq(cafe["city"], "nyc"), eq(cafe["city"], "boston")]))
        analysis = SPCAnalysis(query)
        assert analysis.unsatisfiable is not None

    def test_satisfiable_has_no_flag(self, fb_q1):
        assert SPCAnalysis(fb_q1).unsatisfiable is None


class TestInducedFDs:
    def test_example5_induced_fds(self, fb_q1, fb_access):
        """Example 5: the induced FDs of Q1 and A0 over unified attribute names."""
        normalized = normalize(fb_q1)
        actualized = normalized.actualize(fb_access)
        analysis = SPCAnalysis(normalized.query)
        fds = analysis.induced_fds(actualized)
        assert len(fds) == 4
        rendered = {str(fd) for fd in fds}
        # pid -> fid (ψ1): friend.pid determines the unified fid/dine.pid class
        fid_token = analysis.unify(Attribute("friend", "fid"))
        pid_token = analysis.unify(Attribute("friend", "pid"))
        assert any(pid_token in fd and fid_token in fd for fd in rendered)

    def test_relevant_constraints_restricted_to_subquery(self, fb_q2, fb_access):
        normalized = normalize(fb_q2)
        actualized = normalized.actualize(fb_access)
        analysis = SPCAnalysis(normalized.query)
        relevant = analysis.relevant_constraints(actualized)
        assert all(c.relation.startswith("dine") for c in relevant)
        assert len(relevant) == 2

    def test_induced_fd_for_single_constraint(self, fb_q1, fb_access):
        normalized = normalize(fb_q1)
        actualized = normalized.actualize(fb_access)
        analysis = SPCAnalysis(normalized.query)
        psi4 = next(c for c in actualized if c.relation.startswith("cafe"))
        induced = analysis.induced_fd_for(psi4)
        assert len(induced.lhs) == 1
        assert len(induced.rhs) == 1
