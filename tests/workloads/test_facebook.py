"""Tests for the Example 1 workload (friend/dine/cafe)."""

import pytest

from repro.core.coverage import is_covered
from repro.evaluator.algebra import evaluate
from repro.workloads import facebook


class TestSchemaAndConstraints:
    def test_schema_relations(self):
        schema = facebook.schema()
        assert set(schema.relation_names()) == {"friend", "dine", "cafe"}

    def test_access_schema_matches_paper(self):
        access = facebook.access_schema()
        by_name = {c.name: c for c in access}
        assert by_name["psi1"].bound == 5000
        assert by_name["psi2"].bound == 31
        assert by_name["psi3"].is_indexing
        assert by_name["psi4"].bound == 1  # a functional dependency

    def test_generated_data_satisfies_constraints(self):
        for seed in (0, 1, 2):
            database = facebook.generate(scale=50, seed=seed)
            assert database.satisfies_schema(facebook.access_schema())

    def test_generation_deterministic(self):
        a = facebook.generate(scale=30, seed=5)
        b = facebook.generate(scale=30, seed=5)
        assert a.size == b.size

    def test_scale_controls_size(self):
        small = facebook.generate(scale=20, seed=0)
        large = facebook.generate(scale=100, seed=0)
        assert large.size > small.size


class TestPaperQueries:
    def test_coverage_statuses(self):
        access = facebook.access_schema()
        assert is_covered(facebook.query_q1(), access)
        assert is_covered(facebook.query_q3(), access)
        assert is_covered(facebook.query_q0_prime(), access)
        assert not is_covered(facebook.query_q2(), access)
        assert not is_covered(facebook.query_q0(), access)

    def test_q0_equivalent_to_q0_prime_on_data(self, fb_database):
        q0 = facebook.query_q0()
        q0p = facebook.query_q0_prime()
        assert evaluate(q0, fb_database).rows == evaluate(q0p, fb_database).rows

    def test_parameterized_queries(self, fb_database):
        """Changing the person/city parameters changes the query results sensibly."""
        everything = evaluate(facebook.query_q1(city="nyc"), fb_database).rows | evaluate(
            facebook.query_q1(city="boston"), fb_database
        ).rows
        assert evaluate(facebook.query_q1(city="nyc"), fb_database).rows <= everything

    def test_workload_spec(self):
        spec = facebook.WORKLOAD
        assert spec.name == "facebook"
        database = spec.database(scale=25, seed=1)
        assert database.size > 0
        assert len(spec.join_edges) >= 2
