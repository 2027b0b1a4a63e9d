"""Tests shared by the three experiment workloads (AIRCA, TFACC, MCBM)."""

import pytest

from repro.core.coverage import check_coverage
from repro.workloads import WORKLOADS, airca, mcbm, tfacc


@pytest.fixture(params=sorted(WORKLOADS), ids=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]


class TestWorkloadSpecs:
    def test_registry_contents(self):
        assert set(WORKLOADS) == {"AIRCA", "TFACC", "MCBM"}

    def test_schema_and_constraints_consistent(self, workload):
        """Every constraint references a relation/attributes of the schema."""
        for constraint in workload.access_schema:
            constraint.validate(workload.schema)

    def test_join_edges_reference_schema(self, workload):
        for (left_rel, left_attr), (right_rel, right_attr) in workload.join_edges:
            assert left_attr in workload.schema[left_rel]
            assert right_attr in workload.schema[right_rel]

    def test_generated_data_satisfies_constraints(self, workload):
        database = workload.database(scale=60, seed=3)
        violations = database.violations(workload.access_schema)
        assert violations == [], f"violated: {[str(v) for v in violations]}"

    def test_generation_scales(self, workload):
        small = workload.database(scale=40, seed=0)
        large = workload.database(scale=160, seed=0)
        assert large.size > small.size
        assert small.size > 0

    def test_generation_deterministic(self, workload):
        a = workload.database(scale=50, seed=9)
        b = workload.database(scale=50, seed=9)
        assert a.size == b.size
        for name in a.relation_names():
            assert set(a.relation(name).rows) == set(b.relation(name).rows)


class TestHeadlineConstraints:
    def test_airca_origin_airline_constraint(self):
        access = airca.access_schema()
        headline = next(c for c in access if c.name == "origin-airlines")
        assert headline.relation == "flights"
        assert headline.bound == 28

    def test_tfacc_force_daily_constraint(self):
        access = tfacc.access_schema()
        headline = next(c for c in access if c.name == "force-daily")
        assert headline.bound == 304
        assert headline.lhs == frozenset({"acc_date", "police_force"})

    def test_mcbm_caller_daily_constraint(self):
        access = mcbm.access_schema()
        headline = next(c for c in access if c.name == "caller-daily")
        assert headline.relation == "calls"

    def test_every_relation_has_a_key_constraint(self, workload):
        keyed = {c.relation for c in workload.access_schema if c.bound == 1 and c.lhs}
        # weather/usage style relations may use a non-key FD; require most relations keyed
        assert len(keyed) >= len(workload.schema) - 1


class TestCoverageOnWorkloads:
    def test_constant_key_lookups_are_covered(self, workload):
        """A point lookup on a key attribute is covered under each workload's schema."""
        from repro.core.query import Relation, eq

        # pick a key-like constraint (bound 1 with non-empty lhs of size 1)
        constraint = next(
            c for c in workload.access_schema if c.bound == 1 and len(c.lhs) == 1
        )
        relation = Relation.from_schema(workload.schema, constraint.relation)
        key_attr = next(iter(constraint.lhs))
        target_attr = next(iter(constraint.rhs - constraint.lhs), key_attr)
        query = relation.select(eq(relation[key_attr], "value")).project(
            [relation[target_attr]]
        )
        assert check_coverage(query, workload.access_schema).is_covered
