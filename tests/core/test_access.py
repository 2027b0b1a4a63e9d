"""Unit tests for access constraints and access schemas."""

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.errors import AccessConstraintError
from repro.core.schema import DatabaseSchema
from repro.workloads import WORKLOADS


class TestAccessConstraint:
    def test_of_accepts_strings(self):
        constraint = AccessConstraint.of("friend", "pid", "fid", 5000)
        assert constraint.lhs == frozenset({"pid"})
        assert constraint.rhs == frozenset({"fid"})
        assert constraint.bound == 5000

    def test_of_accepts_iterables(self):
        constraint = AccessConstraint.of("dine", ["pid", "year"], ["cid"], 31)
        assert constraint.lhs == frozenset({"pid", "year"})

    def test_empty_lhs_allowed(self):
        constraint = AccessConstraint.of("dine", (), "month", 12)
        assert constraint.lhs == frozenset()

    def test_empty_rhs_rejected(self):
        with pytest.raises(AccessConstraintError):
            AccessConstraint.of("dine", "pid", (), 5)

    def test_non_positive_bound_rejected(self):
        with pytest.raises(AccessConstraintError):
            AccessConstraint.of("dine", "pid", "cid", 0)

    def test_is_indexing(self):
        assert AccessConstraint.of("dine", ["pid", "cid"], ["pid", "cid"], 1).is_indexing
        assert not AccessConstraint.of("dine", ["pid", "cid"], ["pid", "cid"], 2).is_indexing
        assert not AccessConstraint.of("cafe", "cid", "city", 1).is_indexing

    def test_is_unit(self):
        assert AccessConstraint.of("cafe", "cid", "city", 1).is_unit
        assert not AccessConstraint.of("dine", ["pid", "year"], "cid", 31).is_unit

    def test_size(self):
        constraint = AccessConstraint.of("dine", ["pid", "year", "month"], "cid", 31)
        assert constraint.size == 5

    def test_validate_against_schema(self, fb_schema):
        AccessConstraint.of("friend", "pid", "fid", 10).validate(fb_schema)
        with pytest.raises(AccessConstraintError, match="unknown relation"):
            AccessConstraint.of("nope", "a", "b", 1).validate(fb_schema)
        with pytest.raises(AccessConstraintError, match="not in relation"):
            AccessConstraint.of("friend", "pid", "city", 1).validate(fb_schema)

    def test_actualize_renames_relation_only(self):
        constraint = AccessConstraint.of("dine", "pid", "cid", 31, name="psi")
        actualized = constraint.actualize("dine_2")
        assert actualized.relation == "dine_2"
        assert actualized.lhs == constraint.lhs
        assert actualized.bound == constraint.bound
        assert actualized.name == "psi"

    def test_str_rendering(self):
        constraint = AccessConstraint.of("cafe", "cid", "city", 1)
        assert "cafe" in str(constraint)
        assert "1" in str(constraint)


class TestAccessSchema:
    def test_size_measures(self, fb_access):
        assert len(fb_access) == 4  # ||A||
        assert fb_access.size == sum(c.size for c in fb_access)  # |A|

    def test_for_relation(self, fb_access):
        assert len(fb_access.for_relation("dine")) == 2
        assert fb_access.for_relation("unknown") == ()

    def test_duplicate_add_is_noop(self, fb_access):
        before = len(fb_access)
        fb_access.add(AccessConstraint.of("friend", "pid", "fid", 5000, name="psi1"))
        assert len(fb_access) == before

    def test_validation_on_add(self, fb_schema):
        schema = AccessSchema(schema=fb_schema)
        with pytest.raises(AccessConstraintError):
            schema.add(AccessConstraint.of("friend", "pid", "bogus", 2))

    def test_restrict_and_without(self, fb_access):
        constraints = list(fb_access)
        subset = fb_access.restrict(constraints[:2])
        assert len(subset) == 2
        without = fb_access.without(constraints[0])
        assert constraints[0] not in without
        assert len(without) == 3

    def test_sample_fraction_deterministic(self, fb_access):
        first = list(fb_access.sample_fraction(0.5, seed=3))
        second = list(fb_access.sample_fraction(0.5, seed=3))
        assert first == second
        assert len(first) == 2

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_sample_fraction_subsets_of_one_seed_are_nested(self, name):
        access = WORKLOADS[name].access_schema
        fractions = (0.0, 0.2, 0.25, 0.4, 0.5, 0.6, 0.75, 0.8, 1.0)
        for seed in range(32):
            subsets = [list(access.sample_fraction(f, seed=seed)) for f in fractions]
            assert subsets[-1] == list(access)  # all of A, in insertion order
            for smaller, larger in zip(subsets, subsets[1:]):
                assert set(smaller) <= set(larger), (name, seed)

    def test_actualize_copies_constraints_per_occurrence(self, fb_access):
        actualized = fb_access.actualize(
            {"dine": "dine", "dine_2": "dine", "cafe": "cafe"}
        )
        assert len(actualized.for_relation("dine")) == 2
        assert len(actualized.for_relation("dine_2")) == 2
        assert len(actualized.for_relation("cafe")) == 1
        assert len(actualized.for_relation("friend")) == 0

    def test_equality_is_set_based(self, fb_schema):
        a = AccessSchema([AccessConstraint.of("friend", "pid", "fid", 5)], schema=fb_schema)
        b = AccessSchema([AccessConstraint.of("friend", "pid", "fid", 5)], schema=fb_schema)
        assert a == b
