"""Unit tests for the bounded-plan representation and its static estimates."""

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.errors import PlanError
from repro.core.plan import (
    BoundedPlan,
    ColumnPredicate,
    ConstOp,
    DifferenceOp,
    FetchOp,
    IntersectOp,
    PlanBuilder,
    PlanStep,
    ProductOp,
    ProjectOp,
    RenameOp,
    SelectOp,
    UnionOp,
    UnitOp,
)


@pytest.fixture
def simple_schema(fb_schema):
    return AccessSchema(
        [
            AccessConstraint.of("friend", "pid", "fid", 5000, name="psi1"),
            AccessConstraint.of("dine", ["pid", "year", "month"], "cid", 31, name="psi2"),
        ],
        schema=fb_schema,
    )


@pytest.fixture
def fetch_plan(simple_schema):
    """A hand-built plan mirroring the start of Example 2: fetch friends of p0."""
    psi1 = next(c for c in simple_schema if c.name == "psi1")
    builder = PlanBuilder(simple_schema, occurrences={"friend": "friend"})
    t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
    t1 = builder.add(
        FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t0,)),
        ["friend.fid", "friend.pid"],
    )
    t2 = builder.add(ProjectOp(columns=("friend.fid",), inputs=(t1,)), ["friend.fid"])
    return builder.build(t2)


class TestColumnPredicate:
    def test_rejects_bad_operator(self):
        with pytest.raises(PlanError):
            ColumnPredicate("a", "~", 1)


class TestPlanStructure:
    def test_length_and_iteration(self, fetch_plan):
        assert fetch_plan.length == 3
        assert len(list(fetch_plan)) == 3

    def test_fetch_steps_and_constraints_used(self, fetch_plan):
        fetches = fetch_plan.fetch_steps()
        assert len(fetches) == 1
        assert [c.name for c in fetch_plan.constraints_used()] == ["psi1"]

    def test_step_lookup(self, fetch_plan):
        assert isinstance(fetch_plan.step(1).op, FetchOp)
        with pytest.raises(PlanError):
            fetch_plan.step(99)

    def test_str_rendering(self, fetch_plan):
        text = str(fetch_plan)
        assert "fetch" in text
        assert "result: T2" in text

    def test_is_bounded(self, fetch_plan):
        assert fetch_plan.is_bounded


class TestValidation:
    def test_forward_reference_rejected(self, simple_schema):
        psi1 = next(iter(simple_schema))
        steps = [
            PlanStep(0, FetchOp(constraint=psi1, key_columns=("x",), inputs=(1,)), ("a",)),
            PlanStep(1, ConstOp(value=1, column="x"), ("x",)),
        ]
        plan = BoundedPlan(steps=steps, output=0, access_schema=simple_schema)
        with pytest.raises(PlanError, match="later or same step"):
            plan.validate()

    def test_unknown_constraint_rejected(self, simple_schema, fb_schema):
        foreign = AccessConstraint.of("cafe", "cid", "city", 1)
        steps = [
            PlanStep(0, ConstOp(value="c1", column="cafe.cid"), ("cafe.cid",)),
            PlanStep(1, FetchOp(constraint=foreign, key_columns=("cafe.cid",), inputs=(0,)),
                     ("cafe.cid", "cafe.city")),
        ]
        plan = BoundedPlan(steps=steps, output=1, access_schema=simple_schema)
        with pytest.raises(PlanError, match="not in the access schema"):
            plan.validate()
        assert not plan.is_bounded

    def test_a_reference_past_the_last_step_is_rejected(self, simple_schema):
        steps = [PlanStep(0, UnitOp(), ()), PlanStep(1, UnionOp(inputs=(-1, 0)), ())]
        plan = BoundedPlan(steps=steps, output=1, access_schema=simple_schema)
        with pytest.raises(PlanError, match="T1 references missing step T-1"):
            plan.validate()

    def test_missing_output_rejected(self, simple_schema):
        steps = [PlanStep(0, UnitOp(), ())]
        plan = BoundedPlan(steps=steps, output=5, access_schema=simple_schema)
        with pytest.raises(PlanError, match="output step"):
            plan.validate()

    def test_project_output_names_must_align(self):
        with pytest.raises(PlanError):
            ProjectOp(columns=("a", "b"), inputs=(0,), output_names=("x",))


class TestStaticEstimates:
    def test_fetch_bound_multiplies_input(self, fetch_plan):
        bounds = fetch_plan.cardinality_bounds()
        assert bounds[0] == 1
        assert bounds[1] == 5000
        assert bounds[2] == 5000

    def test_bounds_are_computed_once_per_plan(self, fetch_plan, monkeypatch):
        """Every reader of the static arithmetic shares one pass over the steps."""
        from repro.core import plan as plan_module

        calls = []
        real = plan_module.step_bounds
        monkeypatch.setattr(
            plan_module, "step_bounds", lambda *args: calls.append(args[0]) or real(*args)
        )
        assert fetch_plan.access_bound() == fetch_plan.access_bound() == 5000
        assert fetch_plan.cardinality_bounds()[1] == fetch_plan.column_bounds()[1]["friend.fid"]
        assert fetch_plan.column_bounds() is fetch_plan.column_bounds()
        assert len(calls) == len(fetch_plan)
        assert not hasattr(fetch_plan, "_row_bounds")

    def test_access_bound_example1_style(self, simple_schema):
        """Reproduce the arithmetic of Example 1: 5000 + 5000·31 accessed tuples."""
        psi1 = next(c for c in simple_schema if c.name == "psi1")
        psi2 = next(c for c in simple_schema if c.name == "psi2")
        builder = PlanBuilder(simple_schema)
        t0 = builder.add(ConstOp(value="p0", column="pid"), ["pid"])
        t1 = builder.add(
            FetchOp(constraint=psi1, key_columns=("pid",), inputs=(t0,)),
            ["friend.fid", "friend.pid"],
        )
        t2 = builder.add(
            ProjectOp(columns=("friend.fid",), inputs=(t1,), output_names=("fid",)), ["fid"]
        )
        t3 = builder.add(ConstOp(value=2015, column="year"), ["year"])
        t4 = builder.add(ConstOp(value="may", column="month"), ["month"])
        t5 = builder.add(ProductOp(inputs=(t2, t3)), ["fid", "year"])
        t6 = builder.add(ProductOp(inputs=(t5, t4)), ["fid", "year", "month"])
        t7 = builder.add(
            FetchOp(constraint=psi2, key_columns=("month", "fid", "year"), inputs=(t6,)),
            ["dine.cid", "dine.month", "dine.pid", "dine.year"],
        )
        plan = builder.build(t7)
        assert plan.access_bound() == 5000 + 5000 * 31

    def test_column_bounds_for_set_operations(self, simple_schema):
        builder = PlanBuilder(simple_schema)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(ConstOp(value=2, column="x"), ["x"])
        t2 = builder.add(UnionOp(inputs=(t0, t1)), ["x"])
        t3 = builder.add(DifferenceOp(inputs=(t2, t1)), ["x"])
        t4 = builder.add(IntersectOp(inputs=(t3, t0)), ["x"])
        t5 = builder.add(SelectOp(predicates=(ColumnPredicate("x", "=", 1),), inputs=(t4,)), ["x"])
        t6 = builder.add(RenameOp(mapping={"x": "y"}, inputs=(t5,)), ["y"])
        plan = builder.build(t6)
        bounds = plan.cardinality_bounds()
        assert bounds[2] == 2
        assert bounds[3] == 2
        assert bounds[4] == 2
        assert bounds[6] == 2
        columns = plan.column_bounds()
        assert columns[6] == {"y": 2}

    def test_empty_lhs_fetch_bound(self, fb_schema):
        months = AccessConstraint.of("dine", (), "month", 12)
        schema = AccessSchema([months], schema=fb_schema)
        builder = PlanBuilder(schema)
        t0 = builder.add(UnitOp(), [])
        t1 = builder.add(
            FetchOp(constraint=months, key_columns=(), inputs=(t0,)), ["dine.month"]
        )
        plan = builder.build(t1)
        assert plan.access_bound() == 12

    def test_operator_descriptions(self, fetch_plan):
        descriptions = [step.op.describe() for step in fetch_plan]
        assert any("fetch" in d for d in descriptions)
        assert any("π" in d for d in descriptions)

    def test_intersection_and_rename_descriptions(self):
        assert IntersectOp(inputs=(3, 0)).describe() == "T3 ∩ T0"
        assert RenameOp(mapping={"x": "y", "z": "w"}, inputs=(5,)).describe() == "ρ[x→y, z→w](T5)"
