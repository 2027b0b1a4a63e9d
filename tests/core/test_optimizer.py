"""Unit tests for the peephole plan optimizer."""

import pytest

from repro.core.optimizer import optimize_plan
from repro.core.plan import (
    ColumnPredicate,
    ColumnRef,
    ConstOp,
    HashJoinOp,
    PlanBuilder,
    ProductOp,
    ProjectOp,
    RenameOp,
    SelectOp,
    UnionOp,
)
from repro.core.planner import plan_query
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor, execute_plan


class TestPeepholeRules:
    def test_select_select_fusion(self, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(SelectOp(predicates=(ColumnPredicate("x", ">=", 1),), inputs=(t0,)), ["x"])
        t2 = builder.add(SelectOp(predicates=(ColumnPredicate("x", "<=", 1),), inputs=(t1,)), ["x"])
        optimized = optimize_plan(builder.build(t2))
        selects = [s for s in optimized.steps if isinstance(s.op, SelectOp)]
        assert len(selects) == 1
        assert len(selects[0].op.predicates) == 2

    def test_project_project_fusion(self, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(
            ProjectOp(columns=("x",), inputs=(t0,), output_names=("y",)), ["y"]
        )
        t2 = builder.add(
            ProjectOp(columns=("y",), inputs=(t1,), output_names=("z",)), ["z"]
        )
        optimized = optimize_plan(builder.build(t2))
        projects = [s for s in optimized.steps if isinstance(s.op, ProjectOp)]
        assert len(projects) == 1
        assert projects[0].op.columns == ("x",)
        assert projects[0].op.output_names == ("z",)

    def test_project_over_rename_pushdown(self, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(RenameOp(mapping={"x": "y"}, inputs=(t0,)), ["y"])
        t2 = builder.add(
            ProjectOp(columns=("y",), inputs=(t1,), output_names=("z",)), ["z"]
        )
        optimized = optimize_plan(builder.build(t2))
        assert not any(isinstance(s.op, RenameOp) for s in optimized.steps)

    def test_rename_collision_blocks_pushdown(self, fb_database, fb_indexes, fb_access):
        """ρ{a→b} over columns (b, a) makes 'b' ambiguous; pushdown must not fire.

        The executor resolves column names positionally (first match wins), so
        π_b after the rename reads the *original* ``b``.  A name-based inverse
        would wrongly pick ``a``; the optimizer has to keep the plan as-is.
        """
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value="B", column="b"), ["b"])
        t1 = builder.add(ConstOp(value="A", column="a"), ["a"])
        t2 = builder.add(ProductOp(inputs=(t0, t1)), ["b", "a"])
        t3 = builder.add(RenameOp(mapping={"a": "b"}, inputs=(t2,)), ["b", "b"])
        t4 = builder.add(ProjectOp(columns=("b",), inputs=(t3,)), ["b"])
        plan = builder.build(t4)
        optimized = optimize_plan(plan)
        expected = execute_plan(plan, fb_indexes).rows
        assert execute_plan(optimized, fb_indexes).rows == expected == {("B",)}

    def test_duplicate_columns_block_identity_elimination(
        self, fb_database, fb_indexes, fb_access
    ):
        """π[b,b] over duplicated column names is not the identity."""
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value="B", column="b"), ["b"])
        t1 = builder.add(ConstOp(value="A", column="a"), ["a"])
        t2 = builder.add(ProductOp(inputs=(t0, t1)), ["b", "a"])
        t3 = builder.add(RenameOp(mapping={"a": "b"}, inputs=(t2,)), ["b", "b"])
        t4 = builder.add(ProjectOp(columns=("b", "b"), inputs=(t3,)), ["b", "b"])
        plan = builder.build(t4)
        optimized = optimize_plan(plan)
        expected = execute_plan(plan, fb_indexes).rows
        assert execute_plan(optimized, fb_indexes).rows == expected == {("B", "B")}

    def test_select_over_product_becomes_hash_join(self, fb_database, fb_indexes, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(ConstOp(value=1, column="y"), ["y"])
        t2 = builder.add(ProductOp(inputs=(t0, t1)), ["x", "y"])
        t3 = builder.add(
            SelectOp(
                predicates=(
                    ColumnPredicate("x", "=", ColumnRef("y")),
                    ColumnPredicate("x", ">=", 0),
                ),
                inputs=(t2,),
            ),
            ["x", "y"],
        )
        plan = builder.build(t3)
        optimized = optimize_plan(plan)
        joins = [s for s in optimized.steps if isinstance(s.op, HashJoinOp)]
        assert len(joins) == 1
        assert joins[0].op.pairs == (("x", "y"),)
        assert joins[0].op.residual == (ColumnPredicate("x", ">=", 0),)
        assert not any(isinstance(s.op, ProductOp) for s in optimized.steps)
        assert (
            execute_plan(optimized, fb_indexes).rows
            == execute_plan(plan, fb_indexes).rows
            == {(1, 1)}
        )

    def test_common_subplans_deduplicated(self, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value="p0", column="x"), ["x"])
        t1 = builder.add(ConstOp(value="p0", column="x"), ["x"])
        t2 = builder.add(UnionOp(inputs=(t0, t1)), ["x"])
        optimized = optimize_plan(builder.build(t2))
        consts = [s for s in optimized.steps if isinstance(s.op, ConstOp)]
        assert len(consts) == 1

    def test_dead_steps_eliminated(self, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        builder.add(ConstOp(value=2, column="unused"), ["unused"])
        plan = builder.build(t0)
        optimized = optimize_plan(plan)
        assert len(optimized) == 1
        assert optimized.steps[0].op.value == 1


class TestOptimizedPlansOnQueries:
    def test_shrinks_canonical_plans(self, fb_q1, fb_access):
        plan = plan_query(fb_q1, fb_access)
        optimized = optimize_plan(plan)
        assert len(optimized) < len(plan)
        assert any(isinstance(s.op, HashJoinOp) for s in optimized.steps)
        assert optimized.is_bounded

    def test_rows_identical_and_access_bounded(
        self, fb_q1, fb_access, fb_database, fb_indexes
    ):
        plan = plan_query(fb_q1, fb_access)
        optimized = optimize_plan(plan)
        executor = PlanExecutor(fb_indexes)
        original = executor.execute(plan)
        rewritten = executor.execute(optimized)
        assert rewritten.rows == original.rows == evaluate(fb_q1, fb_database).rows
        assert rewritten.columns == original.columns
        assert rewritten.counter.scanned == 0
        assert optimized.access_bound() <= plan.access_bound()

    def test_rewritten_difference_query(
        self, fb_q0_prime, fb_access, fb_database, fb_indexes
    ):
        plan = plan_query(fb_q0_prime, fb_access)
        optimized = optimize_plan(plan)
        assert (
            execute_plan(optimized, fb_indexes).rows
            == evaluate(fb_q0_prime, fb_database).rows
        )

    def test_idempotent(self, fb_q1, fb_access):
        plan = plan_query(fb_q1, fb_access)
        once = optimize_plan(plan)
        twice = optimize_plan(once)
        assert len(twice) == len(once)
        assert twice.is_bounded
