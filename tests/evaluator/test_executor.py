"""Unit tests for the bounded-plan executor (evalQP)."""

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.errors import PlanError
from repro.core.plan import (
    ColumnPredicate,
    ColumnRef,
    ConstOp,
    DifferenceOp,
    FetchOp,
    IntersectOp,
    PlanBuilder,
    ProductOp,
    ProjectOp,
    RenameOp,
    SelectOp,
    UnionOp,
    UnitOp,
)
from repro.core.planner import plan_query
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor, execute_plan
from repro.storage.counters import AccessCounter
from repro.storage.index import IndexSet


@pytest.fixture
def psi1(fb_access):
    return next(c for c in fb_access if c.name == "psi1")


class TestStepSemantics:
    def test_const_unit_project_select(self, fb_database, fb_indexes, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value="p0", column="x"), ["x"])
        t1 = builder.add(UnitOp(), [])
        t2 = builder.add(ProductOp(inputs=(t0, t1)), ["x"])
        t3 = builder.add(SelectOp(predicates=(ColumnPredicate("x", "=", "p0"),), inputs=(t2,)), ["x"])
        t4 = builder.add(ProjectOp(columns=("x",), inputs=(t3,), output_names=("person",)), ["person"])
        plan = builder.build(t4)
        result = execute_plan(plan, fb_indexes)
        assert result.rows == {("p0",)}
        assert result.columns == ("person",)

    def test_fetch_uses_index_and_counts(self, fb_database, fb_indexes, fb_access, psi1):
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t0,)),
            ["friend.fid", "friend.pid"],
        )
        plan = builder.build(t1)
        result = execute_plan(plan, fb_indexes)
        expected = {
            (fid, pid) for pid, fid in fb_database.relation("friend").rows if pid == "p0"
        }
        assert result.rows == expected
        assert result.counter.fetched == len(expected)
        assert result.counter.scanned == 0

    def test_fetch_deduplicates_keys(self, fb_database, fb_indexes, fb_access, psi1):
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(ConstOp(value="p0", column="other"), ["other"])
        t2 = builder.add(ProductOp(inputs=(t0, t1)), ["friend.pid", "other"])
        t3 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t2,)),
            ["friend.fid", "friend.pid"],
        )
        plan = builder.build(t3)
        result = execute_plan(plan, fb_indexes)
        assert result.counter.index_probes == 1

    def test_set_operations(self, fb_database, fb_indexes, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(ConstOp(value=2, column="x"), ["x"])
        t2 = builder.add(UnionOp(inputs=(t0, t1)), ["x"])
        t3 = builder.add(DifferenceOp(inputs=(t2, t0)), ["x"])
        t4 = builder.add(IntersectOp(inputs=(t2, t2)), ["x"])
        t5 = builder.add(RenameOp(mapping={"x": "y"}, inputs=(t4,)), ["y"])
        plan = builder.build(t5)
        executor = PlanExecutor(fb_indexes)
        result = executor.execute(plan)
        assert result.step_cardinalities[2] == 2
        assert result.step_cardinalities[3] == 1
        assert result.step_cardinalities[4] == 2
        assert result.columns == ("y",)

    def test_select_with_column_ref(self, fb_database, fb_indexes, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(ConstOp(value=1, column="y"), ["y"])
        t2 = builder.add(ProductOp(inputs=(t0, t1)), ["x", "y"])
        t3 = builder.add(
            SelectOp(predicates=(ColumnPredicate("x", "=", ColumnRef("y")),), inputs=(t2,)),
            ["x", "y"],
        )
        plan = builder.build(t3)
        assert execute_plan(plan, fb_indexes).rows == {(1, 1)}

    def test_missing_index_raises(self, fb_database, fb_access, psi1):
        empty_indexes = IndexSet()
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t0,)),
            ["friend.fid", "friend.pid"],
        )
        plan = builder.build(t1)
        with pytest.raises(PlanError, match="no index available"):
            execute_plan(plan, empty_indexes)


class TestEndToEndExecution:
    def test_result_matches_reference(self, fb_q1, fb_access, fb_database, fb_indexes):
        plan = plan_query(fb_q1, fb_access)
        result = execute_plan(plan, fb_indexes)
        assert result.rows == evaluate(fb_q1, fb_database).rows

    def test_only_fetch_access(self, fb_q0_prime, fb_access, fb_database, fb_indexes):
        """A bounded plan never scans base relations."""
        plan = plan_query(fb_q0_prime, fb_access)
        result = execute_plan(plan, fb_indexes)
        assert result.counter.scanned == 0
        assert result.counter.fetched > 0

    def test_access_ratio_and_external_counter(
        self, fb_q1, fb_access, fb_database, fb_indexes
    ):
        plan = plan_query(fb_q1, fb_access)
        counter = AccessCounter()
        result = execute_plan(plan, fb_indexes, counter)
        assert result.counter is counter
        assert 0 < result.access_ratio(fb_database.size) <= counter.total

    def test_actualized_constraints_resolve_to_base_indexes(
        self, fb_q0_prime, fb_access, fb_database, fb_indexes
    ):
        """Fetches on renamed occurrences (dine__2, ...) use the base-relation index."""
        plan = plan_query(fb_q0_prime, fb_access)
        occurrence_relations = {c.relation for c in plan.constraints_used()}
        assert any(rel not in fb_database.relation_names() for rel in occurrence_relations)
        result = execute_plan(plan, fb_indexes)
        assert result.rows == evaluate(fb_q0_prime, fb_database).rows

    @pytest.mark.parametrize("mode", ["row", "columnar"])
    def test_environment_captured_up_to_the_budget(self, mode, fb_q1, fb_access, fb_indexes):
        """The budget is on the rows every step emitted, inclusive."""
        plan = plan_query(fb_q1, fb_access)
        executor = PlanExecutor(fb_indexes, mode=mode)
        assert executor.execute(plan).env is None  # nothing asked for
        full = executor.execute(plan, capture_env=True)
        assert sum(map(len, full.env)) == full.rows_processed > 0
        budget = full.rows_processed
        assert executor.execute(plan, capture_env=True, env_rows_budget=budget).env == full.env
        assert executor.execute(plan, capture_env=True, env_rows_budget=budget - 1).env is None
