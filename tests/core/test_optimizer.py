"""Unit tests for the peephole plan optimizer."""

import pytest

from analytic_queries import analytic_queries

from repro.core.engine import prepare_query
from repro.core.optimizer import optimize_plan
from repro.core.plan import (
    ColumnPredicate,
    ColumnRef,
    ConstOp,
    DifferenceOp,
    FetchOp,
    HashJoinOp,
    IntersectOp,
    PlanBuilder,
    ProductOp,
    ProjectOp,
    RenameOp,
    SelectOp,
    UnionOp,
)
from repro.core.planner import plan_query
from repro.core.query import eq, relation
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor, execute_plan
from repro.workloads import WORKLOADS, tfacc


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


# -- column pruning ---------------------------------------------------------------

def _constants(builder: PlanBuilder, **values) -> int:
    """The one-row product of ``values`` as constants, one column each."""
    step = None
    for column, value in values.items():
        const = builder.add(ConstOp(value=value, column=column), [column])
        if step is None:
            step = const
        else:
            columns = (*builder.columns(step), column)
            step = builder.add(ProductOp(inputs=(step, const)), columns)
    return step


def _friends_of(builder: PlanBuilder, fb_access, key: str = "k") -> int:
    """``fetch(friend, pid = 'p0')``: 5 000 rows at most, one distinct ``friend.pid``."""
    psi1 = next(c for c in fb_access if c.name == "psi1")
    source = builder.add(ConstOp(value="p0", column=key), [key])
    return builder.add(
        FetchOp(constraint=psi1, key_columns=(key,), inputs=(source,)),
        ["friend.fid", "friend.pid"],
    )


def _pruned_steps(plan):
    return [step for step in plan.steps if step.comment.startswith("pruned for ")]


def _tfacc_wide_join():
    """``π[region, year, stop_type] σ[district = c] (districts ⋈ accidents ⋈ stops)``."""
    schema = tfacc.schema()
    districts, accidents, stops = (
        relation(schema, name) for name in ("districts", "accidents", "stops")
    )
    query = (
        districts.join(accidents, eq(districts["district"], accidents["district"]))
        .join(stops, eq(districts["district"], stops["district"]))
        .select(eq(districts["district"], "DS010"))
        .project([districts["region"], accidents["year"], stops["stop_type"]])
    )
    return query, tfacc.access_schema(schema)


class TestColumnPruning:
    @pytest.mark.parametrize("fused", [False, True], ids=["select-over-product", "hash-join"])
    def test_needed_columns_propagate_through_every_reader(self, fb_access, fb_indexes, fused):
        """ρ, σ, a join's pairs and its residual each keep what they read; ``d1`` has no reader."""
        builder = PlanBuilder(fb_access)
        wide = _constants(builder, a=1, b=2, c=3, d=4)
        names = ("a1", "b1", "c1", "d1")
        t1 = builder.add(
            ProjectOp(columns=("a", "b", "c", "d"), inputs=(wide,), output_names=names), names
        )
        t2 = builder.add(RenameOp(mapping={"a1": "a2"}, inputs=(t1,)), ("a2", *names[1:]))
        t3 = builder.add(
            SelectOp(predicates=(ColumnPredicate("b1", "=", 2),), inputs=(t2,)),
            builder.columns(t2),
        )
        t4 = builder.add(ConstOp(value=1, column="e"), ["e"])
        joined = (*builder.columns(t3), "e")
        pair, residual = ColumnPredicate("a2", "=", ColumnRef("e")), ColumnPredicate("c1", ">=", 0)
        if fused:
            t5 = builder.add(
                HashJoinOp(pairs=(("a2", "e"),), residual=(residual,), inputs=(t3, t4)), joined
            )
        else:
            product = builder.add(ProductOp(inputs=(t3, t4)), joined)
            t5 = builder.add(SelectOp(predicates=(pair, residual), inputs=(product,)), joined)
        plan = builder.build(builder.add(ProjectOp(columns=("e",), inputs=(t5,)), ["e"]))
        optimized = optimize_plan(plan)
        by_type = {type(s.op): s for s in optimized.steps if s.id != optimized.output}
        assert by_type[ProjectOp].op.output_names == ("a1", "b1", "c1")
        assert by_type[RenameOp].columns == ("a2", "b1", "c1")
        assert by_type[SelectOp].columns == ("a2", "b1", "c1")
        assert by_type[HashJoinOp].columns == ("a2", "b1", "c1", "e")
        # one-row inputs cannot shrink: nothing is inserted below the join
        assert not _pruned_steps(optimized)
        assert execute_plan(optimized, fb_indexes).rows == execute_plan(plan, fb_indexes).rows
        assert execute_plan(optimized, fb_indexes).rows == {(1,)}

    @pytest.mark.parametrize(
        "read, kept",
        [("friend.pid", ("friend.pid",)), ("friend.fid", None)],
        ids=["bounds-prove-it-shrinks", "bounds-cannot-prove-it"],
    )
    def test_join_input_is_projected_only_when_the_bounds_shrink(
        self, fb_access, fb_indexes, read, kept
    ):
        """π[friend.pid] of 5 000 friends of one person is one row; π[friend.fid] may be 5 000."""
        builder = PlanBuilder(fb_access)
        friends = _friends_of(builder, fb_access)
        other = builder.add(ConstOp(value="p0", column="c"), ["c"])
        columns = ("friend.fid", "friend.pid", "c")
        product = builder.add(ProductOp(inputs=(friends, other)), columns, "pair friends")
        matched = builder.add(
            SelectOp(predicates=(ColumnPredicate(read, "=", ColumnRef("c")),), inputs=(product,)),
            columns,
        )
        plan = builder.build(builder.add(ProjectOp(columns=("c",), inputs=(matched,)), ["c"]))
        optimized = optimize_plan(plan)
        pruned = _pruned_steps(optimized)
        if kept is None:
            assert not pruned
        else:
            (step,) = pruned
            assert step.comment == "pruned for pair friends"
            assert step.op.columns == step.columns == kept
            assert isinstance(optimized.step(step.op.inputs[0]).op, FetchOp)
            bounds = optimized.cardinality_bounds()
            assert bounds[step.id] == 1 < bounds[step.op.inputs[0]] == 5000
        assert [str(s.op.constraint) for s in optimized.fetch_steps()] == [
            str(s.op.constraint) for s in plan.fetch_steps()
        ]
        assert optimized.access_bound() == plan.access_bound() == 5000
        assert execute_plan(optimized, fb_indexes).rows == execute_plan(plan, fb_indexes).rows

    def test_fetch_key_source_keeps_every_column(self, fb_access, fb_indexes):
        """Nothing is dropped from the step a fetch takes its keys from, read or not."""
        builder = PlanBuilder(fb_access)
        keys = builder.add(
            ProjectOp(
                columns=("k", "junk"),
                inputs=(_constants(builder, k="p0", junk=0),),
                output_names=("k2", "junk2"),
            ),
            ["k2", "junk2"],
        )
        psi1 = next(c for c in fb_access if c.name == "psi1")
        fetch = builder.add(
            FetchOp(constraint=psi1, key_columns=("k2",), inputs=(keys,)),
            ["friend.fid", "friend.pid"],
        )
        plan = builder.build(
            builder.add(ProjectOp(columns=("friend.fid",), inputs=(fetch,)), ["friend.fid"])
        )
        optimized = optimize_plan(plan)
        (fetch_step,) = optimized.fetch_steps()
        assert fetch_step.op.key_columns == ("k2",)
        assert optimized.step(fetch_step.op.inputs[0]).columns == ("k2", "junk2")
        assert optimized.access_bound() == plan.access_bound()
        rows = execute_plan(optimized, fb_indexes).rows
        assert rows and rows == execute_plan(plan, fb_indexes).rows

    @pytest.mark.parametrize(
        "operator, answer",
        [(UnionOp, {(1,)}), (DifferenceOp, {(1,)}), (IntersectOp, set())],
        ids=["union", "difference", "intersection"],
    )
    def test_set_operators_keep_every_column(self, fb_access, fb_indexes, operator, answer):
        """{(1, 2)} op {(1, 3)} then π[x]: dropping the unread ``y`` first changes − and ∩."""
        builder = PlanBuilder(fb_access)
        sides = [
            builder.add(
                ProjectOp(
                    columns=tuple(values),
                    inputs=(_constants(builder, **values),),
                    output_names=("x", "y"),
                ),
                ["x", "y"],
            )
            for values in ({"a": 1, "b": 2}, {"c": 1, "d": 3})
        ]
        combined = builder.add(operator(inputs=tuple(sides)), ["x", "y"])
        plan = builder.build(builder.add(ProjectOp(columns=("x",), inputs=(combined,)), ["x"]))
        optimized = optimize_plan(plan)
        inner = [s for s in optimized.steps if isinstance(s.op, ProjectOp) and s.id != optimized.output]
        assert [s.columns for s in inner] == [("x", "y"), ("x", "y")]
        assert execute_plan(optimized, fb_indexes).rows == answer
        assert execute_plan(plan, fb_indexes).rows == answer

    def test_duplicate_column_names_block_pruning(self, fb_access, fb_indexes):
        """A product whose two sides both have ``friend.pid`` is left alone, unread columns too."""
        builder = PlanBuilder(fb_access)
        left = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        friends = _friends_of(builder, fb_access)
        columns = ("friend.pid", "friend.fid", "friend.pid")
        product = builder.add(ProductOp(inputs=(left, friends)), columns)
        plan = builder.build(
            builder.add(ProjectOp(columns=("friend.pid",), inputs=(product,)), ["friend.pid"])
        )
        optimized = optimize_plan(plan)
        assert not _pruned_steps(optimized)
        (kept,) = [s for s in optimized.steps if isinstance(s.op, ProductOp)]
        assert kept.columns == columns
        assert execute_plan(optimized, fb_indexes).rows == execute_plan(plan, fb_indexes).rows

    def test_unread_side_of_a_product_keeps_one_column(self, fb_access, fb_indexes):
        """π[c](friends × {c}) reads no friend column, but no friend means no row."""
        builder = PlanBuilder(fb_access)
        friends = _friends_of(builder, fb_access)
        narrowed = builder.add(
            ProjectOp(columns=("friend.fid", "friend.pid"), inputs=(friends,), output_names=("f", "p")),
            ["f", "p"],
        )
        other = builder.add(ConstOp(value=7, column="c"), ["c"])
        product = builder.add(ProductOp(inputs=(narrowed, other)), ["f", "p", "c"])
        plan = builder.build(builder.add(ProjectOp(columns=("c",), inputs=(product,)), ["c"]))
        optimized = optimize_plan(plan)
        (kept,) = [s for s in optimized.steps if isinstance(s.op, ProductOp)]
        assert kept.columns == ("f", "c")
        assert execute_plan(optimized, fb_indexes).rows == {(7,)}

    def test_wide_join_carries_only_what_the_answer_reads(self):
        """13 500 accidents of a district enter the join as ≤ 27 (district, year) pairs."""
        prepared = prepare_query(*_tfacc_wide_join())
        canonical, executable = prepared.plan, prepared.executable
        (step,) = _pruned_steps(executable)
        assert step.columns == ("accidents.district", "accidents.year")
        assert isinstance(executable.step(step.op.inputs[0]).op, FetchOp)
        bounds = executable.cardinality_bounds()
        assert bounds[step.id] == 27 < bounds[step.op.inputs[0]] == 13_500
        # the surrogate of ``stops`` is a projection already: it narrows in place
        assert executable.step(executable.surrogates["stops"]).columns == (
            "stops.district",
            "stops.stop_type",
        )
        fetches = lambda plan: [(s.op.constraint, s.op.key_columns) for s in plan.fetch_steps()]
        assert fetches(executable) == fetches(canonical)
        assert executable.access_bound() == canonical.access_bound()
        assert executable.dependency_relations() == canonical.dependency_relations()

    @pytest.mark.parametrize(
        "case", ["facebook-q1", "facebook-q0-prime", "tfacc-wide", "tfacc-analytic"]
    )
    def test_idempotent_and_deterministic(self, case, fb_q1, fb_q0_prime, fb_access):
        if case.startswith("facebook"):
            query, access = (fb_q1 if case.endswith("q1") else fb_q0_prime), fb_access
        elif case == "tfacc-analytic":
            query, access = analytic_queries(WORKLOADS["TFACC"])[0], WORKLOADS["TFACC"].access_schema
        else:
            query, access = _tfacc_wide_join()
        plan = plan_query(query, access)
        once = optimize_plan(plan)
        assert str(optimize_plan(plan)) == str(once)
        assert str(optimize_plan(once)) == str(once)
