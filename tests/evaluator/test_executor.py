"""Unit tests for the bounded-plan executor (evalQP)."""

import copy
from collections import defaultdict

import pytest

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.errors import PlanError
from repro.core.plan import (
    BoundedPlan,
    ColumnPredicate,
    ColumnRef,
    ConstOp,
    DifferenceOp,
    FetchOp,
    HashJoinOp,
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
from repro.core.planner import plan_query
from repro.core.query import Comparison, Constant, Relation, conjunction, eq
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor, execute_plan
from repro.sharding import SQLiteShard, build_topology
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
        result = executor.execute(plan, capture_env=True)
        cardinalities = tuple(map(len, result.env))
        assert cardinalities[2] == 2
        assert cardinalities[3] == 1
        assert cardinalities[4] == 2
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

    def test_result_still_names_the_row_family(self, fb_q1, fb_access, fb_indexes):
        """The layered benchmark files executions by ``executor_mode`` (until ROADMAP item 1)."""
        plan = plan_query(fb_q1, fb_access)
        result = PlanExecutor(fb_indexes).execute(plan)
        assert result.executor_mode == "row"
        # one kernel per scheduled step: constants prefilled, glue fused
        assert result.kernel_batches == len(scheduled_steps(plan)) < len(plan.steps)

    def test_environment_captured_up_to_the_budget(self, fb_q1, fb_access, fb_indexes):
        """The budget is on the rows the filled slots hold, inclusive."""
        plan = plan_query(fb_q1, fb_access)
        executor = PlanExecutor(fb_indexes)
        assert executor.execute(plan).env is None  # nothing asked for
        full = executor.execute(plan, capture_env=True)
        assert sum(len(rows) for rows in full.env if rows is not None) == full.rows_processed > 0
        budget = full.rows_processed
        assert executor.execute(plan, capture_env=True, env_rows_budget=budget).env == full.env
        assert executor.execute(plan, capture_env=True, env_rows_budget=budget - 1).env is None


def friend_plan(fb_access, psi1, *people):
    """A builder with ``friend`` fetched through ψ1 for ``people``; returns it and the fetch."""
    builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
    keys = [builder.add(ConstOp(value=p, column="friend.pid"), ["friend.pid"]) for p in people]
    while len(keys) > 1:
        keys[:2] = [builder.add(UnionOp(inputs=tuple(keys[:2])), ["friend.pid"])]
    fetch = builder.add(
        FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(keys[0],)),
        ["friend.fid", "friend.pid"],
    )
    return builder, fetch


#: dine's months, fetched with no key: every month any dine row names
PSI_MONTHS = AccessConstraint.of("dine", (), "month", 12, name="psi_months")


@pytest.fixture
def access(fb_access):
    """A_0 and :data:`PSI_MONTHS`, a constraint with an empty left-hand side."""
    return AccessSchema([*fb_access.constraints(), PSI_MONTHS], schema=fb_access.schema)


@pytest.fixture(params=["indexes", "router-3-mixed"])
def source(request, fb_database, access):
    """A fetch source: the local indexes, or a memory/SQLite/memory federation."""
    if request.param == "indexes":
        yield IndexSet.build(fb_database, access)
        return
    router = build_topology(
        fb_database, access, shards=3, backends=["memory", "sqlite", "memory"]
    )
    yield router
    for shard in router.shards:
        if isinstance(shard, SQLiteShard):
            shard.close()


def fused_steps(plan) -> list[int]:
    """The steps a run computes inside their one consumer, read off the plan: a join
    whose only reader is a projection, and a projection (of anything but such a join)
    whose only reader is a fetch.  The output step is read by the caller."""
    readers = defaultdict(list)
    for step in plan.steps:
        for source in step.op.inputs:
            readers[source].append(step.op)
    readers[plan.output].append(None)
    fused: list[int] = []
    for step in plan.steps:
        if len(readers[step.id]) != 1:
            continue
        (reader,) = readers[step.id]
        if isinstance(step.op, HashJoinOp) and isinstance(reader, ProjectOp):
            fused.append(step.id)
        elif (
            isinstance(step.op, ProjectOp)
            and isinstance(reader, FetchOp)
            and step.op.inputs[0] not in fused
        ):
            fused.append(step.id)
    return fused


def constant_steps(plan) -> set[int]:
    """The steps computed from constants alone, read off the plan: no fetch at or
    below them (a ``ConstOp`` or ``UnitOp`` has no input at all)."""
    constant: set[int] = set()
    for step in plan.steps:
        if not isinstance(step.op, FetchOp) and constant.issuperset(step.op.inputs):
            constant.add(step.id)
    return constant


def scheduled_steps(plan) -> list[int]:
    """The steps that run a kernel of their own: neither computed from constants
    alone (that runs once, when the plan is lowered) nor fused."""
    skipped = constant_steps(plan).union(fused_steps(plan))
    return [step.id for step in plan.steps if step.id not in skipped]


def definition_rows(plan, env, step_id):
    """Step ``step_id``'s rows: its slot, or, for a projection fused into a fetch, its
    input's rows projected onto the declared columns."""
    if env[step_id] is not None:
        return env[step_id]
    step = plan.steps[step_id]
    assert isinstance(step.op, ProjectOp), f"T{step_id} has no slot and is no projection"
    source = plan.steps[step.op.inputs[0]]
    at = [source.columns.index(column) for column in step.op.columns]
    return {tuple(row[i] for i in at) for row in definition_rows(plan, env, source.id)}


def check_fetch_slots(plan, env, database) -> None:
    """Every fetch slot holds the index rows of its definition's distinct keys,
    read off the base relation."""
    for step in plan.fetch_steps():
        op = step.op
        at = [plan.steps[op.inputs[0]].columns.index(column) for column in op.key_columns]
        keys = {tuple(row[i] for i in at) for row in definition_rows(plan, env, op.inputs[0])}
        base = plan.base_relation(op.constraint)
        lhs = database.schema[base].positions(sorted(op.constraint.lhs))
        both = database.schema[base].positions(sorted(op.constraint.lhs | op.constraint.rhs))
        expected = {
            tuple(row[p] for p in both)
            for row in database.relation(base).rows
            if tuple(row[p] for p in lhs) in keys
        }
        assert env[step.id] == expected, f"fetch T{step.id}"


def run(plan, source, expected, database=None):
    """Execute ``plan``, check its schedule and accounting, and compare it with
    ``expected`` rows; with ``database``, hold every fetch slot to its definition."""
    executor = PlanExecutor(source)
    result = executor.execute(plan, capture_env=True)
    assert result.rows == frozenset(expected)
    scheduled = scheduled_steps(plan)
    assert [slot for slot, _ in executor.compile(plan).schedule] == scheduled
    assert result.kernel_batches == len(scheduled)
    assert [i for i, rows in enumerate(result.env) if rows is None] == fused_steps(plan)
    assert result.rows_processed == sum(len(rows) for rows in result.env if rows is not None)
    if database is not None:
        check_fetch_slots(plan, result.env, database)
    return result


class TestKernelEdgeCases:
    """Empty inputs, repeated keys and degenerate shapes, against the reference evaluator,
    over each kind of fetch source."""

    def test_empty_fetch_propagates_empty_sets(self, fb_database, source, fb_access, psi1):
        builder, fetch = friend_plan(fb_access, psi1, "nobody")
        t2 = builder.add(ProjectOp(columns=("friend.fid",), inputs=(fetch,)), ["friend.fid"])
        friend = Relation.from_schema(fb_database.schema, "friend")
        reference = friend.select(eq(friend["pid"], "nobody")).project([friend["fid"]])
        result = run(builder.build(t2), source, evaluate(reference, fb_database).rows)
        assert result.rows == frozenset() and result.counter.index_probes == 1

    def test_select_filtering_every_row(self, fb_database, source, fb_access, psi1):
        builder, fetch = friend_plan(fb_access, psi1, "p0")
        t2 = builder.add(
            SelectOp(predicates=(ColumnPredicate("friend.pid", "=", "nobody"),), inputs=(fetch,)),
            ["friend.fid", "friend.pid"],
        )
        friend = Relation.from_schema(fb_database.schema, "friend")
        reference = friend.select(
            conjunction([eq(friend["pid"], "p0"), eq(friend["pid"], "nobody")])
        ).project([friend["fid"], friend["pid"]])
        result = run(builder.build(t2), source, evaluate(reference, fb_database).rows)
        assert result.rows == frozenset()
        assert len(result.env[fetch]) > 0  # the fetch found rows to drop

    def test_join_with_duplicate_build_keys(self, fb_database, source, fb_access, psi1):
        # friend fetched for two people, self-joined on the friend column:
        # every person pair sharing a friend — build side keys repeat.
        builder, t3 = friend_plan(fb_access, psi1, "p0", "p1")
        t4 = builder.add(
            RenameOp(mapping={"friend.fid": "other.fid", "friend.pid": "other.pid"}, inputs=(t3,)),
            ["other.fid", "other.pid"],
        )
        t5 = builder.add(
            HashJoinOp(pairs=(("friend.fid", "other.fid"),), residual=(), inputs=(t3, t4)),
            ["friend.fid", "friend.pid", "other.fid", "other.pid"],
        )
        t6 = builder.add(
            ProjectOp(columns=("friend.pid", "other.pid"), inputs=(t5,)),
            ["friend.pid", "other.pid"],
        )
        schema = fb_database.schema
        friend = Relation.from_schema(schema, "friend")
        other = Relation.from_schema(schema, "other", base="friend")
        reference = (
            friend.select(eq(friend["pid"], "p0"))
            .union(friend.select(eq(friend["pid"], "p1")))
            .join(
                other.select(eq(other["pid"], "p0")).union(other.select(eq(other["pid"], "p1"))),
                eq(friend["fid"], other["fid"]),
            )
            .project([friend["pid"], other["pid"]])
        )
        expected = evaluate(reference, fb_database).rows
        assert {("p0", "p0"), ("p1", "p1")} <= expected  # each pairs with itself at least
        run(builder.build(t6), source, expected, fb_database)

    def test_set_operations(self, source, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(ConstOp(value=2, column="x"), ["x"])
        t2 = builder.add(UnionOp(inputs=(t0, t1)), ["x"])
        t3 = builder.add(DifferenceOp(inputs=(t2, t1)), ["x"])
        t4 = builder.add(IntersectOp(inputs=(t2, t0)), ["x"])
        t5 = builder.add(UnionOp(inputs=(t3, t4)), ["x"])
        run(builder.build(t5), source, {(1,)})

    def test_zero_column_plan(self, source, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(UnitOp(), [])
        result = run(builder.build(t0), source, {()})
        assert result.columns == ()

    def test_product_with_empty_side(self, fb_database, source, fb_access, psi1):
        builder, fetch = friend_plan(fb_access, psi1, "nobody")
        t0 = builder.add(ConstOp(value="p0", column="a"), ["a"])
        t3 = builder.add(ProductOp(inputs=(t0, fetch)), ["a", "friend.fid", "friend.pid"])
        friend = Relation.from_schema(fb_database.schema, "friend")
        cafe = Relation.from_schema(fb_database.schema, "cafe")
        reference = cafe.project([cafe["cid"]]).product(
            friend.select(eq(friend["pid"], "nobody"))
        )
        assert evaluate(reference, fb_database).rows == frozenset()
        run(builder.build(t3), source, set(), fb_database)


def friends_of(builder, fetch, renames):
    """``fetch`` (friend, fetched through ψ1) renamed by ``renames``, as a new step."""
    columns = [renames.get(c, c) for c in ("friend.fid", "friend.pid")]
    return builder.add(RenameOp(mapping=renames, inputs=(fetch,)), columns), columns


#: whose friend rows the residual-join tests fetch
PEOPLE = ("p0", "p1", "p2")


def people(occurrence):
    """``occurrence`` restricted to :data:`PEOPLE`, for the reference evaluator."""
    chosen = [occurrence.select(eq(occurrence["pid"], p)) for p in PEOPLE]
    return chosen[0].union(chosen[1]).union(chosen[2])


def residual_self_join(fb_database, fb_access, psi1, residual, reference_condition):
    """friend ⋈ other on fid with ``residual``: the builder, the join step and its
    reference rows."""
    builder, left = friend_plan(fb_access, psi1, *PEOPLE)
    right, right_columns = friends_of(
        builder, left, {"friend.fid": "other.fid", "friend.pid": "other.pid"}
    )
    join = builder.add(
        HashJoinOp(pairs=(("friend.fid", "other.fid"),), residual=residual, inputs=(left, right)),
        ["friend.fid", "friend.pid", *right_columns],
    )
    schema = fb_database.schema
    friend = Relation.from_schema(schema, "friend")
    other = Relation.from_schema(schema, "other", base="friend")
    reference = people(friend).join(
        people(other),
        conjunction([eq(friend["fid"], other["fid"]), *reference_condition(friend, other)]),
    ).project([friend["fid"], friend["pid"], other["fid"], other["pid"]])
    return builder, join, evaluate(reference, fb_database).rows


def constants(builder, column, *values):
    """A one-column step holding ``values``: the union of one constant step each."""
    steps = [builder.add(ConstOp(value=v, column=column), [column]) for v in values]
    while len(steps) > 1:
        steps[:2] = [builder.add(UnionOp(inputs=tuple(steps[:2])), [column])]
    return steps[0]


class TestKernelShapes:
    """Each kernel's code path — composite and empty fetch keys, residual joins (left-only,
    right-only and mixed residuals), projections, products, ordering predicates, equality
    across types — against the reference evaluator, over each kind of fetch source."""

    def test_fetch_on_a_composite_key(self, fb_database, source, fb_access):
        psi2 = next(c for c in fb_access if c.name == "psi2")
        pid, _, month, year = min(fb_database.relation("dine").rows)
        builder = PlanBuilder(fb_access, occurrences={"dine": "dine"})
        t0 = builder.add(ConstOp(value=pid, column="dine.pid"), ["dine.pid"])
        t1 = builder.add(ConstOp(value=year, column="dine.year"), ["dine.year"])
        t2 = builder.add(ConstOp(value=month, column="dine.month"), ["dine.month"])
        t3 = builder.add(ProductOp(inputs=(t0, t1)), ["dine.pid", "dine.year"])
        t4 = builder.add(ProductOp(inputs=(t3, t2)), ["dine.pid", "dine.year", "dine.month"])
        # keys are aligned with sorted(lhs): month, pid, year
        t5 = builder.add(
            FetchOp(constraint=psi2, key_columns=("dine.month", "dine.pid", "dine.year"), inputs=(t4,)),
            ["dine.cid", "dine.month", "dine.pid", "dine.year"],
        )
        dine = Relation.from_schema(fb_database.schema, "dine")
        reference = dine.select(
            conjunction([eq(dine["pid"], pid), eq(dine["year"], year), eq(dine["month"], month)])
        ).project([dine["cid"], dine["month"], dine["pid"], dine["year"]])
        expected = evaluate(reference, fb_database).rows
        assert expected
        result = run(builder.build(t5), source, expected, fb_database)
        assert result.counter.index_probes == 1

    def test_fetch_with_an_empty_key(self, fb_database, source, access):
        builder = PlanBuilder(access, occurrences={"dine": "dine"})
        t0 = builder.add(UnitOp(), [])
        t1 = builder.add(FetchOp(constraint=PSI_MONTHS, key_columns=(), inputs=(t0,)), ["dine.month"])
        dine = Relation.from_schema(fb_database.schema, "dine")
        expected = evaluate(dine.project([dine["month"]]), fb_database).rows
        assert len(expected) > 1
        run(builder.build(t1), source, expected, fb_database)

    def test_join_with_a_residual_predicate(self, fb_database, source, fb_access, psi1):
        # people of {p0, p1, p2} pairs that share a friend, each pair once per order,
        # a person never paired with themself
        builder, t3 = friend_plan(fb_access, psi1, *PEOPLE)
        t4 = builder.add(
            RenameOp(mapping={"friend.fid": "other.fid", "friend.pid": "other.pid"}, inputs=(t3,)),
            ["other.fid", "other.pid"],
        )
        t5 = builder.add(
            HashJoinOp(
                pairs=(("friend.fid", "other.fid"),),
                residual=(ColumnPredicate("friend.pid", "!=", ColumnRef("other.pid")),),
                inputs=(t3, t4),
            ),
            ["friend.fid", "friend.pid", "other.fid", "other.pid"],
        )
        schema = fb_database.schema
        friend = Relation.from_schema(schema, "friend")
        other = Relation.from_schema(schema, "other", base="friend")
        reference = people(friend).join(
            people(other),
            conjunction(
                [eq(friend["fid"], other["fid"]), Comparison(friend["pid"], "!=", other["pid"])]
            ),
        ).project([friend["fid"], friend["pid"], other["fid"], other["pid"]])
        run(builder.build(t5), source, evaluate(reference, fb_database).rows)

    def test_projections_reorder_narrow_and_rename(self, fb_database, source, fb_access, psi1):
        builder, fetch = friend_plan(fb_access, psi1, "p0", "p1")
        t1 = builder.add(
            ProjectOp(columns=("friend.pid", "friend.fid"), inputs=(fetch,)),
            ["friend.pid", "friend.fid"],
        )
        t2 = builder.add(
            ProjectOp(columns=("friend.pid", "friend.fid"), inputs=(t1,), output_names=("who", "whom")),
            ["who", "whom"],
        )
        t3 = builder.add(ProjectOp(columns=("who",), inputs=(t2,)), ["who"])
        friend = Relation.from_schema(fb_database.schema, "friend")
        both = friend.select(eq(friend["pid"], "p0")).union(friend.select(eq(friend["pid"], "p1")))
        plan = builder.build(t3)
        result = run(plan, source, evaluate(both.project([friend["pid"]]), fb_database).rows)
        assert result.columns == ("who",)
        pairs = PlanExecutor(source).execute(builder.build(t2))
        assert pairs.columns == ("who", "whom")
        assert pairs.rows == evaluate(both.project([friend["pid"], friend["fid"]]), fb_database).rows

    def test_product_of_two_fetches(self, fb_database, source, fb_access, psi1):
        psi4 = next(c for c in fb_access if c.name == "psi4")
        cid = min(fb_database.relation("cafe").rows)[0]
        builder, friends = friend_plan(fb_access, psi1, "p0")
        t0 = builder.add(ConstOp(value=cid, column="cafe.cid"), ["cafe.cid"])
        t1 = builder.add(
            FetchOp(constraint=psi4, key_columns=("cafe.cid",), inputs=(t0,)),
            ["cafe.cid", "cafe.city"],
        )
        t2 = builder.add(
            ProductOp(inputs=(friends, t1)),
            ["friend.fid", "friend.pid", "cafe.cid", "cafe.city"],
        )
        schema = fb_database.schema
        friend, cafe = Relation.from_schema(schema, "friend"), Relation.from_schema(schema, "cafe")
        reference = friend.select(eq(friend["pid"], "p0")).product(
            cafe.select(eq(cafe["cid"], cid))
        ).project([friend["fid"], friend["pid"], cafe["cid"], cafe["city"]])
        expected = evaluate(reference, fb_database).rows
        assert expected
        run(builder.build(t2), source, expected, fb_database)

    def test_select_with_ordering_operators(self, fb_database, source, fb_access, psi1):
        builder, fetch = friend_plan(fb_access, psi1, "p0", "p1", "p2")
        predicates = (
            ColumnPredicate("friend.fid", ">", "p1"),
            ColumnPredicate("friend.fid", "<=", "p3"),
            ColumnPredicate("friend.pid", "!=", "p1"),
        )
        t1 = builder.add(SelectOp(predicates=predicates, inputs=(fetch,)), ["friend.fid", "friend.pid"])
        friend = Relation.from_schema(fb_database.schema, "friend")
        reference = friend.select(
            conjunction(
                [
                    Comparison(friend["fid"], ">", Constant("p1")),
                    Comparison(friend["fid"], "<=", Constant("p3")),
                    Comparison(friend["pid"], "!=", Constant("p1")),
                ]
            )
        )
        reference = (
            reference.select(eq(friend["pid"], "p0"))
            .union(reference.select(eq(friend["pid"], "p2")))
            .project([friend["fid"], friend["pid"]])
        )
        expected = evaluate(reference, fb_database).rows
        assert expected
        run(builder.build(t1), source, expected, fb_database)

    @pytest.mark.parametrize(
        "residual, condition",
        [
            pytest.param(
                (ColumnPredicate("friend.pid", "=", "p0"),),
                lambda f, o: [eq(f["pid"], "p0")],
                id="left-only",
            ),
            pytest.param(
                (ColumnPredicate("other.pid", "!=", "p1"),),
                lambda f, o: [Comparison(o["pid"], "!=", Constant("p1"))],
                id="right-only",
            ),
            pytest.param(
                (ColumnPredicate("friend.pid", "<", ColumnRef("other.pid")),),
                lambda f, o: [Comparison(f["pid"], "<", o["pid"])],
                id="mixed",
            ),
            pytest.param(
                (
                    ColumnPredicate("friend.pid", "!=", "p2"),
                    ColumnPredicate("other.pid", "=", "p2"),
                    ColumnPredicate("friend.pid", "!=", ColumnRef("other.pid")),
                ),
                lambda f, o: [
                    Comparison(f["pid"], "!=", Constant("p2")),
                    eq(o["pid"], "p2"),
                    Comparison(f["pid"], "!=", o["pid"]),
                ],
                id="all-three",
            ),
        ],
    )
    def test_join_residual_by_side(self, fb_database, source, fb_access, psi1, residual, condition):
        """A one-sided residual filters its side's input; a mixed one sees joined rows."""
        builder, join, expected = residual_self_join(fb_database, fb_access, psi1, residual, condition)
        assert expected
        run(builder.build(join), source, expected, fb_database)

    def test_a_join_residual_on_a_column_of_both_sides_filters_the_left(
        self, fb_database, source, fb_access, psi1
    ):
        # friend ⋈ friend on pid, ``friend.fid`` on both sides: the first occurrence,
        # the left one, is the one the residual reads
        person = "p0"
        friend_rows = fb_database.relation("friend").rows
        fids = sorted(fid for pid, fid in friend_rows if pid == person)
        assert len(fids) >= 2  # else filtering either side would give the same rows
        builder, left = friend_plan(fb_access, psi1, person)
        right, right_columns = friends_of(builder, left, {"friend.pid": "other.pid"})
        join = builder.add(
            HashJoinOp(
                pairs=(("friend.pid", "other.pid"),),
                residual=(ColumnPredicate("friend.fid", "=", fids[0]),),
                inputs=(left, right),
            ),
            ["friend.fid", "friend.pid", *right_columns],
        )
        schema = fb_database.schema
        friend = Relation.from_schema(schema, "friend")
        other = Relation.from_schema(schema, "other", base="friend")
        reference = friend.select(eq(friend["pid"], person)).join(
            other.select(eq(other["pid"], person)),
            conjunction([eq(friend["pid"], other["pid"]), eq(friend["fid"], fids[0])]),
        ).project([friend["fid"], friend["pid"], other["fid"], other["pid"]])
        expected = evaluate(reference, fb_database).rows
        assert {row[0] for row in expected} == {fids[0]}
        assert {row[2] for row in expected} == set(fids)
        run(builder.build(join), source, expected, fb_database)

    @pytest.mark.parametrize(
        "op, constant, expected",
        [
            ("=", None, {(None,)}),
            ("=", 1.0, {(1,)}),  # 1 == 1.0
            ("=", "1", {("1",)}),
            ("!=", None, {(1,), ("1",), ("a",)}),
            (">", 0, {(1,)}),  # None, "1" and "a" do not order against an int
            ("<=", "b", {("1",), ("a",)}),
        ],
    )
    def test_select_over_mixed_types(self, source, fb_access, op, constant, expected):
        """``column = constant`` keeps ``==``'s meaning; ordering across types matches nothing."""
        builder = PlanBuilder(fb_access)
        values = constants(builder, "x", None, 1, "1", "a")
        select = builder.add(
            SelectOp(predicates=(ColumnPredicate("x", op, constant),), inputs=(values,)), ["x"]
        )
        result = run(builder.build(select), source, expected)
        assert len(result.env[values]) == 4

    def test_equality_against_none_in_the_data(self, fb_database, source, fb_access, psi1):
        builder, fetch = friend_plan(fb_access, psi1, "p0")
        select = builder.add(
            SelectOp(predicates=(ColumnPredicate("friend.fid", "=", None),), inputs=(fetch,)),
            ["friend.fid", "friend.pid"],
        )
        friend = Relation.from_schema(fb_database.schema, "friend")
        reference = friend.select(
            conjunction([eq(friend["pid"], "p0"), Comparison(friend["fid"], "=", Constant(None))])
        ).project([friend["fid"], friend["pid"]])
        assert evaluate(reference, fb_database).rows == frozenset()
        run(builder.build(select), source, set(), fb_database)

    @pytest.mark.parametrize(
        "residual, keeps",
        [
            pytest.param(ColumnPredicate("friend.fid", "<", 5), False, id="left-only"),
            pytest.param(ColumnPredicate("n", ">", "a"), False, id="right-only"),
            pytest.param(ColumnPredicate("friend.fid", ">=", ColumnRef("n")), False, id="mixed"),
            pytest.param(ColumnPredicate("n", ">", 1), True, id="comparable"),
        ],
    )
    def test_join_residual_over_incomparable_types(
        self, fb_database, source, fb_access, psi1, residual, keeps
    ):
        builder, fetch = friend_plan(fb_access, psi1, "p0")
        key = builder.add(ConstOp(value="p0", column="k"), ["k"])
        number = builder.add(ConstOp(value=5, column="n"), ["n"])
        right = builder.add(ProductOp(inputs=(key, number)), ["k", "n"])
        join = builder.add(
            HashJoinOp(pairs=(("friend.pid", "k"),), residual=(residual,), inputs=(fetch, right)),
            ["friend.fid", "friend.pid", "k", "n"],
        )
        friends = {(fid, pid, pid, 5) for pid, fid in fb_database.relation("friend").rows if pid == "p0"}
        assert friends
        run(builder.build(join), source, friends if keeps else set(), fb_database)


class TestFusedSchedule:
    """Each fusion of the run schedule — a prefilled constant, a projection folded into a
    fetch's key, π∘⋈ — against the reference evaluator and every fetch slot against its
    definition, over each kind of fetch source, with the exact schedule length."""

    def test_a_constant_is_prefilled_and_shared_by_every_run(
        self, fb_database, source, fb_access, psi1
    ):
        builder, fetch = friend_plan(fb_access, psi1, "p0")
        plan = builder.build(fetch)
        friend = Relation.from_schema(fb_database.schema, "friend")
        reference = friend.select(eq(friend["pid"], "p0")).project([friend["fid"], friend["pid"]])
        result = run(plan, source, evaluate(reference, fb_database).rows, fb_database)
        assert result.kernel_batches == 1  # the fetch; the constant is the template's
        assert result.env[0] == {("p0",)}
        executor = PlanExecutor(source)
        first, second = (executor.execute(plan, capture_env=True) for _ in range(2))
        assert first.env[0] is second.env[0] is executor.compile(plan).template[0]

    def test_a_fetch_keyed_by_constants_gets_its_keys_when_lowered(
        self, fb_database, source, fb_access, psi1
    ):
        """Keys read off a template slot are extracted once, at compile time: the
        source is told them when the step is lowered, every run hands it that same
        frozenset, and the fetch still runs per read."""
        builder, fetch = friend_plan(fb_access, psi1, "p0", "p1")
        plan = builder.build(fetch)
        expected = {row[::-1] for row in fb_database.relation("friend").rows if row[0] in ("p0", "p1")}
        asked, told = [], []

        class Recording:
            def fetcher(self, plan, step, keys):
                told.append(keys)
                inner = source.fetcher(plan, step, keys)

                def fetch(keys, counter):
                    asked.append(keys)
                    return inner(keys, counter)

                return fetch

        executor = PlanExecutor(Recording())
        runs = [executor.execute(plan) for _ in range(2)]
        assert [r.rows for r in runs] == [frozenset(expected)] * 2 and expected
        assert [r.counter.fetched for r in runs] == [len(expected)] * 2
        assert len(asked) == 2 and asked[0] is asked[1]
        assert len(told) == 1 and told[0] is asked[0]  # the source is told the set it gets
        assert asked[0] == {("p0",), ("p1",)} and isinstance(asked[0], frozenset)

    @pytest.mark.parametrize("keep", ["p0", "zz"], ids=["rows", "empty"])
    def test_a_step_over_constants_alone_runs_once_when_lowered(
        self, fb_database, source, fb_access, psi1, keep
    ):
        """A selection of a constant that a join reads (not a fetch alone): its rows,
        empty or not, are the template's, and a run schedules the fetch and the join."""
        builder, fetch = friend_plan(fb_access, psi1, "p0")
        key = builder.add(ConstOp(value="p0", column="k"), ["k"])
        kept = builder.add(SelectOp(predicates=(ColumnPredicate("k", "=", keep),), inputs=(key,)), ["k"])
        join = builder.add(
            HashJoinOp(pairs=(("friend.pid", "k"),), residual=(), inputs=(fetch, kept)),
            ["friend.fid", "friend.pid", "k"],
        )
        plan = builder.build(join)
        friends = {(fid, pid, pid) for pid, fid in fb_database.relation("friend").rows if pid == keep}
        assert bool(friends) is (keep == "p0")
        result = run(plan, source, friends, fb_database)
        assert result.kernel_batches == 2  # the fetch and the join
        template = PlanExecutor(source).compile(plan).template
        assert template[kept] == ({("p0",)} if friends else set())
        assert result.env[kept] == template[kept]

    def test_a_projection_folds_into_a_one_column_fetch_key(
        self, fb_database, source, fb_access, psi1
    ):
        # friends of p0's friends: the friend column, renamed, keys the second fetch
        builder, friends = friend_plan(fb_access, psi1, "p0")
        key = builder.add(
            ProjectOp(columns=("friend.fid",), inputs=(friends,), output_names=("hop",)), ["hop"]
        )
        second = builder.add(
            FetchOp(constraint=psi1, key_columns=("hop",), inputs=(key,)),
            ["friend.fid", "friend.pid"],
        )
        schema = fb_database.schema
        friend = Relation.from_schema(schema, "friend")
        other = Relation.from_schema(schema, "other", base="friend")
        reference = friend.select(eq(friend["pid"], "p0")).join(
            other, eq(friend["fid"], other["pid"])
        ).project([other["fid"], other["pid"]])
        expected = evaluate(reference, fb_database).rows
        assert expected
        result = run(builder.build(second), source, expected, fb_database)
        assert result.kernel_batches == 2  # two fetches
        assert result.env[key] is None
        keys = {(pid,) for _, pid in expected}
        assert result.counter.index_probes == 1 + len(keys)

    def test_a_projection_folds_into_a_two_column_fetch_key(self, fb_database, source, access):
        # the projection drops a column and reorders the rest, so the fetch's
        # key positions compose through it
        psi2 = next(c for c in access if c.name == "psi2")
        dines = sorted(fb_database.relation("dine").rows)
        (pid, _, month, year), (other_pid, *_) = dines[0], dines[-1]
        builder = PlanBuilder(access, occurrences={"dine": "dine"})
        junk = builder.add(ConstOp(value="junk", column="junk"), ["junk"])
        people_step = constants(builder, "dine.pid", pid, other_pid)
        t_year = builder.add(ConstOp(value=year, column="dine.year"), ["dine.year"])
        t_month = builder.add(ConstOp(value=month, column="dine.month"), ["dine.month"])
        wide = ["junk", "dine.pid", "dine.year", "dine.month"]
        t1 = builder.add(ProductOp(inputs=(junk, people_step)), wide[:2])
        t2 = builder.add(ProductOp(inputs=(t1, t_year)), wide[:3])
        t3 = builder.add(ProductOp(inputs=(t2, t_month)), wide)
        key = builder.add(
            ProjectOp(
                columns=("dine.year", "dine.month", "dine.pid"), inputs=(t3,), output_names=("y", "m", "p")
            ),
            ["y", "m", "p"],
        )
        # keys are aligned with sorted(lhs): month, pid, year
        fetch = builder.add(
            FetchOp(constraint=psi2, key_columns=("m", "p", "y"), inputs=(key,)),
            ["dine.cid", "dine.month", "dine.pid", "dine.year"],
        )
        dine = Relation.from_schema(fb_database.schema, "dine")
        chosen = [
            dine.select(conjunction([eq(dine["pid"], p), eq(dine["year"], year), eq(dine["month"], month)]))
            for p in (pid, other_pid)
        ]
        reference = chosen[0].union(chosen[1]).project(
            [dine["cid"], dine["month"], dine["pid"], dine["year"]]
        )
        expected = evaluate(reference, fb_database).rows
        assert expected
        result = run(builder.build(fetch), source, expected, fb_database)
        # the fetch: the union and the three products of constants ran when lowered
        assert result.kernel_batches == 1
        assert result.env[key] is None
        assert result.counter.index_probes == 2

    def test_a_projection_folds_into_a_zero_column_fetch_key(
        self, fb_database, source, access, psi1
    ):
        # every month anyone dined in, if p0 has a friend: the key is the empty tuple
        builder, friends = friend_plan(access, psi1, "p0")
        key = builder.add(ProjectOp(columns=(), inputs=(friends,)), [])
        months = builder.add(
            FetchOp(constraint=PSI_MONTHS, key_columns=(), inputs=(key,)), ["dine.month"]
        )
        dine = Relation.from_schema(fb_database.schema, "dine")
        expected = evaluate(dine.project([dine["month"]]), fb_database).rows
        assert len(expected) > 1
        result = run(builder.build(months), source, expected, fb_database)
        assert result.kernel_batches == 2  # two fetches
        assert result.env[key] is None
        assert result.counter.per_relation["dine"] == len(expected)

    @pytest.mark.parametrize(
        "residual, condition",
        [
            pytest.param((), lambda f, o: [], id="no-residual"),
            pytest.param(
                (ColumnPredicate("other.pid", "!=", "p1"),),
                lambda f, o: [Comparison(o["pid"], "!=", Constant("p1"))],
                id="one-sided",
            ),
            pytest.param(
                (
                    ColumnPredicate("friend.pid", "!=", "p2"),
                    ColumnPredicate("friend.pid", "<", ColumnRef("other.pid")),
                ),
                lambda f, o: [
                    Comparison(f["pid"], "!=", Constant("p2")),
                    Comparison(f["pid"], "<", o["pid"]),
                ],
                id="mixed",
            ),
        ],
    )
    def test_a_projected_join_runs_as_one_kernel(
        self, fb_database, source, fb_access, psi1, residual, condition
    ):
        """π∘⋈ emits projected rows; here the projection feeds a fetch, so it keeps its
        slot (the join is fused into it, and a step fuses into one consumer only)."""
        builder, join, _ = residual_self_join(fb_database, fb_access, psi1, residual, condition)
        pairs = builder.add(
            ProjectOp(columns=("other.pid", "friend.pid"), inputs=(join,)), ["other.pid", "friend.pid"]
        )
        fetch = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(pairs,)),
            ["friend.fid", "friend.pid"],
        )
        output = builder.add(
            HashJoinOp(pairs=(("friend.pid", "friend.pid"),), residual=(), inputs=(pairs, fetch)),
            ["other.pid", "friend.pid", "friend.fid", "friend.pid"],
        )
        schema = fb_database.schema
        friend = Relation.from_schema(schema, "friend")
        other = Relation.from_schema(schema, "other", base="friend")
        again = Relation.from_schema(schema, "again", base="friend")
        joined = people(friend).join(
            people(other), conjunction([eq(friend["fid"], other["fid"]), *condition(friend, other)])
        )
        reference = joined.join(again, eq(friend["pid"], again["pid"])).project(
            [other["pid"], friend["pid"], again["fid"], again["pid"]]
        )
        expected = evaluate(reference, fb_database).rows
        assert expected
        result = run(builder.build(output), source, expected, fb_database)
        # two fetches, the rename, π∘⋈ and the last join (the two unions are of
        # constants: they ran when the plan was lowered)
        assert result.kernel_batches == 5
        assert result.env[join] is None
        assert result.env[pairs] == {(o_pid, f_pid) for o_pid, f_pid, *_ in expected}

    def test_a_join_projected_by_the_output_step(self, fb_database, source, fb_access, psi1):
        builder, join, joined = residual_self_join(
            fb_database,
            fb_access,
            psi1,
            (ColumnPredicate("friend.pid", "!=", ColumnRef("other.pid")),),
            lambda f, o: [Comparison(f["pid"], "!=", o["pid"])],
        )
        output = builder.add(
            ProjectOp(columns=("other.pid", "friend.pid"), inputs=(join,), output_names=("a", "b")),
            ["a", "b"],
        )
        expected = {(o_pid, f_pid) for _, f_pid, _, o_pid in joined}
        assert expected
        result = run(builder.build(output), source, expected, fb_database)
        assert result.kernel_batches == 3  # the fetch, the rename, π∘⋈ (not the unions)
        assert result.env[join] is None and result.env[output] == expected
        assert result.columns == ("a", "b")

    def test_a_step_with_two_readers_keeps_its_slot(self, fb_database, source, fb_access, psi1):
        # the projection keys a fetch and is the output: read twice, it is not fused
        builder, friends = friend_plan(fb_access, psi1, "p0")
        key = builder.add(
            ProjectOp(columns=("friend.fid",), inputs=(friends,), output_names=("hop",)), ["hop"]
        )
        builder.add(FetchOp(constraint=psi1, key_columns=("hop",), inputs=(key,)), ["friend.fid", "friend.pid"])
        plan = builder.build(key)
        friend = Relation.from_schema(fb_database.schema, "friend")
        expected = evaluate(friend.select(eq(friend["pid"], "p0")).project([friend["fid"]]), fb_database).rows
        result = run(plan, source, expected, fb_database)
        assert result.kernel_batches == 3 and result.env[key] == expected


class TestCompiledPlanKeptOnThePlan:
    """A plan keeps the run schedule it was lowered to, for the executor that
    lowered it: nothing beside the plan holds kernels."""

    def test_an_executor_lowers_a_plan_once(self, fb_indexes, fb_access, psi1):
        builder, fetch = friend_plan(fb_access, psi1, "p0")
        plan = builder.build(fetch)
        executor = PlanExecutor(fb_indexes)
        compiled = executor.compile(plan)
        assert plan.compiled is compiled
        assert (compiled.plan, compiled.executor) == (plan, executor)
        assert executor.compile(plan) is compiled
        assert executor.execute(plan).rows == executor.execute(plan).rows
        assert plan.compiled is compiled

    def test_another_executor_lowers_the_plan_again(self, fb_indexes, fb_access, psi1):
        builder, fetch = friend_plan(fb_access, psi1, "p0")
        plan = builder.build(fetch)
        first, second = PlanExecutor(fb_indexes), PlanExecutor(fb_indexes)
        compiled = first.compile(plan)
        other = second.compile(plan)  # its kernels read another fetch source
        assert other is not compiled and other.executor is second and plan.compiled is other
        assert first.compile(plan) is not compiled  # the plan keeps one schedule
        assert first.execute(plan).rows == second.execute(plan).rows

    def test_a_copy_of_a_plan_is_lowered_for_itself(self, fb_indexes, fb_access, psi1):
        builder, fetch = friend_plan(fb_access, psi1, "p0")
        plan = builder.build(fetch)
        executor = PlanExecutor(fb_indexes)
        compiled = executor.compile(plan)
        copied = copy.copy(plan)
        assert copied == plan and copied.compiled is compiled  # carried over, not reused
        assert executor.compile(copied).plan is copied
        assert executor.compile(plan) is compiled


class TestMalformedPlansAreRefused:
    """Lowering refuses a plan it cannot run, naming the step at fault."""

    def test_steps_numbered_with_a_gap(self, fb_indexes, fb_access):
        steps = [PlanStep(0, UnitOp(), ()), PlanStep(2, UnitOp(), ())]
        plan = BoundedPlan(steps=steps, output=1, access_schema=fb_access)
        with pytest.raises(PlanError, match="not densely numbered: T2 at position 1"):
            PlanExecutor(fb_indexes).execute(plan)

    def test_an_output_step_past_the_end(self, fb_indexes, fb_access):
        plan = BoundedPlan(steps=[PlanStep(0, UnitOp(), ())], output=3, access_schema=fb_access)
        with pytest.raises(PlanError, match="output step T3 does not exist"):
            PlanExecutor(fb_indexes).execute(plan)

    def test_a_set_operation_over_two_arities(self, fb_indexes, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(UnitOp(), [])
        t2 = builder.add(IntersectOp(inputs=(t0, t1)), ["x"])
        with pytest.raises(PlanError, match="T2: operands have arities 1 and 0"):
            PlanExecutor(fb_indexes).execute(builder.build(t2))

    def test_a_predicate_on_a_missing_column(self, fb_indexes, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(SelectOp(predicates=(ColumnPredicate("y", "=", 1),), inputs=(t0,)), ["x"])
        with pytest.raises(PlanError, match="references missing column 'y'"):
            PlanExecutor(fb_indexes).execute(builder.build(t1))

    def test_a_projection_of_a_missing_column(self, fb_indexes, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(ProjectOp(columns=("y",), inputs=(t0,)), ["y"])
        with pytest.raises(PlanError, match="step T1 references missing column 'y'"):
            PlanExecutor(fb_indexes).execute(builder.build(t1))
