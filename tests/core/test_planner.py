"""Unit tests for algorithm QPlan (canonical bounded plan generation, Section 5)."""

from collections import Counter

import pytest
from analytic_queries import analytic_queries

from repro.backends.sqlite import SQLiteBackend
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.coverage import check_coverage
from repro.core.engine import BoundedEngine, prepare_query
from repro.core.errors import NotCoveredError
from repro.core.plan import FetchOp
from repro.core.planner import generate_plan, plan_query
from repro.core.query import Relation, conjunction, eq, relation
from repro.core.schema import DatabaseSchema
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import execute_plan
from repro.sharding import SQLiteShard, build_topology
from repro.storage.database import Database
from repro.storage.index import IndexSet
from repro.workloads import WORKLOADS, facebook, tfacc


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


def _tfacc_three_way():
    """``π[year, police.region, districts.region] σ[accident_id = 5] (accidents ⋈ police ⋈ districts)``."""
    schema = tfacc.schema()
    accidents, police, districts = (
        relation(schema, name) for name in ("accidents", "police", "districts")
    )
    query = (
        accidents.join(police, eq(accidents["police_force"], police["police_force"]))
        .join(districts, eq(accidents["district"], districts["district"]))
        .select(eq(accidents["accident_id"], 5))
        .project([accidents["year"], police["region"], districts["region"]])
    )
    return query, tfacc.access_schema(schema)


def _fetch_once_cases():
    fb = facebook.access_schema()
    yield "facebook-q1", facebook.query_q1(), fb
    yield "facebook-friends-of-friends", facebook.query_friends_of_friends(), fb
    yield "facebook-difference", facebook.query_q0_prime(), fb
    yield "tfacc-three-way", *_tfacc_three_way()
    for name in sorted(WORKLOADS):
        for index, query in enumerate(analytic_queries(WORKLOADS[name])):
            yield f"{name}-analytic-{index}", query, WORKLOADS[name].access_schema


class TestFetchOnce:
    """A relation's indexing plan shares the unit fetch of its constraint."""

    @pytest.mark.parametrize("minimize", [True, False], ids=["minA", "A"])
    @pytest.mark.parametrize(
        "query, access",
        [pytest.param(query, access, id=name) for name, query, access in _fetch_once_cases()],
    )
    def test_no_plan_fetches_one_constraint_by_one_key_twice(self, query, access, minimize):
        prepared = prepare_query(query, access, minimize=minimize)
        for plan in (prepared.plan, prepared.executable):
            fetches = Counter(
                (step.op.constraint, step.op.key_columns) for step in plan.fetch_steps()
            )
            assert fetches and max(fetches.values()) == 1, fetches
            # every occurrence still has its surrogate, and it reads its own relation
            assert set(plan.surrogates) == set(plan.occurrences)
            for occurrence, step_id in plan.surrogates.items():
                assert all(c.startswith(f"{occurrence}.") for c in plan.step(step_id).columns)

    def test_point_join_is_one_fetch_per_relation(self):
        """The plan ARCHITECTURE step 4 quotes: 3 relations, 3 fetches, bound 3 (was 6, 6)."""
        prepared = prepare_query(*_tfacc_three_way())
        canonical, executable = prepared.plan, prepared.executable
        assert (len(canonical), len(executable)) == (15, 9)
        # every fetch returns one row: no projection can shrink, the optimizer inserts none
        assert not any(step.comment.startswith("pruned for ") for step in executable.steps)
        for plan in (canonical, executable):
            assert len(plan.fetch_steps()) == 3 and plan.access_bound() == 3
            # nothing foreign to test: each surrogate *is* its constraint's fetch,
            # and the optimizer keeps pointing at it
            fetch_ids = {step.id for step in plan.fetch_steps()}
            assert set(plan.surrogates.values()) == fetch_ids
            for occurrence, step_id in plan.surrogates.items():
                comment = plan.step(step_id).comment
                assert comment.startswith("fetch via ")
                assert comment.endswith(f"; indexed surrogate for {occurrence}")


# -- the corners of the exactness argument, on answers that exist ----------------

_CORNER_SCHEMA = DatabaseSchema.from_dict(
    {
        "orders": ["oid", "cust", "ship_to", "status"],
        "people": ["pid", "name", "city"],
    }
)
_CORNER_ACCESS = AccessSchema(
    [
        AccessConstraint.of("orders", "cust", "oid", 10, name="customer-orders"),
        AccessConstraint.of(
            "orders", "oid", ["oid", "cust", "ship_to", "status"], 1, name="order-key"
        ),
        AccessConstraint.of("people", "pid", ["pid", "name", "city"], 1, name="person-key"),
        AccessConstraint.of("people", "city", "pid", 5, name="city-people"),
    ],
    schema=_CORNER_SCHEMA,
)


def _corner_database() -> Database:
    database = Database(_CORNER_SCHEMA)
    database.insert_many(
        "orders",
        [
            (1, "ann", "ann", "open"),
            (2, "ann", "bob", "open"),
            (3, "ann", "ann", "shipped"),
            (4, "bob", "cy", "open"),
            (5, "cy", "cy", "open"),
        ],
    )
    database.insert_many(
        "people", [("ann", "Ann", "nyc"), ("bob", "Bob", "nyc"), ("cy", "Cy", "austin")]
    )
    return database


def _corner_queries() -> dict:
    orders, people = relation(_CORNER_SCHEMA, "orders"), relation(_CORNER_SCHEMA, "people")
    in_city = orders.join(people, eq(orders["cust"], people["pid"]))
    return {
        # `status` is a constant on a non-key attribute of order-key: a semijoin stays
        "foreign-constant": orders.select(
            conjunction([eq(orders["cust"], "ann"), eq(orders["status"], "open")])
        ).project([orders["oid"], orders["ship_to"]]),
        # cust = ship_to inside one tuple, under a token order-key did not fetch ...
        "shared-token-foreign": orders.select(
            conjunction([eq(orders["cust"], "ann"), eq(orders["cust"], orders["ship_to"])])
        ).project([orders["oid"], orders["status"]]),
        # ... and under a token that is π of order-key's own fetch: a selection, no join
        "shared-token-home": orders.select(
            conjunction([eq(orders["oid"], 5), eq(orders["cust"], orders["ship_to"])])
        ).project([orders["status"]]),
        # no unit plan reads person-key: the indexing plan creates its fetch
        "index-only-constraint": in_city.select(
            conjunction([eq(orders["oid"], 2), eq(people["city"], "nyc")])
        ).project([orders["oid"], people["pid"]]),
        # a constant that matches nothing: when QPlan derives cust/pid through
        # city-people (it may, ROADMAP 3(a)), orders' candidates for `cust` are
        # empty and order-key is still probed with oid 2
        "empty-candidates": in_city.select(
            conjunction([eq(orders["oid"], 2), eq(people["city"], "atlantis")])
        ).project([orders["oid"], people["pid"]]),
    }


_CORNER_SUBSTRATES = ("engine", "engine-written", "router-3-mixed", "plan2sql")


class TestIndexingPlanCorners:
    @pytest.mark.parametrize("minimize", [True, False], ids=["minA", "A"])
    @pytest.mark.parametrize("substrate", _CORNER_SUBSTRATES)
    @pytest.mark.parametrize("corner", sorted(_corner_queries()))
    def test_reference_rows_within_the_bound(self, corner, substrate, minimize):
        database, query = _corner_database(), _corner_queries()[corner]
        answer = evaluate(query, database).rows
        assert bool(answer) is (corner != "empty-candidates"), "an empty answer compares nothing"
        prepared = prepare_query(query, _CORNER_ACCESS, minimize=minimize)
        if substrate == "plan2sql":
            with SQLiteBackend(database) as backend:
                backend.create_index_tables(_CORNER_ACCESS)
                for plan in (prepared.plan, prepared.executable):
                    assert backend.run_bounded_plan(plan).rows == answer
            return
        if substrate == "router-3-mixed":
            core = build_topology(
                database, _CORNER_ACCESS, shards=3, backends=["memory", "sqlite", "memory"]
            )
        else:
            core = BoundedEngine(database, _CORNER_ACCESS)

        def read():
            """The core's read, which is minimized; the whole schema's plan
            runs on the core's executor, over the same fetch source."""
            if minimize:
                result = core.execute(query)
                assert result.strategy == "bounded"
                return result
            return core._executor.execute(prepared.executable)

        try:
            result = read()
        finally:
            for shard in getattr(core, "shards", ()):
                if isinstance(shard, SQLiteShard):
                    shard.close()
        assert result.rows == answer
        assert result.counter.total <= prepared.plan.access_bound()
        assert result.counter.total > 0  # even the empty answer is found by fetching
        if substrate == "engine-written":
            # every row the plan depends on, taken away and put back: each
            # write settles the cached entry (patched or clean, never dropped)
            for name in prepared.dependencies:
                for row in sorted(database.relation(name).rows):
                    for write in (Update.delete(name, row), Update.insert(name, row)):
                        core.apply_updates([write])
                        reread = read()
                        assert minimize is False or reread.result_cached
                        assert reread.rows == evaluate(query, database).rows
            assert core.cache_stats()["result_cache"]["repair_fallbacks"] == 0

    def test_the_corners_are_the_shapes_they_claim(self):
        """What each corner's canonical plan must contain for the case above to test it."""
        plans = {
            corner: prepare_query(query, _CORNER_ACCESS).plan
            for corner, query in _corner_queries().items()
        }

        def fetch_behind(plan, step_id):
            step = plan.step(step_id)
            while not isinstance(step.op, FetchOp):
                step = plan.step(step.op.inputs[0])
            return step

        def comments(plan):
            return [step.comment for step in plan.steps]

        assert "candidates for orders.status" in comments(plans["foreign-constant"])
        shared = plans["shared-token-foreign"]
        assert any(
            step.op.describe().count("= cand::orders.cust") == 2 for step in shared.steps
        ), shared  # one semijoin carries both cust and ship_to
        home = plans["shared-token-home"]
        assert not any("cand::" in column for step in home.steps for column in step.columns)
        assert "σ[orders.ship_to = orders.cust]" in str(home.step(home.surrogates["orders"]))
        index_only = plans["index-only-constraint"]
        fetch = fetch_behind(index_only, index_only.surrogates["people"])
        assert fetch.op.constraint.name == "person-key"
        assert all(
            fetch_behind(index_only, unit) is not fetch
            for unit in index_only.fetch_plans.values()
            if index_only.step(unit).op.inputs
        )
