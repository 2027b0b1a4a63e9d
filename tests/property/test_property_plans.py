"""Property-based end-to-end tests: bounded plans compute Q(D) on random data.

These are the strongest correctness properties in the suite: for randomly
generated databases (that satisfy the access schema by construction) and for
randomly generated covered queries, the canonical bounded plan produced by
``QPlan`` must return exactly ``Q(D)`` while accessing data only through
indexes and staying under its own static access bound.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.coverage import check_coverage
from repro.core.planner import generate_plan
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import execute_plan
from repro.storage.database import Database
from repro.storage.index import IndexSet
from repro.workloads import WORKLOADS, RandomQueryGenerator, facebook

MONTHS = ("jan", "may", "jun")
CITIES = ("nyc", "boston")


@st.composite
def facebook_databases(draw):
    """Small random instances of the Example 1 schema that satisfy A0."""
    database = Database(facebook.schema())
    people = [f"p{i}" for i in range(draw(st.integers(min_value=2, max_value=6)))]
    cafes = [f"c{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    for cid in cafes:
        database.insert("cafe", (cid, draw(st.sampled_from(CITIES))))
    friend_pairs = draw(
        st.sets(
            st.tuples(st.sampled_from(people), st.sampled_from(people)), max_size=12
        )
    )
    for pid, fid in friend_pairs:
        if pid != fid:
            database.insert("friend", (pid, fid))
    dine_rows = draw(
        st.sets(
            st.tuples(
                st.sampled_from(people),
                st.sampled_from(cafes),
                st.sampled_from(MONTHS),
                st.sampled_from([2014, 2015]),
            ),
            max_size=20,
        )
    )
    for row in dine_rows:
        database.insert("dine", row)
    return database


class TestFacebookQueriesOnRandomData:
    @given(facebook_databases())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_q1_plan_equals_reference(self, database):
        access = facebook.access_schema()
        assert database.satisfies_schema(access)
        query = facebook.query_q1()
        plan = generate_plan(check_coverage(query, access))
        indexes = IndexSet.build(database, access)
        execution = execute_plan(plan, indexes)
        assert execution.rows == evaluate(query, database).rows
        assert execution.counter.scanned == 0
        assert execution.counter.total <= plan.access_bound()

    @given(facebook_databases())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_q0_prime_plan_equals_q0_semantics(self, database):
        access = facebook.access_schema()
        query = facebook.query_q0_prime()
        plan = generate_plan(check_coverage(query, access))
        indexes = IndexSet.build(database, access)
        execution = execute_plan(plan, indexes)
        assert execution.rows == evaluate(facebook.query_q0(), database).rows


class TestGeneratedCoveredQueries:
    @given(
        workload_name=st.sampled_from(sorted(WORKLOADS)),
        generator_seed=st.integers(min_value=0, max_value=2**16),
        n_sel=st.integers(min_value=3, max_value=7),
        n_join=st.integers(min_value=0, max_value=3),
        n_unidiff=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_covered_generated_query_plans_are_correct(
        self, workload_name, generator_seed, n_sel, n_join, n_unidiff
    ):
        workload = WORKLOADS[workload_name]
        database = workload.database(scale=35, seed=5)
        generator = RandomQueryGenerator(workload, database=database, seed=generator_seed)
        query = generator.generate(n_sel=n_sel, n_join=n_join, n_unidiff=n_unidiff)
        coverage = check_coverage(query, workload.access_schema)
        truth = evaluate(query, database).rows
        if not coverage.is_covered:
            # Nothing to check for uncovered queries beyond not crashing.
            return
        plan = generate_plan(coverage)
        indexes = IndexSet.build(database, workload.access_schema, check=False)
        execution = execute_plan(plan, indexes)
        assert execution.rows == truth
        assert execution.counter.scanned == 0
        assert execution.counter.total <= plan.access_bound()
