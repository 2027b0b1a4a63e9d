"""End-to-end integration: random queries over every workload, all pipelines agree.

For each workload, random queries are generated and answered four ways:

1. the reference RA evaluator (ground truth),
2. the conventional baseline (evalDBMS),
3. the bounded plan executor (evalQP) when the query is covered,
4. the SQLite backend running the Plan2SQL translation.

All four must return the same rows; the bounded paths must only touch data
through indexes.
"""

import pytest

from repro.backends.sqlite import SQLiteBackend
from repro.core.coverage import check_coverage
from repro.core.engine import BoundedEngine
from repro.core.minimize import minimize_auto
from repro.core.planner import generate_plan
from repro.evaluator.algebra import evaluate
from repro.evaluator.baseline import evaluate_conventional
from repro.evaluator.executor import execute_plan
from repro.storage.index import IndexSet
from repro.workloads import WORKLOADS, RandomQueryGenerator


@pytest.fixture(scope="module", params=sorted(WORKLOADS), ids=sorted(WORKLOADS))
def setup(request):
    workload = WORKLOADS[request.param]
    database = workload.database(scale=50, seed=21)
    indexes = IndexSet.build(database, workload.access_schema, check=True)
    generator = RandomQueryGenerator(workload, database=database, seed=33)
    queries = [query for _, query in generator.generate_batch(12, unidiff_range=(0, 2))]
    return workload, database, indexes, queries


class TestPipelinesAgree:
    def test_bounded_plans_match_reference(self, setup):
        workload, database, indexes, queries = setup
        covered_seen = 0
        for query in queries:
            coverage = check_coverage(query, workload.access_schema)
            truth = evaluate(query, database).rows
            if coverage.is_covered:
                covered_seen += 1
                plan = generate_plan(coverage)
                execution = execute_plan(plan, indexes)
                assert execution.rows == truth
                assert execution.counter.scanned == 0
        assert covered_seen >= 1

    def test_baseline_matches_reference(self, setup):
        workload, database, indexes, queries = setup
        for query in queries[:6]:
            truth = evaluate(query, database).rows
            baseline = evaluate_conventional(query, database, workload.access_schema, indexes)
            assert baseline.rows == truth

    def test_engine_always_answers_correctly(self, setup):
        workload, database, indexes, queries = setup
        engine = BoundedEngine(database, workload.access_schema)
        for query in queries[:8]:
            truth = evaluate(query, database).rows
            result = engine.execute(query)
            assert result.rows == truth

    def test_sqlite_backend_agrees_on_covered_queries(self, setup):
        workload, database, indexes, queries = setup
        backend = SQLiteBackend(database)
        backend.create_index_tables(workload.access_schema)
        checked = 0
        for query in queries:
            coverage = check_coverage(query, workload.access_schema)
            if not coverage.is_covered or checked >= 3:
                continue
            checked += 1
            plan = generate_plan(coverage)
            sql_rows = backend.run_bounded_plan(plan).rows
            assert sql_rows == evaluate(query, database).rows
        backend.close()
        assert checked >= 1

    def test_minimized_plans_match_reference(self, setup):
        workload, database, indexes, queries = setup
        checked = 0
        for query in queries:
            coverage = check_coverage(query, workload.access_schema)
            if not coverage.is_covered or checked >= 3:
                continue
            checked += 1
            minimized = minimize_auto(query, workload.access_schema)
            minimized_coverage = check_coverage(query, minimized.selected)
            assert minimized_coverage.is_covered
            plan = generate_plan(minimized_coverage)
            execution = execute_plan(plan, indexes)
            assert execution.rows == evaluate(query, database).rows
        assert checked >= 1


class TestBoundedAccessScaling:
    def test_access_does_not_grow_with_data(self, setup):
        """The defining property: |D_Q| stays put as |D| grows."""
        workload, database, indexes, queries = setup
        covered = [
            q for q in queries if check_coverage(q, workload.access_schema).is_covered
        ]
        if not covered:
            pytest.skip("no covered query generated for this workload seed")
        query = covered[0]
        coverage = check_coverage(query, workload.access_schema)
        plan = generate_plan(coverage)

        small = database.scaled(0.25, seed=1)
        small_indexes = IndexSet.build(small, workload.access_schema, check=False)
        small_access = execute_plan(plan, small_indexes).counter.total
        large_access = execute_plan(plan, indexes).counter.total
        bound = plan.access_bound()
        assert small_access <= bound
        assert large_access <= bound
