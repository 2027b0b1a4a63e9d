"""Head-to-head evaluation benchmark: evalQP vs evalQP⁻ vs evalDBMS.

This is the microbenchmark behind every Figure 5 plot: one covered query per
workload, answered (a) by its bounded plan under the minA-minimized schema,
(b) by its bounded plan under the full schema, and (c) by the conventional
baseline.  pytest-benchmark reports the timing distributions; the accompanying
assertions pin down the access-volume relationships the paper highlights.
"""

import pytest

from repro.core.coverage import check_coverage
from repro.core.minimize import minimize_access
from repro.core.planner import generate_plan
from repro.evaluator.baseline import evaluate_conventional
from repro.evaluator.executor import PlanExecutor


@pytest.fixture(scope="module")
def evaluation_setup(prepared):
    workload = prepared["workload"]
    database = prepared["database"]
    indexes = prepared["indexes"]
    query = prepared["queries"][0]
    full_plan = generate_plan(check_coverage(query, workload.access_schema))
    minimized = minimize_access(query, workload.access_schema).selected
    minimized_plan = generate_plan(check_coverage(query, minimized))
    executor = PlanExecutor(indexes)
    return workload, database, indexes, query, full_plan, minimized_plan, executor


def test_evalqp_minimized(benchmark, evaluation_setup):
    workload, database, indexes, query, full_plan, minimized_plan, executor = evaluation_setup
    result = benchmark(executor.execute, minimized_plan)
    assert result.counter.scanned == 0
    assert result.counter.total <= minimized_plan.access_bound()


def test_evalqp_full_schema(benchmark, evaluation_setup):
    workload, database, indexes, query, full_plan, minimized_plan, executor = evaluation_setup
    result = benchmark(executor.execute, full_plan)
    assert result.counter.scanned == 0


def test_evaldbms_baseline(benchmark, evaluation_setup):
    workload, database, indexes, query, full_plan, minimized_plan, executor = evaluation_setup
    result = benchmark(
        evaluate_conventional, query, database, workload.access_schema, indexes
    )
    assert result.counter.fetched == 0


def test_access_volumes_ordered(evaluation_setup, benchmark):
    """|D_Q| of evalQP ≤ evalQP⁻, and both answer exactly like the baseline."""
    workload, database, indexes, query, full_plan, minimized_plan, executor = evaluation_setup

    def run():
        minimized = executor.execute(minimized_plan)
        full = executor.execute(full_plan)
        baseline = evaluate_conventional(query, database, workload.access_schema, indexes)
        return minimized, full, baseline

    minimized, full, baseline = benchmark.pedantic(run, rounds=1, iterations=1)
    assert minimized.rows == full.rows == baseline.rows
    assert minimized.counter.total <= full.counter.total * 1.05
