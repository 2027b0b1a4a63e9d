"""Property: row and columnar kernels agree on every covered plan.

Random queries over the TFACC workload are prepared through the full C2-C4
pipeline (coverage, minimization, planning, peephole optimization) and both
the canonical plan and the optimized one are executed by both kernel families
over the same indexes.  The frozen results must be identical to each other
*and* to the reference evaluator — neither the optimizer nor the
executor-mode seam may ever change answers, only speed.

The second half holds the optimizer's column pruning to what it promises on
queries whose answers have rows: the same fetches, the same tuples fetched and
the same ``access_bound()`` as the canonical plan, through a 3-shard mixed
federation too, and the same rows from ``Plan2SQL`` over the narrowed steps.
"""

import sys
from pathlib import Path

import pytest
from analytic_queries import ANALYTIC_SCALE, analytic_queries
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backends.sqlite import SQLiteBackend
from repro.core.engine import prepare_query
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor
from repro.sharding import SQLiteShard, build_topology
from repro.storage.counters import AccessCounter
from repro.storage.index import IndexSet
from repro.workloads import WORKLOADS, RandomQueryGenerator, facebook

# the layered benchmark's packages live beside ``benchmarks/conftest.py``
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from layered.queries import POINT, ShapeCatalog, WitnessQueryGenerator  # noqa: E402
from layered.workloads import DATA_SEED, HOT_POINT, HOT_WIDE  # noqa: E402

WORKLOAD = WORKLOADS["TFACC"]
_DATABASE = WORKLOAD.database(scale=30, seed=13)
_INDEXES = IndexSet.build(_DATABASE, WORKLOAD.access_schema, check=False)
_EXECUTORS = {
    mode: PlanExecutor(_INDEXES, mode=mode)
    for mode in ("row", "columnar", "auto")
}
_GENERATOR_CACHE: dict[int, RandomQueryGenerator] = {}


def generated_query(seed: int, n_sel: int, n_join: int, n_unidiff: int):
    generator = _GENERATOR_CACHE.get(seed)
    if generator is None:
        generator = RandomQueryGenerator(WORKLOAD, database=_DATABASE, seed=seed)
        _GENERATOR_CACHE[seed] = generator
    return generator.generate(n_sel=n_sel, n_join=n_join, n_unidiff=n_unidiff)


query_parameters = st.tuples(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)


class TestRowColumnarEquivalence:
    @given(query_parameters)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_modes_agree_with_each_other_and_the_reference(self, parameters):
        query = generated_query(*parameters)
        prepared = prepare_query(query, WORKLOAD.access_schema)
        if not prepared.covered:
            return
        reference = frozenset(evaluate(prepared.target, _DATABASE))
        for plan in (prepared.plan, prepared.executable):
            results = {
                mode: executor.execute(plan) for mode, executor in _EXECUTORS.items()
            }
            assert results["row"].rows == reference
            assert results["columnar"].rows == reference
            assert results["auto"].rows == reference
            assert results["columnar"].executor_mode == "columnar"
            assert results["auto"].executor_mode in ("row", "columnar")

    @given(query_parameters)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_access_accounting_is_mode_independent(self, parameters):
        query = generated_query(*parameters)
        prepared = prepare_query(query, WORKLOAD.access_schema)
        if not prepared.covered:
            return
        counters = []
        for plan in (prepared.plan, prepared.executable):
            for mode in ("row", "columnar"):
                counter = AccessCounter()
                _EXECUTORS[mode].execute(plan, counter)
                counters.append(counter)
        assert len({counter.fetched for counter in counters}) == 1
        assert all(counter.per_relation == counters[0].per_relation for counter in counters)


# -- column pruning changes what a plan carries, never what it fetches ------------

#: smaller than the benchmark's 200: the same shapes, keys and classes, a
#: third of the rows to partition into shards and mirror into SQLite
_HARNESS_SCALE = 60


def _harness_queries(database):
    """The layered benchmark's hot set: 51 point and 13 wide TFACC queries."""
    generator = WitnessQueryGenerator(ShapeCatalog(WORKLOAD), database, seed=7)
    drawn = generator.tagged(HOT_POINT, HOT_WIDE)
    assert sum(bench.tag == POINT for bench in drawn) == HOT_POINT
    return [bench.query for bench in drawn]


#: Example 1's q1 and Q0' with constants that have an answer at scale 200, seed 0
_GRAPH_SEARCH = ("p0", "may", 2013, "austin")


def _pruning_cases():
    """``(id, workload or None for facebook, scale, database -> queries)``."""
    yield "TFACC-harness", WORKLOAD, _HARNESS_SCALE, _harness_queries
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        yield f"{name}-analytic", spec, ANALYTIC_SCALE, lambda _, spec=spec: analytic_queries(spec)
    graph_search = [facebook.query_q1(*_GRAPH_SEARCH), facebook.query_q0_prime(*_GRAPH_SEARCH)]
    yield "facebook", None, 200, lambda _: graph_search


def _fetches(plan):
    return [(step.op.constraint, step.op.key_columns) for step in plan.fetch_steps()]


class TestPruningKeepsAccess:
    @pytest.mark.parametrize(
        "spec, scale, queries",
        [pytest.param(*case, id=name) for name, *case in _pruning_cases()],
    )
    def test_canonical_and_pruned_plans_fetch_the_same(self, spec, scale, queries):
        if spec is None:
            database, access = facebook.generate(scale=scale, seed=0), facebook.access_schema()
        else:
            database, access = spec.database(scale, DATA_SEED), spec.access_schema
        indexes = PlanExecutor(IndexSet.build(database, access, check=False), mode="row")
        router = build_topology(
            database, access, shards=3, backends=["memory", "sqlite", "memory"]
        )
        federated = PlanExecutor(router, mode="row")
        pruned = 0
        try:
            with SQLiteBackend(database) as backend:
                backend.create_index_tables(access)
                for query in queries(database):
                    prepared = prepare_query(query, access)
                    canonical, executable = prepared.plan, prepared.executable
                    pruned += any(s.comment.startswith("pruned for ") for s in executable.steps)
                    assert _fetches(executable) == _fetches(canonical), query
                    assert executable.dependency_relations() == canonical.dependency_relations()
                    assert executable.access_bound() == canonical.access_bound(), query
                    answer = frozenset(evaluate(prepared.target, database))
                    assert answer, f"an empty answer compares nothing: {query}"
                    for executor in (indexes, federated):
                        counters = AccessCounter(), AccessCounter()
                        for plan, counter in zip((canonical, executable), counters):
                            assert executor.execute(plan, counter).rows == answer, query
                        assert counters[0].per_relation == counters[1].per_relation, query
                        assert 0 < counters[1].total <= executable.access_bound()
                    assert backend.run_bounded_plan(executable).rows == answer, query
                    assert backend.run_bounded_plan(canonical).rows == answer, query
        finally:
            for shard in router.shards:
                if isinstance(shard, SQLiteShard):
                    shard.close()
        if queries is _harness_queries:  # the wide joins are what pruning is for
            assert pruned >= HOT_WIDE // 2
