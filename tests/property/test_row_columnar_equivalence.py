"""Property: row and columnar kernels agree on every covered plan.

Random queries over the TFACC workload are prepared through the full C2-C4
pipeline (coverage, minimization, planning, peephole optimization) and the
resulting plan is executed by both kernel families over the same indexes.
The frozen results must be identical to each other *and* to the reference
evaluator — the executor-mode seam may never change answers, only speed.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import prepare_query
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor
from repro.storage.index import IndexSet
from repro.workloads import WORKLOADS, RandomQueryGenerator

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
        plan = prepared.executable
        results = {
            mode: executor.execute(plan) for mode, executor in _EXECUTORS.items()
        }
        reference = frozenset(evaluate(prepared.target, _DATABASE))
        assert results["row"].rows == reference
        assert results["columnar"].rows == reference
        assert results["auto"].rows == reference
        assert results["columnar"].executor_mode == "columnar"
        assert results["auto"].executor_mode in ("row", "columnar")

    @given(query_parameters)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_access_accounting_is_mode_independent(self, parameters):
        from repro.storage.counters import AccessCounter

        query = generated_query(*parameters)
        prepared = prepare_query(query, WORKLOAD.access_schema)
        if not prepared.covered:
            return
        plan = prepared.executable
        counters = {}
        for mode in ("row", "columnar"):
            counter = AccessCounter()
            _EXECUTORS[mode].execute(plan, counter)
            counters[mode] = counter
        assert counters["row"].fetched == counters["columnar"].fetched
        assert counters["row"].per_relation == counters["columnar"].per_relation
