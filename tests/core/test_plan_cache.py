"""Plan-store correctness: hits, granular invalidation, and cache/optimizer equivalence."""

import pytest
from analytic_queries import ANALYTIC_SCALE, analytic_queries

from repro.core.engine import BoundedEngine, PreparedQuery
from repro.core.planstore import PlanStore
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor
from repro.workloads import WORKLOADS, facebook
from repro.bench.experiments import select_covered_queries


@pytest.fixture
def cached_engine(fb_database, fb_access):
    return BoundedEngine(fb_database, fb_access)


@pytest.fixture
def uncached_engine(fb_database, fb_access):
    return BoundedEngine(fb_database, fb_access, plan_cache_size=0)


class TestPlanStoreUnit:
    def test_lru_eviction(self):
        store = PlanStore(capacity=2)
        a, b, c = (PreparedQuery(coverage=None) for _ in range(3))  # type: ignore[arg-type]
        assert store.put("a", a) == []
        store.put("b", b)
        assert store.get("a") is a  # refresh a; b is now least recent
        assert store.put("c", c) == [b]  # evictions are handed back to the caller
        assert store.get("b") is None
        assert store.get("a") is a
        assert store.get("c") is c
        assert store.stats()["evictions"] == 1

    def test_zero_capacity_disables(self):
        store = PlanStore(capacity=0)
        store.put("a", PreparedQuery(coverage=None))  # type: ignore[arg-type]
        assert len(store) == 0
        assert store.get("a") is None

    def test_stats_accumulate(self):
        store = PlanStore(capacity=4)
        entry = PreparedQuery(coverage=None)  # type: ignore[arg-type]
        assert store.get("k") is None
        store.put("k", entry)
        assert store.get("k") is entry
        store.invalidate()
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["sweeps"] == 1
        assert stats["invalidated"] == 1
        assert stats["entries"] == 0

    def test_targeted_invalidation_drops_only_dependents(self):
        store = PlanStore(capacity=8)
        on_r = PreparedQuery(coverage=None)  # type: ignore[arg-type]
        on_s = PreparedQuery(coverage=None)  # type: ignore[arg-type]
        no_deps = PreparedQuery(coverage=None)  # type: ignore[arg-type]
        store.put("r", on_r, dependencies=("r",))
        store.put("s", on_s, dependencies=("s", "t"))
        store.put("n", no_deps)
        dropped = store.invalidate(("r",))
        assert dropped == [on_r]
        assert store.get("s") is on_s
        assert store.get("n") is no_deps
        assert store.get("r") is None
        assert store.stats()["invalidated"] == 1
        assert store.stats()["invalidated_by"] == {"r": 1}  # the sweep names its trigger

    def test_clear_all_returns_every_entry(self):
        store = PlanStore(capacity=8)
        entries = [PreparedQuery(coverage=None) for _ in range(3)]  # type: ignore[arg-type]
        for index, entry in enumerate(entries):
            store.put(index, entry, dependencies=(f"rel{index}",))
        dropped = store.invalidate()
        assert sorted(map(id, dropped)) == sorted(map(id, entries))
        assert len(store) == 0


class TestCachedExecution:
    def test_rows_identical_with_and_without_cache(
        self, cached_engine, uncached_engine, fb_q1, fb_database
    ):
        expected = evaluate(fb_q1, fb_database).rows
        assert cached_engine.execute(fb_q1).rows == expected
        assert cached_engine.execute(fb_q1).rows == expected  # served from cache
        assert uncached_engine.execute(fb_q1).rows == expected

    def test_repeat_hits_cache(self, cached_engine, fb_q1):
        first = cached_engine.execute(fb_q1)
        second = cached_engine.execute(fb_q1)
        assert not first.cached
        assert second.cached
        assert second.plan is first.plan  # the very same prepared plan object
        stats = cached_engine.cache_stats()["plan_store"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_distinct_parameters_get_distinct_entries(self, cached_engine, fb_database):
        q_p0 = facebook.query_q1(person="p0")
        q_p1 = facebook.query_q1(person="p1")
        r_p0 = cached_engine.execute(q_p0)
        r_p1 = cached_engine.execute(q_p1)
        assert not r_p1.cached  # no false sharing between distinct constants
        assert r_p0.rows == evaluate(q_p0, fb_database).rows
        assert r_p1.rows == evaluate(q_p1, fb_database).rows
        assert cached_engine.cache_stats()["plan_store"]["entries"] == 2

    def test_minimize_flag_keys_separately(self, cached_engine, fb_q1):
        cached_engine.execute(fb_q1, minimize=True)
        result = cached_engine.execute(fb_q1, minimize=False)
        assert not result.cached
        assert result.minimization is None

    def test_uncovered_verdict_cached_but_fallback_stays_fresh(
        self, cached_engine, fb_q2, fb_database
    ):
        first = cached_engine.execute(fb_q2)
        assert first.strategy == "conventional"
        second = cached_engine.execute(fb_q2)
        assert second.cached
        assert not second.result_cached  # fallback results are never cached
        assert second.strategy == "conventional"
        assert second.rows == evaluate(fb_q2, fb_database).rows

    def test_rewritten_query_served_from_cache(self, cached_engine, fb_q0):
        first = cached_engine.execute(fb_q0)
        second = cached_engine.execute(fb_q0)
        assert first.strategy == second.strategy == "bounded"
        assert first.rewrite == second.rewrite == "guard-difference"
        assert second.cached
        assert second.rows == first.rows


class TestInvalidation:
    @pytest.mark.usefixtures("columnar_kernels")
    def test_insert_invalidates_and_results_stay_correct(self, fb_database, fb_access):
        # A dirty entry of a columnar plan cannot be re-run over its captured
        # environment: the write drops the result entry and keeps the plan.
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        before = engine.execute(q1)
        assert engine.execute(q1).result_cached
        engine.apply_insert("cafe", ("c_new", "nyc"))  # a cafe no fetch reached: clean
        engine.apply_insert("friend", ("p0", "p_new"))  # p0's friends were fetched: dirty
        engine.apply_insert("dine", ("p_new", "c_new", "may", 2015))  # nothing left to settle
        stats = engine.cache_stats()
        assert stats["plan_store"]["sweeps"] == 0
        result_cache = stats["result_cache"]
        assert result_cache["repaired"] == 0  # the clean write never looked at the entry
        assert result_cache["invalidated"] == 1  # ...and only the dirty one dropped it
        assert result_cache["repair_fallback_reasons"] == {"executor_mode": 1}
        after = engine.execute(q1)
        assert after.cached and not after.result_cached  # plan kept, rows recomputed
        assert after.executor_mode == "columnar"
        assert ("c_new",) in after.rows
        assert after.rows == evaluate(q1, fb_database).rows
        assert before.rows <= after.rows

    @pytest.mark.usefixtures("columnar_kernels")
    def test_delete_invalidates_and_results_stay_correct(self, fb_database, fb_access):
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.apply_insert("cafe", ("c_gone", "nyc"))
        engine.apply_insert("friend", ("p0", "p88"))
        engine.apply_insert("dine", ("p88", "c_gone", "may", 2015))
        assert ("c_gone",) in engine.execute(q1).rows
        engine.apply_delete("dine", ("p88", "c_gone", "may", 2015))
        assert engine.cache_stats()["result_cache"]["repair_fallback_reasons"] == {
            "executor_mode": 1
        }
        result = engine.execute(q1)
        assert result.cached and not result.result_cached
        assert ("c_gone",) not in result.rows
        assert result.rows == evaluate(q1, fb_database).rows

    @pytest.mark.usefixtures("row_kernels")  # a dirty entry of a columnar plan is dropped
    def test_insert_repairs_cached_result(self, fb_database, fb_access):
        # Dependent writes patch the cached result in place and leave the
        # plan store alone.
        cached_engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        before = cached_engine.execute(q1)
        assert cached_engine.execute(q1).cached
        cached_engine.apply_insert("cafe", ("c_new", "nyc"))
        cached_engine.apply_insert("friend", ("p0", "p_new"))
        cached_engine.apply_insert("dine", ("p_new", "c_new", "may", 2015))
        after = cached_engine.execute(q1)
        assert after.cached  # plan store untouched on the repair path
        stats = cached_engine.cache_stats()
        assert stats["plan_store"]["sweeps"] == 0
        result_cache = stats["result_cache"]
        assert result_cache["repaired"] == 2  # one per write that reached the entry
        assert after.result_cached  # the repaired entry itself was served
        assert ("c_new",) in after.rows
        assert after.rows == evaluate(q1, fb_database).rows
        assert before.rows <= after.rows

    @pytest.mark.usefixtures("row_kernels")
    def test_delete_repairs_cached_result(self, fb_database, fb_access):
        cached_engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        cached_engine.apply_insert("cafe", ("c_gone", "nyc"))
        cached_engine.apply_insert("friend", ("p0", "p88"))
        cached_engine.apply_insert("dine", ("p88", "c_gone", "may", 2015))
        assert ("c_gone",) in cached_engine.execute(q1).rows
        cached_engine.apply_delete("dine", ("p88", "c_gone", "may", 2015))
        result = cached_engine.execute(q1)
        assert result.result_cached  # the delete was patched out of the entry
        assert ("c_gone",) not in result.rows
        assert result.rows == evaluate(q1, fb_database).rows

    def test_noop_update_keeps_cache(self, cached_engine, fb_database):
        q1 = facebook.query_q1()
        cached_engine.execute(q1)
        existing = next(iter(fb_database.relation("cafe").rows))
        cached_engine.apply_insert("cafe", existing)  # duplicate: no data change
        repeat = cached_engine.execute(q1)
        assert repeat.cached
        assert repeat.result_cached  # even the result stayed valid

    def test_unrelated_write_keeps_plan_and_result_entries(
        self, hot_cold_setup
    ):
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        engine.execute(hot_query)
        prepared, _ = engine.prepare(hot_query)
        assert prepared.dependencies == ("hot",)
        engine.apply_insert("cold", ("y", 1))  # a relation the plan never fetches
        repeat = engine.execute(hot_query)
        assert repeat.cached  # plan survived the unrelated write
        assert repeat.result_cached  # and so did the materialized result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cache_and_optimizer_row_identical_on_workloads(name):
    """Bounded results match with caches on and off, canonical and optimized
    plans alike, and the reference evaluator."""
    workload = WORKLOADS[name]
    database = workload.database(scale=ANALYTIC_SCALE, seed=7)
    # wide plans whose answers have rows, then point plans (whose answers are empty)
    queries = analytic_queries(workload)
    assert all(evaluate(query, database).rows for query in queries)
    queries += select_covered_queries(workload, count=2, seed=7, database=database)
    full = BoundedEngine(database, workload.access_schema)
    bare = BoundedEngine(
        database,
        workload.access_schema,
        plan_cache_size=0,
        result_cache_size=0,
    )
    executor = PlanExecutor(full.indexes, mode="auto")
    for query in queries:
        expected = evaluate(query, database).rows
        for engine in (full, bare):
            result = engine.execute(query)
            assert result.strategy == "bounded"
            assert result.rows == expected
        # the canonical plan QPlan generated and the optimized one that ran
        prepared, _ = full.prepare(query)
        for plan in (prepared.plan, prepared.executable):
            assert executor.execute(plan).rows == expected
        # warm pass: served from cache, still identical
        assert full.execute(query).rows == expected
