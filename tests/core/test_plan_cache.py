"""Plan-store correctness: hits, LRU displacement, and cache/optimizer equivalence."""

import gc
import weakref
from collections import Counter

import pytest
from analytic_queries import ANALYTIC_SCALE, analytic_queries
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BoundedEngine, PreparedQuery, prepare_query
from repro.core.errors import ConstraintViolation, MaintenanceError
from repro.core.query import Relation, eq
from repro.discovery.maintenance import Update
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
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_a_displaced_plan_releases_its_compiled_kernels(
        self, fb_database, fb_access, fb_q0_prime
    ):
        engine = BoundedEngine(fb_database, fb_access, plan_cache_size=1, result_cache_size=0)
        q1 = facebook.query_q1()
        assert engine.execute(q1).rows == evaluate(q1, fb_database).rows
        (entry,) = engine.plan_cache._entries.values()
        assert entry.executable.compiled.executor is engine._executor
        plan, kernels = weakref.ref(entry.executable), weakref.ref(entry.executable.compiled)
        del entry
        engine.execute(fb_q0_prime)  # the one slot goes to q0': q1's plan is displaced
        gc.collect()
        assert plan() is None and kernels() is None  # held by no cache: collected
        assert engine.cache_stats()["plan_store"]["evictions"] == 1
        again = engine.execute(q1)  # prepared anew, and still right
        assert not again.cached
        assert again.rows == evaluate(q1, fb_database).rows

    def test_a_displaced_plan_lives_while_its_result_is_cached(
        self, fb_database, fb_access, fb_q0_prime
    ):
        """The result cache holds the plan an entry was filled by, for repair:
        its kernels go when that entry goes, not when the store drops the plan."""
        engine = BoundedEngine(fb_database, fb_access, plan_cache_size=1, result_cache_size=1)
        q1 = facebook.query_q1()
        engine.execute(q1)
        plan = weakref.ref(engine.prepare(q1).executable)
        engine.execute(fb_q0_prime)  # q1's plan leaves the store, its result the cache
        gc.collect()
        assert plan() is None
        engine = BoundedEngine(fb_database, fb_access, plan_cache_size=1, result_cache_size=2)
        engine.execute(q1)
        plan = weakref.ref(engine.prepare(q1).executable)
        engine.execute(fb_q0_prime)  # displaced from the store; its result stays
        gc.collect()
        assert plan() is not None and plan().compiled is not None
        (held,) = [e.plan for e in engine.result_cache._entries.values() if e.plan is plan()]
        assert held.compiled.executor is engine._executor

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

    def test_reads_are_minimized_and_prepare_query_can_skip_it(
        self, cached_engine, fb_q1, fb_access, fb_database
    ):
        result = cached_engine.execute(fb_q1)
        assert result.minimization is not None
        full = prepare_query(fb_q1, fb_access, minimize=False)
        assert full.minimization is None
        assert full.result_key == cached_engine.prepare(fb_q1).result_key  # one key per query
        executor = PlanExecutor(cached_engine.indexes)
        assert executor.execute(full.executable).rows == result.rows
        assert result.rows == evaluate(fb_q1, fb_database).rows

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
    def test_insert_repairs_cached_result(self, fb_database, fb_access):
        # Dependent writes patch the cached result in place and leave the
        # plan store alone.
        cached_engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        before = cached_engine.execute(q1)
        assert cached_engine.execute(q1).cached
        misses = cached_engine.cache_stats()["plan_store"]["misses"]
        cached_engine.apply_insert("cafe", ("c_new", "nyc"))
        cached_engine.apply_insert("friend", ("p0", "p_new"))
        cached_engine.apply_insert("dine", ("p_new", "c_new", "may", 2015))
        after = cached_engine.execute(q1)
        assert after.cached  # plan store untouched on the repair path
        stats = cached_engine.cache_stats()
        assert stats["plan_store"]["misses"] == misses
        result_cache = stats["result_cache"]
        assert result_cache["repaired"] == 2  # one per write that reached the entry
        assert after.result_cached  # the repaired entry itself was served
        assert ("c_new",) in after.rows
        assert after.rows == evaluate(q1, fb_database).rows
        assert before.rows <= after.rows

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
        prepared = engine.prepare(hot_query)
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
    executor = PlanExecutor(full.indexes)
    for query in queries:
        expected = evaluate(query, database).rows
        for engine in (full, bare):
            result = engine.execute(query)
            assert result.strategy == "bounded"
            assert result.rows == expected
        # the canonical plan QPlan generated and the optimized one that ran
        prepared = full.prepare(query)
        for plan in (prepared.plan, prepared.executable):
            assert executor.execute(plan).rows == expected
        # warm pass: served from cache, still identical
        assert full.execute(query).rows == expected


#: one write batch of each outcome: applied, failed part-way, undone and rejected
BATCHES = {
    "applied": lambda i: [Update.insert("friend", ("p0", f"p_new{i}"))],
    "failed": lambda i: [
        Update.insert("friend", ("p1", f"p_x{i}")),
        Update.insert("friend", ("p0",)),  # malformed: the batch fails here
    ],
    "rejected": lambda i: [
        Update.insert("cafe", ("c0", f"atlantis{i}")),
        Update.insert("cafe", ("c0", f"mu{i}")),
    ],
}


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(sorted(BATCHES)), min_size=1, max_size=6))
def test_no_write_outcome_prepares_a_query_again(outcomes):
    """A plan is a function of (Q, A): after any run of batches — applied,
    failed or rejected — each query was prepared once and reads the data."""
    database = facebook.generate(scale=30, seed=3)
    engine = BoundedEngine(database, facebook.access_schema(database.schema))
    cafe = Relation.from_schema(database.schema, "cafe")
    queries = [
        facebook.query_q1(),
        cafe.select(eq(cafe["cid"], "c0")).project([cafe["city"]]),
    ]
    for index, outcome in enumerate(outcomes):
        for query in queries:
            assert engine.execute(query).rows == evaluate(query, database).rows
        try:
            engine.apply_updates(BATCHES[outcome](index))
        except (ConstraintViolation, MaintenanceError):
            assert outcome != "applied"
        else:
            assert outcome == "applied"
    for query in queries:
        result = engine.execute(query)
        assert result.cached
        assert result.rows == evaluate(query, database).rows
    assert engine.cache_stats()["plan_store"]["misses"] == len(queries)


def test_a_plan_is_lowered_once_however_many_a_core_serves(fb_database, fb_access, monkeypatch):
    """More plans than any fixed kernel memo would hold, each read, then a write
    every one of them probed: each plan object is lowered once, its read and its
    settlement running the same kernels."""
    lowered = Counter()
    lower = PlanExecutor._compile

    def counted(self, plan):
        lowered[id(plan)] += 1
        return lower(self, plan)

    monkeypatch.setattr(PlanExecutor, "_compile", counted)
    engine = BoundedEngine(fb_database, fb_access)
    queries = [facebook.query_q1(year=2000 + i) for i in range(72)]  # all probe p0's friends
    first = [engine.execute(query).rows for query in queries]
    plans = [entry.executable for entry in engine.plan_cache._entries.values()]
    assert len(plans) == len(queries)
    engine.apply_updates([Update.insert("friend", ("p0", "p_new"))])  # p_new dines nowhere
    assert engine.cache_stats()["result_cache"]["repaired"] == len(queries)
    assert sorted(lowered) == sorted(map(id, plans)) and set(lowered.values()) == {1}
    for query, rows in zip(queries, first):
        result = engine.execute(query)
        assert result.result_cached and result.rows == rows == evaluate(query, fb_database).rows
    assert set(lowered.values()) == {1}
