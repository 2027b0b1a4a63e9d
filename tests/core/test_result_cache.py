"""Result-cache correctness and the shared plan store across engines.

What holds for every serving substrate alike (repeat reads, settlement
transitions, fallback) is pinned in ``test_serving_core.py``; this file keeps
the cache's own unit tests and the engine-only single-row write API.
"""

import pytest

from repro.core.engine import BoundedEngine
from repro.core.errors import MaintenanceError
from repro.core.planstore import PlanStore, ResultCache
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.workloads import facebook


class TestResultCacheUnit:
    def test_hit_requires_matching_snapshot(self):
        cache = ResultCache(capacity=4)
        rows = frozenset({(1,)})
        cache.put("k", rows, ("v",), dependencies=("hot",), snapshot=(3,))
        hit = cache.get("k", (3,))
        assert hit is not None and hit.rows == rows
        assert cache.get("k", (4,)) is None  # data moved on: stale, dropped
        assert cache.get("k", (3,)) is None  # entry gone after the stale probe
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["stale"] == 1
        assert stats["misses"] == 2

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("k", frozenset(), (), dependencies=(), snapshot=())
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        for index in range(3):
            cache.put(index, frozenset(), (), dependencies=(), snapshot=())
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get(0, ()) is None  # the oldest entry was evicted

    def test_oversized_results_not_admitted(self):
        cache = ResultCache(capacity=4, max_rows=2)
        small = frozenset({(1,), (2,)})
        big = frozenset({(i,) for i in range(3)})
        cache.put("small", small, ("v",), dependencies=(), snapshot=())
        cache.put("big", big, ("v",), dependencies=(), snapshot=())
        assert cache.get("small", ()) is not None
        assert cache.get("big", ()) is None
        assert cache.stats()["oversized"] == 1

    def test_targeted_invalidation(self):
        cache = ResultCache(capacity=8)
        cache.put("on_r", frozenset(), (), dependencies=("r",), snapshot=(1,))
        cache.put("on_s", frozenset(), (), dependencies=("s",), snapshot=(1,))
        dropped = cache.invalidate(("r",))
        assert dropped == 1
        assert cache.get("on_s", (1,)) is not None
        assert cache.stats()["invalidated"] == 1


class TestEngineResultCache:
    def test_dependent_insert_repairs_entry(self, hot_cold_setup):
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        engine.execute(hot_query)
        engine.apply_insert("hot", ("a", 4))
        result = engine.execute(hot_query)
        assert result.result_cached  # the entry was patched, not dropped
        assert (4,) in result.rows
        assert result.rows == evaluate(hot_query, database).rows

    @pytest.mark.usefixtures("columnar_kernels")
    def test_dependent_insert_recomputes_correct_rows(self, hot_cold_setup):
        """A dirty entry of a columnar plan is dropped; the next read recomputes."""
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        engine.execute(hot_query)
        engine.apply_insert("hot", ("a", 4))
        stats = engine.cache_stats()["result_cache"]
        assert (stats["repaired"], stats["invalidated"]) == (0, 1)
        result = engine.execute(hot_query)
        assert not result.result_cached
        assert result.executor_mode == "columnar"
        assert (4,) in result.rows
        assert result.rows == evaluate(hot_query, database).rows

    def test_dependent_delete_repairs_entry(self, hot_cold_setup):
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        assert (2,) in engine.execute(hot_query).rows
        engine.apply_delete("hot", ("a", 2))
        result = engine.execute(hot_query)
        assert result.result_cached  # the delete was patched out in place
        assert (2,) not in result.rows
        assert result.rows == evaluate(hot_query, database).rows

    def test_unrelated_write_preserves_cached_result(self, hot_cold_setup):
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        first = engine.execute(hot_query)
        engine.apply_insert("cold", ("y", 7))
        engine.apply_delete("cold", ("x", 9))
        repeat = engine.execute(hot_query)
        assert repeat.result_cached
        assert repeat.rows == first.rows == evaluate(hot_query, database).rows

    def test_result_cache_disabled_still_correct(self, hot_cold_setup):
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access, result_cache_size=0)
        first = engine.execute(hot_query)
        second = engine.execute(hot_query)
        assert not second.result_cached
        assert second.cached  # the plan store still works
        assert second.rows == first.rows

    def test_out_of_band_database_write_detected(self, hot_cold_setup):
        """Writes through Database.insert (not the engine) still bump the clock.

        The constraint indexes are NOT maintained by out-of-band writes, so
        bounded results may not see the new tuple — but the result cache must
        not keep serving the pre-write materialization as if nothing happened.
        """
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        engine.execute(hot_query)
        database.insert("hot", ("a", 8))  # bypasses the engine's maintenance
        result = engine.execute(hot_query)
        assert not result.result_cached  # snapshot mismatch forces re-execution

    def test_rewritten_covered_query_result_cached(self, fb_database, fb_access, fb_q0):
        engine = BoundedEngine(fb_database, fb_access)
        first = engine.execute(fb_q0)
        assert first.strategy == "bounded" and first.rewrite == "guard-difference"
        second = engine.execute(fb_q0)
        assert second.result_cached
        assert second.rows == first.rows


class TestSharedPlanStore:
    def test_two_engines_share_prepared_plans(self, fb_access):
        store = PlanStore(capacity=32)
        db_a = facebook.generate(scale=30, seed=1)
        db_b = facebook.generate(scale=30, seed=2)
        engine_a = BoundedEngine(db_a, fb_access, plan_store=store)
        engine_b = BoundedEngine(db_b, fb_access, plan_store=store)
        q1 = facebook.query_q1()

        result_a = engine_a.execute(q1)
        assert not result_a.cached  # first preparation fleet-wide
        result_b = engine_b.execute(q1)
        assert result_b.cached  # engine B reuses engine A's prepared plan
        assert store.stats()["entries"] == 1

        prepared_a, _ = engine_a.prepare(q1)
        prepared_b, _ = engine_b.prepare(q1)
        assert prepared_a is prepared_b  # literally the same entry

    def test_divergent_data_yields_per_engine_results(self, fb_access):
        store = PlanStore(capacity=32)
        db_a = facebook.generate(scale=30, seed=1)
        db_b = facebook.generate(scale=30, seed=2)
        engine_a = BoundedEngine(db_a, fb_access, plan_store=store)
        engine_b = BoundedEngine(db_b, fb_access, plan_store=store)
        q1 = facebook.query_q1()

        rows_a = engine_a.execute(q1).rows
        rows_b = engine_b.execute(q1).rows
        assert rows_a == evaluate(q1, db_a).rows
        assert rows_b == evaluate(q1, db_b).rows

        # diverge engine A's data; engine B's cached result must be unaffected
        engine_a.apply_insert("cafe", ("c_div", "nyc"))
        engine_a.apply_insert("friend", ("p0", "p_div"))
        engine_a.apply_insert("dine", ("p_div", "c_div", "may", 2015))
        after_a = engine_a.execute(q1)
        after_b = engine_b.execute(q1)
        assert ("c_div",) in after_a.rows
        assert after_a.rows == evaluate(q1, db_a).rows
        assert after_b.rows == evaluate(q1, db_b).rows
        assert ("c_div",) not in after_b.rows

    def test_minimize_flag_keys_separately_in_shared_store(self, fb_access):
        """Reads with different ``minimize`` must not serve each other, across engines."""
        store = PlanStore(capacity=32)
        database = facebook.generate(scale=30, seed=1)
        first = BoundedEngine(database, fb_access, plan_store=store)
        second = BoundedEngine(database, fb_access, plan_store=store)
        q1 = facebook.query_q1()
        first.execute(q1, minimize=True)
        result = second.execute(q1, minimize=False)
        assert not result.cached  # distinct entry, not the minimized one
        assert result.minimization is None
        assert store.stats()["entries"] == 2
        assert second.execute(q1, minimize=True).cached
        assert first.execute(q1, minimize=False).cached
        assert result.rows == evaluate(q1, database).rows

    def test_failed_batch_on_one_engine_sweeps_shared_entry_for_both(self, fb_access):
        """A shared store is swept by whichever engine takes a batch that failed
        part-way; plans are data-independent, so a clean write never sweeps it
        (covered below)."""
        store = PlanStore(capacity=32)
        db_a = facebook.generate(scale=30, seed=1)
        db_b = facebook.generate(scale=30, seed=2)
        engine_a = BoundedEngine(db_a, fb_access, plan_store=store)
        engine_b = BoundedEngine(db_b, fb_access, plan_store=store)
        q1 = facebook.query_q1()
        engine_a.execute(q1)
        assert engine_b.execute(q1).cached
        batch = [Update.insert("friend", ("p0", "p_x")), Update.insert("friend", ("p0",))]
        with pytest.raises(MaintenanceError):
            engine_a.apply_updates(batch)  # the malformed second row aborts it
        # the shared entry was dropped; either engine re-prepares on demand
        result_b = engine_b.execute(q1)
        assert not result_b.cached
        assert result_b.rows == evaluate(q1, db_b).rows
        assert engine_a.execute(q1).rows == evaluate(q1, db_a).rows

    def test_write_keeps_shared_plan_entry(self, fb_access):
        """A write leaves the shared store alone — each engine's *result*
        cache is settled individually."""
        store = PlanStore(capacity=32)
        db_a = facebook.generate(scale=30, seed=1)
        db_b = facebook.generate(scale=30, seed=2)
        engine_a = BoundedEngine(db_a, fb_access, plan_store=store)
        engine_b = BoundedEngine(db_b, fb_access, plan_store=store)
        q1 = facebook.query_q1()
        engine_a.execute(q1)
        assert engine_b.execute(q1).cached
        engine_a.apply_insert("friend", ("p0", "p_x"))
        result_a = engine_a.execute(q1)
        result_b = engine_b.execute(q1)
        assert result_a.cached and result_b.cached  # plan entry survived
        assert result_b.result_cached  # engine B's result was never touched
        assert result_a.rows == evaluate(q1, db_a).rows
        assert result_b.rows == evaluate(q1, db_b).rows
