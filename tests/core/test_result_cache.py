"""Result-cache correctness, and engines over separate data kept apart.

What holds for every serving substrate alike (repeat reads, settlement
transitions, fallback) is pinned in ``test_serving_core.py``; this file keeps
the cache's own unit tests and the engine-only single-row write API.
"""

import pytest

from repro.core.engine import BoundedEngine
from repro.core.errors import MaintenanceError
from repro.core import planstore
from repro.core.planstore import ResultCache
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

    def test_oversized_results_not_admitted(self, monkeypatch):
        monkeypatch.setattr(planstore, "MAX_ROWS", 2)
        cache = ResultCache(capacity=4)
        small = frozenset({(1,), (2,)})
        big = frozenset({(i,) for i in range(3)})
        cache.put("small", small, ("v",), dependencies=(), snapshot=())
        cache.put("big", big, ("v",), dependencies=(), snapshot=())
        assert cache.get("small", ()) is not None
        assert cache.get("big", ()) is None
        assert cache.stats()["oversized"] == 1

    def test_sweep_drops_only_dependents(self):
        cache = ResultCache(capacity=8)
        cache.put("on_r", frozenset(), (), dependencies=("r",), snapshot=(1,))
        cache.put("on_s", frozenset(), (), dependencies=("s",), snapshot=(1,))
        assert cache.sweep(("r",), "no_delta") == ["on_r"]
        assert cache.get("on_s", (1,)) is not None
        stats = cache.stats()
        assert (stats["invalidated"], stats["invalidated_by"]) == (1, {"r": 1})
        assert stats["repair_fallback_reasons"] == {"no_delta": 1}


    def test_clear_all_drops_every_entry_as_one_sweep(self):
        cache = ResultCache(capacity=8)
        for index in range(3):
            cache.put(index, frozenset(), (), dependencies=(f"rel{index}",), snapshot=(1,))
        assert cache.invalidate() == 3
        assert len(cache) == 0
        assert all(cache.get(index, (1,)) is None for index in range(3))
        stats = cache.stats()
        assert (stats["sweeps"], stats["invalidated"]) == (1, 3)
        assert stats["invalidated_by"] == {"*": 3}
        assert stats["repair_fallback_reasons"] == {}  # no write's verdict

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


class TestEnginesApart:
    """Each engine prepares its own plans and settles its own caches."""

    def test_divergent_data_yields_per_engine_results(self, fb_access):
        db_a = facebook.generate(scale=30, seed=1)
        db_b = facebook.generate(scale=30, seed=2)
        engine_a = BoundedEngine(db_a, fb_access)
        engine_b = BoundedEngine(db_b, fb_access)
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
        assert after_b.result_cached

    def test_failed_batch_on_one_engine_keeps_its_plan_entry(self, fb_access):
        """A batch that failed part-way sweeps that engine's result cache
        only; its plan entry stays (plans are data-independent), and the other
        engine is not touched at all."""
        db_a = facebook.generate(scale=30, seed=1)
        db_b = facebook.generate(scale=30, seed=2)
        engine_a = BoundedEngine(db_a, fb_access)
        engine_b = BoundedEngine(db_b, fb_access)
        q1 = facebook.query_q1()
        engine_a.execute(q1)
        engine_b.execute(q1)
        batch = [Update.insert("friend", ("p0", "p_x")), Update.insert("friend", ("p0",))]
        with pytest.raises(MaintenanceError):
            engine_a.apply_updates(batch)  # the malformed second row aborts it
        result_b = engine_b.execute(q1)
        assert result_b.cached and result_b.result_cached  # B's caches were never touched
        assert result_b.rows == evaluate(q1, db_b).rows
        result_a = engine_a.execute(q1)
        assert result_a.cached and not result_a.result_cached
        assert result_a.rows == evaluate(q1, db_a).rows
        assert engine_a.cache_stats()["plan_store"]["misses"] == 1

    def test_write_keeps_the_plan_entry(self, fb_access):
        """A write leaves the plan store alone; each engine's *result* cache
        is settled individually."""
        db_a = facebook.generate(scale=30, seed=1)
        db_b = facebook.generate(scale=30, seed=2)
        engine_a = BoundedEngine(db_a, fb_access)
        engine_b = BoundedEngine(db_b, fb_access)
        q1 = facebook.query_q1()
        engine_a.execute(q1)
        engine_b.execute(q1)
        plan = engine_a.prepare(q1).executable
        engine_a.apply_insert("friend", ("p0", "p_x"))
        result_a = engine_a.execute(q1)
        result_b = engine_b.execute(q1)
        assert result_a.cached and result_b.cached  # plan entry survived
        assert engine_a.prepare(q1).executable is plan
        assert result_b.result_cached  # engine B's result was never touched
        assert result_a.rows == evaluate(q1, db_a).rows
        assert result_b.rows == evaluate(q1, db_b).rows

    def test_engines_prepare_their_own_plans(self, fb_access):
        """Two engines over one access schema prepare equal plans, as two objects,
        each lowered by its own executor."""
        database = facebook.generate(scale=30, seed=1)
        engine_a = BoundedEngine(database, fb_access)
        engine_b = BoundedEngine(database, fb_access)
        q1 = facebook.query_q1()
        result_a, result_b = engine_a.execute(q1), engine_b.execute(q1)
        assert not result_a.cached and not result_b.cached
        assert result_a.rows == result_b.rows == evaluate(q1, database).rows
        plan_a, plan_b = engine_a.prepare(q1).executable, engine_b.prepare(q1).executable
        assert plan_a is not plan_b and plan_a == plan_b
        assert plan_a.compiled.executor is engine_a._executor
        assert plan_b.compiled.executor is engine_b._executor
