"""Edge-case coverage for the serving-core caches (PR 6, satellite 4).

Zero-capacity stores, oversized admission refusals, replacement-return
semantics of :meth:`PlanStore.put`, and snapshot-mismatch stale drops under
interleaved writes — the corners a cache bug hides in.
"""

import pytest

from repro.core.engine import BoundedEngine
from repro.core.planstore import PlanStore, ResultCache
from repro.storage.counters import VersionClock


class TestZeroCapacityPlanStore:
    def test_put_is_a_noop_and_get_always_misses(self):
        store = PlanStore(capacity=0)
        assert store.put("k", "entry") == []
        assert len(store) == 0
        assert store.get("k") is None
        assert store.stats()["misses"] == 1
        assert store.stats()["evictions"] == 0

    def test_negative_capacity_behaves_like_zero(self):
        store = PlanStore(capacity=-5)
        store.put("k", "entry")
        assert len(store) == 0


class TestZeroCapacityResultCache:
    def test_put_is_a_noop_and_get_always_misses(self):
        cache = ResultCache(capacity=0)
        cache.put("k", frozenset({(1,)}), ("a",), ["r"], (0,))
        assert len(cache) == 0
        assert cache.get("k", (0,)) is None
        assert cache.stats()["misses"] == 1

    def test_clear_all_and_sweep_on_an_empty_cache_are_safe(self):
        cache = ResultCache(capacity=0)
        assert cache.invalidate() == 0
        assert cache.sweep(["r"], "no_delta") == []
        stats = cache.stats()
        assert (stats["invalidated"], stats["repair_fallback_reasons"]) == (0, {})

    def test_engine_with_zero_caches_still_serves(self, fb_database, fb_access, fb_q0_prime):
        engine = BoundedEngine(
            fb_database,
            fb_access,
            plan_cache_size=0,
            result_cache_size=0,
        )
        first = engine.execute(fb_q0_prime)
        second = engine.execute(fb_q0_prime)
        assert first.rows == second.rows
        assert not second.result_cached
        assert engine.cache_stats()["result_cache"]["entries"] == 0


class TestOversizedAdmission:
    def test_oversized_result_is_refused_and_prior_entries_survive(self):
        cache = ResultCache(capacity=8, max_rows=2)
        small = frozenset({(1,), (2,)})
        cache.put("small", small, ("a",), ["r"], (0,))
        big = frozenset({(i,) for i in range(3)})
        cache.put("big", big, ("a",), ["r"], (0,))
        assert cache.stats()["oversized"] == 1
        assert cache.get("big", (0,)) is None
        # The refusal must not have disturbed what was already cached.
        hit = cache.get("small", (0,))
        assert hit is not None and hit.rows == small

    def test_oversized_refusal_does_not_evict_lru(self):
        cache = ResultCache(capacity=2, max_rows=1)
        cache.put("a", frozenset({(1,)}), ("c",), ["r"], (0,))
        cache.put("b", frozenset({(2,)}), ("c",), ["r"], (0,))
        cache.put("big", frozenset({(1,), (2,)}), ("c",), ["r"], (0,))
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 0
        assert cache.get("a", (0,)) is not None
        assert cache.get("b", (0,)) is not None


class TestPlanStoreReplacement:
    def test_put_same_key_returns_replaced_entry(self):
        store = PlanStore(capacity=4)
        store.put("k", "old")
        displaced = store.put("k", "new")
        assert displaced == ["old"]
        assert store.get("k") == "new"
        assert store.stats()["replaced"] == 1
        assert store.stats()["evictions"] == 0

    def test_re_put_of_same_object_is_not_displaced(self):
        store = PlanStore(capacity=4)
        entry = object()
        store.put("k", entry)
        assert store.put("k", entry) == []
        assert store.stats()["replaced"] == 0

    def test_replacement_and_eviction_both_reported(self):
        store = PlanStore(capacity=2)
        store.put("a", "A")
        store.put("b", "B")
        # Replacing "a" while at capacity: the old "a" comes back, no eviction
        # (size is unchanged); then a third key evicts the LRU ("b").
        assert store.put("a", "A2") == ["A"]
        displaced = store.put("c", "C")
        assert displaced == ["B"]
        assert store.stats()["evictions"] == 1


class TestSnapshotMismatchUnderWrites:
    def test_stale_entry_dropped_on_probe_after_interleaved_write(self):
        clock = VersionClock()
        cache = ResultCache(capacity=8)
        snapshot = clock.snapshot(("r",))
        cache.put("k", frozenset({(1,)}), ("a",), ("r",), snapshot)
        clock.bump(["r"])  # a write lands between fill and probe
        assert cache.get("k", clock.snapshot(("r",))) is None
        assert cache.stats()["stale"] == 1
        assert len(cache) == 0

    def test_write_to_unrelated_relation_does_not_stale(self):
        clock = VersionClock()
        cache = ResultCache(capacity=8)
        snapshot = clock.snapshot(("r",))
        cache.put("k", frozenset({(1,)}), ("a",), ("r",), snapshot)
        clock.bump(["s"])
        assert cache.get("k", clock.snapshot(("r",))) is not None

    def test_engine_never_serves_stale_rows_across_writes(self, hot_cold_setup):
        database, access, hot_query = hot_cold_setup
        engine = BoundedEngine(database, access)
        before = engine.execute(hot_query).rows
        assert engine.execute(hot_query).result_cached
        engine.apply_delete("hot", ("a", 1))
        after = engine.execute(hot_query)
        # The entry is patched in place and served, reflecting the write.
        assert after.result_cached
        assert after.rows == before - {(1,)}

    def test_validate_fails_when_any_dependency_moved(self):
        clock = VersionClock()
        snapshot = clock.snapshot(("r", "s"))
        assert clock.validate(("r", "s"), snapshot)
        clock.bump(["s"])
        assert not clock.validate(("r", "s"), snapshot)
        assert clock.validate(("r",), snapshot[:1])
        assert clock.validate((), ())
