"""The result cache's reach index is what its live entries' environments say.

``ResultCache`` keeps, inverted, the keys its entries' fetches probed, so a
write finds the entries it reached by what it wrote.  Nothing reads an entry
to decide it was *not* reached — so a key set that outlives its entry, or one
that leaves while a second fetch site over the same index still needs it, is a
wrong settlement waiting for the right write.  The seeded runs below take
every way an entry or its environment can leave the cache, in random order,
and after each step compare the index with one recomputed from scratch.  A
patch replaces an entry's environment but keeps it indexed, re-reading only
the key sets it may have moved: so after each step an entry the last
settlement patched must still be indexed for every relation it depends on,
and every key set an entry keeps must be what its current environment says.
"""

import gc
import random
import weakref

import pytest

from repro.core.deltas import EVERY_WRITE
from repro.core.engine import BoundedEngine
from repro.core.planstore import ResultCache
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.workloads import facebook

PEOPLE = ("p0", "p1", "p2")


def recomputed(engine: BoundedEngine) -> dict:
    """The index the live entries call for, read off their environments afresh."""
    index: dict = {}
    for key, entry in engine.result_cache._entries.items():
        for base in entry.reach or ():
            for positions, probed in engine._deriver.reach(entry.plan, entry.env, {}, base):
                for probe in probed:
                    index.setdefault(base, {}).setdefault(positions, {}).setdefault(
                        probe, set()
                    ).add(key)
    return index


def check_key_sets(engine: BoundedEngine, entry) -> None:
    """Every key set an entry keeps is what its environment says."""
    sites = {site.id: site for site in engine._deriver._compiled(entry.plan).repair.ordered}
    for site_id, keys in entry.keyed.items():
        assert keys == sites[site_id].keys(entry.env)


def check(engine: BoundedEngine, patched=()) -> None:
    """The index is its recomputation; ``patched`` entries are still in it."""
    cache = engine.result_cache
    assert cache._reach == recomputed(engine)
    for key in patched:
        entry = cache._entries[key]
        assert entry.reach is not None and set(entry.reach) == set(entry.dependencies)
    for entry in cache._entries.values():
        if entry.keyed is not None:
            check_key_sets(engine, entry)
    indexed = {key for key, entry in cache._entries.items() if entry.reach}
    held = {
        key
        for slots in cache._reach.values()
        for by_key in slots.values()
        for holders in by_key.values()
        for key in holders
    }
    assert held <= indexed  # nothing for a departed (or never settled) entry
    stats = cache.stats()
    assert stats["reach_entries"] == len(held)
    assert stats["reach_keys"] == sum(
        len(by_key) for slots in cache._reach.values() for by_key in slots.values()
    )
    for key, entry in cache._entries.items():
        assert (entry.reach is None) == (entry.keyed is None)
        # an entry no settlement has entered yet is waiting for one
        assert (entry.reach is None) == (key in cache.unindexed)
    assert set(cache.unindexed) <= set(cache._entries)
    if not cache._entries:
        assert cache._reach == {}


class TestIndexFollowsTheEntries:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_interleaving_of_everything_that_moves_an_entry(self, seed):
        rng = random.Random(seed)
        database = facebook.generate(scale=15, seed=seed)
        access = facebook.access_schema(database.schema)
        # capacity below the query count: fills evict; dirty entries patch
        engine = BoundedEngine(database, access, result_cache_size=3)
        cache = engine.result_cache
        verdicts: dict = {}
        settle = engine._settle

        def settling(*args):
            verdicts.clear()  # the last settlement's verdicts
            verdicts.update(settle(*args))
            return dict(verdicts)

        engine._settle = settling
        queries = (
            [facebook.query_q1(person=person) for person in PEOPLE]
            + [facebook.query_friends_of_friends(person) for person in PEOPLE]
            + [facebook.query_q0()]  # a difference plan: reached by every write
        )
        fresh = iter(range(10**6))

        def read():
            query = rng.choice(queries)
            assert engine.execute(query).rows == evaluate(query, database).rows

        def live_key():
            return rng.choice(list(cache._entries)) if cache._entries else None

        def overwrite():
            key = live_key()
            if key is None:
                return
            entry = cache._entries[key]
            snapshot = engine._snapshot(entry.dependencies)
            if cache.get(key, snapshot, record=False) is entry:  # still valid: re-admit it
                cache.put(
                    key, entry.rows, entry.columns, entry.dependencies, snapshot,
                    env=entry.env, plan=entry.plan,
                )
                assert cache._entries[key] is not entry

        def out_of_band():
            row = ("p_oob", f"x{next(fresh)}")
            database.insert("friend", row)  # the clock moves, no settlement runs
            engine.indexes.apply_insert("friend", row)
            read()  # an entry met here past its mark is dropped by ``get``

        def drop():
            key = live_key()
            if key is not None:
                assert cache.drop(key, reason="test")

        def hot_write():
            row = (rng.choice(PEOPLE), f"x{next(fresh)}")
            engine.apply_updates([Update.insert("friend", row)])
            if rng.random() < 0.5:
                engine.apply_updates([Update.delete("friend", row)])

        def far_write():
            # a key only the far sites of a self-join probed, when there is one
            friends = sorted(
                fid for pid, fid in database.relation("friend") if pid in PEOPLE
            )
            engine.apply_insert("friend", (rng.choice(friends), f"x{next(fresh)}"))

        def clean_write():
            relation, row = rng.choice(
                [
                    ("friend", ("p_nobody", f"x{next(fresh)}")),
                    ("cafe", (f"c_x{next(fresh)}", "nowhere")),
                    ("dine", ("p_nobody", f"c_x{next(fresh)}", "may", 2015)),
                ]
            )
            engine.apply_insert(relation, row)

        steps = [
            (read, 8), (overwrite, 1), (out_of_band, 1), (drop, 1),
            (lambda: cache.sweep((rng.choice(["friend", "cafe", "dine"]),), "no_delta"), 1),
            (lambda: cache.invalidate(), 0.3),
            (hot_write, 3), (far_write, 2), (clean_write, 4),
        ]
        seen_indexed = seen_patched = 0
        key_sets = []  # every non-empty key set an entry kept, weakly
        for step in rng.choices(
            [step for step, _ in steps], weights=[weight for _, weight in steps], k=150
        ):
            verdicts.clear()
            step()
            patched = [key for key, verdict in verdicts.items() if verdict == "patched"]
            check(engine, patched)
            key_sets += [
                weakref.ref(keys)
                for entry in cache._entries.values()
                for keys in (entry.keyed or {}).values()
                if keys
            ]
            seen_indexed = max(seen_indexed, cache.stats()["reach_entries"])
            seen_patched += len(patched)
        assert seen_indexed >= 2  # the run did index entries, not just churn them
        assert seen_patched  # ... and patched some of them
        stats = cache.stats()
        assert stats["evictions"] and stats["rows_patched"]
        # an out-of-band write is met by a read (``get``) or by the next admission or write
        assert stats["stale"] or stats["repair_fallback_reasons"].get("stale")
        assert stats["repair_fallback_reasons"].get("difference")
        for query in queries:
            assert engine.execute(query).rows == evaluate(query, database).rows
        cache.invalidate()
        check(engine)
        gc.collect()
        assert key_sets and not [ref for ref in key_sets if ref() is not None]

    def test_a_difference_plan_is_reached_by_every_write_to_its_relations(self):
        database = facebook.generate(scale=15, seed=1)
        access = facebook.access_schema(database.schema)
        engine = BoundedEngine(database, access)
        q0, q1 = facebook.query_q0(), facebook.query_q1()
        engine.execute(q0)
        engine.execute(q1)
        engine.apply_insert("cafe", ("c_unseen", "nowhere"))  # no entry probed it
        stats = engine.result_cache.stats()
        assert stats["repair_fallback_reasons"] == {"difference": 1}
        assert (stats["repaired"], stats["repaired_clean"]) == (0, 0)  # q1: not reached
        (entry,) = engine.result_cache._entries.values()
        assert entry.reach["cafe"] != EVERY_WRITE  # q1's cafe fetch is indexed by key
        check(engine)


class TestDropCountsWhatItDropped:
    def test_an_entry_already_gone_counts_nothing(self):
        cache = ResultCache(capacity=2)
        cache.put("k", frozenset(), (), dependencies=("r",), snapshot=(1,))
        assert cache.drop("k", reason="stale", relations=("r",))
        before = cache.stats()
        assert not cache.drop("k", reason="stale", relations=("r",))
        assert not cache.drop("never", reason="race")
        assert cache.stats() == before
        assert before["repair_fallbacks"] == 1
        assert before["repair_fallback_reasons"] == {"stale": 1}
