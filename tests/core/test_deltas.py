"""Delta maintenance of cached results: derivability, repair, fallback seams.

Structural rules first (which writes are derivable through which plans), then
the engine-level contract: dirty writes patch cached entries in place, writes
into unprobed index groups leave them unvisited and valid, and anything the
deriver cannot prove — difference plans, missing environments — invalidates
rather than ever serving a stale repaired entry.
"""

import gc
import logging
import sys
import weakref

import pytest

from repro.core import engine as engine_module
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.deltas import CLEAN, FALLBACK, PATCHED, DeltaDeriver, FetchKeys, WriteDelta
from repro.core.engine import BoundedEngine, prepare_query
from repro.core.plan import BoundedPlan
from repro.core.query import Relation, conjunction, eq
from repro.core.schema import DatabaseSchema, RelationSchema
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor
from repro.storage.database import Database
from repro.workloads import facebook


class TestWriteDelta:
    def test_groups_rows_by_relation_and_direction(self):
        delta = WriteDelta(
            inserts={"r": [(1,), (2,)]},
            deletes={"s": [(3,)], "r": [(9,)]},
        )
        assert delta.touched == {"r", "s"}
        assert delta.rows_for("r") == ((1,), (2,), (9,))
        assert delta.rows_for("s") == ((3,),)
        assert delta.rows_for("t") == ()
        assert bool(delta)

    def test_empty_relations_are_dropped(self):
        delta = WriteDelta(inserts={"r": []}, deletes={})
        assert not delta
        assert delta.touched == frozenset()

    def test_from_updates_buckets_by_kind(self):
        updates = [
            Update.insert("friend", ("p0", "f1")),
            Update.delete("friend", ("p0", "f2")),
            Update.insert("cafe", ("c1", "nyc")),
        ]
        delta = WriteDelta.from_updates(updates)
        assert delta.inserts == {"friend": (("p0", "f1"),), "cafe": (("c1", "nyc"),)}
        assert delta.deletes == {"friend": (("p0", "f2"),)}
        assert delta.touched == {"friend", "cafe"}


class TestDerivability:
    """Static reachability: monotone plans derive, difference plans refuse."""

    @pytest.fixture
    def deriver(self, fb_database, fb_indexes, fb_schema):
        # Structural checks never execute, but they read the repair program
        # kept on the executor's compiled plan.
        return DeltaDeriver(PlanExecutor(fb_indexes), fb_schema)

    def test_monotone_plan_is_derivable_for_every_relation(self, deriver, fb_access):
        prepared = prepare_query(facebook.query_q1(), fb_access)
        for relation in prepared.dependencies:
            assert deriver.derivable(prepared.executable, frozenset([relation]))

    def test_difference_plan_refuses_every_touched_relation(self, deriver, fb_access):
        # q0 rewrites to a guard-difference plan; every dependent relation's
        # fetches reach the DifferenceOp, so no write through it is derivable.
        prepared = prepare_query(facebook.query_q0(), fb_access)
        assert prepared.rewrite == "guard-difference"
        for relation in prepared.dependencies:
            assert not deriver.derivable(prepared.executable, frozenset([relation]))

    def test_untouched_plan_is_trivially_derivable(self, deriver, fb_access):
        prepared = prepare_query(facebook.query_q0(), fb_access)
        assert deriver.derivable(prepared.executable, frozenset(["unrelated"]))
        assert deriver.affected_fetches(prepared.executable, frozenset(["zzz"])) == ()

    def test_affected_fetches_resolve_base_relations(self, deriver, fb_access):
        prepared = prepare_query(facebook.query_q1(), fb_access)
        plan = prepared.executable
        affected = deriver.affected_fetches(plan, frozenset(["friend"]))
        assert affected  # q1 fetches friend through psi1
        for fetch_id in affected:
            constraint = plan.steps[fetch_id].op.constraint
            base = plan.occurrences.get(constraint.relation, constraint.relation)
            assert base == "friend"


class TestEngineRepair:
    """The wired contract: BoundedEngine writes settle entries via the deriver."""

    def test_unprobed_key_restamps_without_execution(self, fb_database, fb_access):
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        # A cafe whose cid no cached fetch ever probed: the write cannot be
        # visible through the plan, so the entry is neither re-run nor even
        # looked at — the relation's settlement mark moves past it.
        engine.apply_insert("cafe", ("c_unseen", "nowhere"))
        stats = engine.cache_stats()["result_cache"]
        assert (stats["repaired"], stats["repaired_clean"], stats["rows_patched"]) == (0, 0, 0)
        result = engine.execute(q1)
        assert result.result_cached and result.rows == evaluate(q1, fb_database).rows

    def test_probed_key_patches_rows_in_place(self, fb_database, fb_access):
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        engine.apply_insert("cafe", ("c_d", "nyc"))
        engine.apply_insert("friend", ("p0", "p_d"))
        engine.apply_insert("dine", ("p_d", "c_d", "may", 2015))
        result = engine.execute(q1)
        assert result.result_cached
        assert ("c_d",) in result.rows
        assert result.rows == evaluate(q1, fb_database).rows
        stats = engine.cache_stats()["result_cache"]
        assert stats["repaired"] == 2  # the cafe insert reached no probed key
        assert stats["rows_patched"] >= 1
        assert stats["repair_fallbacks"] == 0

    def test_difference_plan_invalidates_never_repairs(self, fb_database, fb_access):
        # Satellite 5: the fallback seam.  A cached guard-difference entry
        # must be dropped on a dependent write — patching through a
        # difference could *keep* rows the write should have removed.
        engine = BoundedEngine(fb_database, fb_access)
        q0 = facebook.query_q0()
        first = engine.execute(q0)
        assert first.rewrite == "guard-difference"
        assert engine.execute(q0).result_cached
        engine.apply_insert("friend", ("p0", "p_diff"))
        stats = engine.cache_stats()["result_cache"]
        assert stats["repair_fallbacks"] == 1
        assert stats["repair_fallback_reasons"] == {"difference": 1}
        assert sum(stats["invalidated_by"].values()) == 1
        result = engine.execute(q0)
        assert not result.result_cached  # recomputed, not served repaired
        assert result.rows == evaluate(q0, fb_database).rows

    def test_env_budget_zero_degrades_to_invalidation(
        self, fb_database, fb_access, monkeypatch
    ):
        # With no environment admitted, repair has nothing to re-execute
        # over: every dependent write must fall back to dropping the entry.
        monkeypatch.setattr(engine_module, "ENV_ROWS_BUDGET", 0)
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        # The executor's capture guard already refused the environment.
        (entry,) = [e for _, e in engine.result_cache.entries_for(("friend",))]
        assert entry.env is None
        engine.apply_insert("friend", ("p0", "p_nb"))
        stats = engine.cache_stats()["result_cache"]
        assert stats["repaired"] == 0
        assert stats["repair_fallback_reasons"] == {"no_env": 1}
        result = engine.execute(q1)
        assert not result.result_cached
        assert result.rows == evaluate(q1, fb_database).rows

    def test_mixed_batch_patches_inserts_and_deletes_together(
        self, fb_database, fb_access
    ):
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.apply_insert("cafe", ("c_old", "nyc"))
        engine.apply_insert("friend", ("p0", "p_old"))
        engine.apply_insert("dine", ("p_old", "c_old", "may", 2015))
        assert ("c_old",) in engine.execute(q1).rows
        engine.apply_updates(
            [
                Update.delete("dine", ("p_old", "c_old", "may", 2015)),
                Update.insert("cafe", ("c_new2", "nyc")),
                Update.insert("friend", ("p0", "p_new2")),
                Update.insert("dine", ("p_new2", "c_new2", "may", 2015)),
            ]
        )
        result = engine.execute(q1)
        assert result.result_cached
        assert ("c_old",) not in result.rows
        assert ("c_new2",) in result.rows
        assert result.rows == evaluate(q1, fb_database).rows

    def test_out_of_band_write_makes_entry_stale_not_repaired(
        self, fb_database, fb_access
    ):
        # A Database.insert that bypasses the engine bumps the clock without
        # running a derivation; the *next* engine write then finds the
        # relation past its settlement mark and must sweep its dependents
        # rather than repair over unknown intermediate state.
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        fb_database.insert("friend", ("p0", "p_oob"))
        engine.apply_insert("friend", ("p0", "p_oob2"))
        engine.indexes.apply_insert("friend", ("p0", "p_oob"))  # re-sync for reads
        stats = engine.cache_stats()["result_cache"]
        assert stats["repaired"] == 0
        assert stats["repair_fallback_reasons"] == {"stale": 1}

    def test_repair_outcome_metadata_names_dirty_steps(self, fb_database, fb_access):
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        (entry,) = [entry for _, entry in engine.result_cache.entries_for(("friend",))]
        assert entry.env is not None and entry.plan is not None
        # Keep the pre-write environment: the engine's own settlement patches
        # the live entry in place, after which the same delta derives clean.
        env, rows, plan = entry.env, entry.rows, entry.plan
        engine.apply_insert("friend", ("p0", "p_meta"))
        # Derive by hand against the applied write: the friend fetches are
        # dirty and only their downstream closure re-runs.
        outcome = engine._deriver.derive(
            plan, env, rows, WriteDelta(inserts={"friend": (("p0", "p_meta"),)})
        )
        assert outcome.status == PATCHED
        assert outcome.dirty_steps
        assert 0 < outcome.steps_recomputed < len(plan.steps)
        assert outcome.rows == rows  # a friend with no dines adds no cafes

    def test_raising_kernel_is_logged_and_drops_the_entry(
        self, fb_database, fb_access, caplog
    ):
        # A swallowed repair error must be visible: one WARNING naming the
        # exception, the plan's size and the touched relations.
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        (entry,) = [entry for _, entry in engine.result_cache.entries_for(("friend",))]
        env, rows, plan = entry.env, entry.rows, entry.plan

        def broken_kernel(env, counter):
            raise ZeroDivisionError("kernel blew up")

        compiled = engine._deriver.executor.compile(plan)
        compiled.kernels = (broken_kernel,) * len(compiled.kernels)
        delta = WriteDelta(inserts={"friend": (("p0", "p_err"),)})
        with caplog.at_level(logging.WARNING, logger="repro.core.deltas"):
            engine.apply_insert("friend", ("p0", "p_err"))
        (record,) = caplog.records
        assert record.name == "repro.core.deltas" and record.levelno == logging.WARNING
        message = record.getMessage()
        assert "ZeroDivisionError" in message
        assert f"{len(plan.steps)} steps" in message and "friend" in message
        stats = engine.cache_stats()["result_cache"]
        assert stats["repair_fallback_reasons"] == {"error:ZeroDivisionError": 1}
        assert stats["entries"] == 0 and stats["repaired"] == 0
        outcome = engine._deriver.derive(plan, env, rows, delta)
        assert outcome.status == FALLBACK
        assert outcome.reason == "error:ZeroDivisionError"
        engine._deriver.executor.discard(plan)  # drop the sabotaged kernels
        result = engine.execute(q1)
        assert not result.result_cached
        assert result.rows == evaluate(q1, fb_database).rows


def friends_of(person: str):
    """A point query through ψ1 alone: its one fetch probes a constant."""
    friend = Relation.from_schema(facebook.schema(), "friend")
    return friend.select(eq(friend["pid"], person)).project([friend["fid"]])


def dined_by_friends_of(person: str):
    """``Q1`` without the cafe: a plan over ``(dine, friend)``."""
    schema = facebook.schema()
    friend = Relation.from_schema(schema, "friend")
    dine = Relation.from_schema(schema, "dine")
    return (
        friend.join(dine, eq(friend["fid"], dine["pid"]))
        .select(
            conjunction([eq(friend["pid"], person), eq(dine["month"], "may"), eq(dine["year"], 2015)])
        )
        .project([dine["cid"]])
    )


def hub_and_spokes(spokes: int, keys: int):
    """``hub(k, v)`` beside ``spokes`` relations ``s<i>(k, w)``, one query per spoke and key.

    The query of spoke ``i`` and key ``j`` reads ``hub`` and ``s<i>`` under
    ``k<j>``: ``spokes`` dependency tuples ``("hub", "s<i>")`` of ``keys``
    entries each.  Returns ``(database, access schema, queries)``.
    """
    names = [f"s{i}" for i in range(spokes)]
    schema = DatabaseSchema.from_dict({"hub": ["k", "v"], **{name: ["k", "w"] for name in names}})
    access = AccessSchema(
        [AccessConstraint.of("hub", "k", "v", 10, name="hub_k")]
        + [AccessConstraint.of(name, "k", "w", 10, name=f"{name}_k") for name in names],
        schema=schema,
    )
    database = Database(schema)
    database.insert_many("hub", [(f"k{j}", j) for j in range(keys)])
    for name in names:
        database.insert_many(name, [(f"k{j}", -j) for j in range(keys)])
    hub = Relation.from_schema(schema, "hub")
    queries = []
    for name in names:
        spoke = Relation.from_schema(schema, name)
        for j in range(keys):
            queries.append(
                hub.join(spoke, eq(hub["k"], spoke["k"]))
                .select(eq(hub["k"], f"k{j}"))
                .project([hub["v"], spoke["w"]])
            )
    return database, access, queries


def fetch_sites(plan: BoundedPlan, base: str) -> list[int]:
    return [
        step.id for step in plan.fetch_steps() if plan.base_relation(step.op.constraint) == base
    ]


def rekeyed_by(plan: BoundedPlan, base: str) -> list[int]:
    """The fetches whose probed keys a patch of ``base``'s fetches recomputes."""
    closure: set[int] = set(fetch_sites(plan, base))
    for step in plan.steps:
        if closure.intersection(step.op.inputs):
            closure.add(step.id)
    return [step.id for step in plan.fetch_steps() if step.op.inputs[0] in closure]


class TestSettlementCost:
    """What a settlement keeps and how often it recomputes — counts, no timing."""

    def test_replaced_environments_and_key_sets_die_with_the_patch(
        self, fb_database, fb_access
    ):
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        (entry,) = [entry for _, entry in engine.result_cache.entries_for(("friend",))]
        # the first settlement after the fill reads every fetch's key set
        engine.apply_insert("friend", ("p_nobody", "p_first"))
        (friend,) = fetch_sites(entry.plan, "friend")
        downstream = rekeyed_by(entry.plan, "friend")
        assert sorted(entry.keyed) == sorted([friend, *downstream]) and len(downstream) == 2
        friend_keys = entry.keyed[friend]
        replaced: list[weakref.ref] = []
        for cycle in range(200):
            write = engine.apply_delete if cycle % 2 else engine.apply_insert
            # A write that misses leaves the entry alone and re-reads nothing.
            kept = dict(entry.keyed)
            write("friend", ("p_nobody", "p_cycle"))
            assert all(entry.keyed[site] is keys for site, keys in kept.items())
            # One that hits patches it: the friend fetch probes a constant,
            # outside the patch's closure, and keeps its key set; the fetches
            # that probe what it returned are read off the new environment.
            old_env = entry.env
            write("friend", ("p0", "p_cycle"))
            assert entry.env is not old_env
            assert entry.keyed[friend] is friend_keys
            assert sorted(site for site in kept if entry.keyed[site] is not kept[site]) == downstream
            assert engine.result_cache.stats()["reach_entries"] == 1  # still indexed
            # (the empty frozenset is a process-wide singleton: skip it)
            replaced += [weakref.ref(kept[site].probed) for site in downstream if kept[site].probed]
            replaced += [
                weakref.ref(part)
                for part in old_env
                if part and all(part is not kept for kept in entry.env)
            ]
            del old_env, kept
        assert len(replaced) >= 800
        gc.collect()
        assert not [ref for ref in replaced if ref() is not None]
        # the deriver holds no per-entry (or per-plan) state of its own
        assert set(vars(engine._deriver)) == {"executor", "schema", "group_lookup"}
        assert len([o for o in gc.get_objects() if isinstance(o, FetchKeys)]) == 3
        assert engine.execute(q1).rows == evaluate(q1, fb_database).rows
        # an indexed entry that leaves takes its key sets and its index part along
        assert engine.result_cache.stats()["reach_keys"] > 0
        engine.result_cache.invalidate()
        del entry, friend_keys
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, FetchKeys)]
        stats = engine.result_cache.stats()
        assert (stats["entries"], stats["reach_keys"], stats["reach_entries"]) == (0, 0, 0)

    def test_a_write_reads_its_relations_tokens_three_times(self):
        """Before the write, after it, after the derivations — whatever is cached.

        Twice the dependency tuples, or twice the entries under them, read
        no more clock values: the marks are per relation, not per tuple or
        entry.
        """

        def reads_per_write(spokes: int, keys: int) -> list:
            database, access, queries = hub_and_spokes(spokes, keys)
            engine = BoundedEngine(database, access)
            for query in queries:
                engine.execute(query)
            assert len(engine.result_cache.dependency_tuples(["hub"])) == spokes
            assert len(engine.result_cache) == spokes * keys
            reads, snapshot = [], database.clock.snapshot

            def reading(relations):
                reads.append(tuple(relations))
                return snapshot(relations)

            database.clock.snapshot = reading
            per_write = []
            for batch in range(3):
                reads.clear()
                engine.apply_updates([Update.insert("hub", (f"k{batch}", 100 + batch))])
                per_write.append(list(reads))
            del database.clock.snapshot
            for query in queries:
                result = engine.execute(query)
                assert result.result_cached and result.rows == evaluate(query, database).rows
            return per_write

        three = [[("hub",)] * 3] * 3
        assert reads_per_write(3, 4) == reads_per_write(6, 4) == reads_per_write(3, 8) == three

    def test_an_unreached_indexed_entry_costs_the_settlement_nothing(self):
        """A write executes the same opcodes beside twice the entries it does not reach."""

        def opcodes_of_a_write(keys: int) -> int:
            database, access, queries = hub_and_spokes(3, keys)
            engine = BoundedEngine(database, access)
            for query in queries:
                engine.execute(query)
            engine.apply_updates([Update.insert("hub", ("k_first", 0))])  # indexes them all
            assert not engine.result_cache.unindexed
            assert all(engine.execute(query).result_cached for query in queries)
            counted = [0]

            def local(frame, event, arg):
                counted[0] += event == "opcode"
                return local

            def trace(frame, event, arg):
                frame.f_trace_opcodes = True
                return local

            previous = sys.gettrace()
            sys.settrace(trace)
            try:
                engine.apply_updates([Update.insert("hub", ("k0", 100))])
            finally:
                sys.settrace(previous)
            for query in queries:
                result = engine.execute(query)
                assert result.result_cached and result.rows == evaluate(query, database).rows
            return counted[0]

        assert opcodes_of_a_write(4) == opcodes_of_a_write(8)

    def test_an_entry_filled_after_a_write_is_reached_by_the_next(self, fb_database, fb_access):
        """The reach index holds every entry a settlement can reach, however new.

        An entry filled since the last settlement is not in the index yet; the
        next settlement that can reach it enters it before it intersects the
        index, so a write to a key it probed patches it instead of moving the
        mark past it.
        """
        engine = BoundedEngine(fb_database, fb_access)
        engine.execute(friends_of("p0"))
        engine.apply_insert("friend", ("p0", "p_first"))  # settles, indexing p0's entry
        late = friends_of("p1")
        assert not engine.execute(late).result_cached
        key = engine.prepare(late)[0].result_key
        assert list(engine.result_cache.unindexed) == [key]
        settle, verdicts = engine._settle, []
        engine._settle = lambda *args: verdicts.append(settle(*args)) or verdicts[-1]
        engine.apply_insert("friend", ("p1", "p_late"))
        assert verdicts == [{key: PATCHED}]
        result = engine.execute(late)
        assert result.result_cached and ("p_late",) in result.rows
        assert result.rows == evaluate(late, fb_database).rows

    def test_a_batch_costs_what_it_reached_not_what_is_cached(self, fb_database, fb_access):
        """n cached dependents under three dependency tuples, a batch reaches k of them.

        k derivations; three token reads of the written relation, whatever
        the tuples; one index look-up per written key and indexed position
        tuple.  Doubling n at fixed tuples and k moves none of them.
        """

        class Counted(dict):
            gets = 0
            intersecting = False  # (a patch re-registers its entry: not counted)

            def get(self, key, default=None):
                Counted.gets += Counted.intersecting
                return dict.get(self, key, default)

        shapes = (facebook.query_q1, dined_by_friends_of, friends_of)

        def cost_of(people: int, reached: int) -> dict:
            engine = BoundedEngine(fb_database, fb_access)
            queries = [shape(f"p{i}") for i in range(people) for shape in shapes]
            for query in queries:
                engine.execute(query)
            assert len(engine.result_cache.dependency_tuples(["friend"])) == 3
            # the first settlement fills the index; count the ones after it
            # (one database under all three engines: every row is written once)
            fresh = f"p_{people}_{reached}"
            engine.apply_insert("friend", ("p_nobody", fresh))
            index = engine.result_cache._reach
            for slots in index.values():
                for positions in slots:
                    slots[positions] = Counted(slots[positions])
            assert engine.result_cache.stats()["reach_entries"] == len(queries)
            calls = {"derive": 0, "snapshot": 0, "validate": 0}
            writing = []

            def counted(name, function):
                def wrapper(*args, **kwargs):
                    calls[name] += bool(writing)
                    return function(*args, **kwargs)

                return wrapper

            def intersect(delta, _reached=engine.result_cache.reached):
                Counted.intersecting = True
                try:
                    return _reached(delta)
                finally:
                    Counted.intersecting = False

            engine.result_cache.reached = intersect
            engine._snapshot = counted("snapshot", engine._snapshot)
            engine._validate = counted("validate", engine._validate)
            engine._deriver.derive = counted("derive", engine._deriver.derive)
            before, Counted.gets = engine.result_cache.stats(), 0
            batches = 6
            writing.append(True)
            for batch in range(batches):
                engine.apply_updates(
                    [
                        Update.insert("friend", (f"p{i}", f"{fresh}_{batch}"))
                        for i in range(reached)
                    ]
                )
            writing.clear()
            after = engine.result_cache.stats()
            assert after["repaired"] - before["repaired"] == reached * len(shapes) * batches
            assert after["repair_fallbacks"] == 0
            for query in queries:
                assert engine.execute(query).rows == evaluate(query, fb_database).rows
            return {**calls, "lookups": Counted.gets}

        small, large = cost_of(people=8, reached=2), cost_of(people=16, reached=2)
        assert small == large == {
            "derive": 6 * 2 * len(shapes),
            "snapshot": 6 * 3,  # before the write, after it, after the derivations
            "validate": 0,
            "lookups": 6 * 2,  # every plan fetches friend under one position tuple
        }
        assert cost_of(people=16, reached=4)["derive"] == 6 * 4 * len(shapes)

    def test_a_patch_re_reads_only_the_key_sets_it_moved(self, fb_database, fb_access):
        """Key sets are read once per entry and again only where a patch moved them;
        a dirty fetch whose live groups were read is patched, not re-fetched."""
        engine = BoundedEngine(fb_database, fb_access)
        q1 = facebook.query_q1()
        engine.execute(q1)
        (entry,) = engine.result_cache.entries_under(("cafe", "dine", "friend")).values()
        plan = entry.plan
        fetches = {step.id for step in plan.fetch_steps()}
        compiled = engine._executor.compile(plan)
        runs = {"key_sets": 0, "fetch_kernels": 0}

        def counting(kernel):
            def run(env, counter):
                runs["fetch_kernels"] += 1
                return kernel(env, counter)

            return run

        compiled.kernels = tuple(
            counting(kernel) if sid in fetches else kernel
            for sid, kernel in enumerate(compiled.kernels)
        )
        read = FetchKeys.__init__

        def reading(self, *args):
            runs["key_sets"] += 1
            read(self, *args)

        settle, verdicts = engine._settle, []
        engine._settle = lambda *args: verdicts.append(settle(*args)) or verdicts[-1]

        def batch(*updates) -> dict:
            runs.update(key_sets=0, fetch_kernels=0)
            FetchKeys.__init__ = reading
            try:
                engine.apply_updates(list(updates))
            finally:
                FetchKeys.__init__ = read
            counted = dict(runs)
            assert list(verdicts[-1].values()) == [PATCHED]
            fresh = engine._executor.execute(plan, capture_env=True)
            assert (entry.rows, entry.env) == (fresh.rows, fresh.env)
            assert entry.rows == evaluate(q1, fb_database).rows
            return counted

        # The first settlement reads all three key sets; its patch of the
        # friend fetch (Δfetch: no fetch kernel) recomputes what the dine and
        # cafe fetches probe: those two are read again, and re-fetched.  (The
        # new friend's dine is under a key nothing probed before the batch.)
        row = min(fb_database.relation("cafe").rows)
        downstream = rekeyed_by(plan, "friend")
        assert batch(
            Update.insert("friend", ("p0", "p_patch")),
            Update.insert("dine", ("p_patch", row[0], "may", 2015)),
        ) == {"key_sets": len(fetches) + len(downstream), "fetch_kernels": len(downstream)}
        # A batch that reaches only key sets its patch cannot move reads none,
        # and a dirty fetch whose live groups were read runs no fetch kernel.
        (cafe,) = fetch_sites(plan, "cafe")
        assert rekeyed_by(plan, "cafe") == [] and (row[0],) in entry.keyed[cafe].probed
        assert batch(Update.delete("cafe", row)) == {"key_sets": 0, "fetch_kernels": 0}
        assert batch(Update.insert("cafe", row)) == {"key_sets": 0, "fetch_kernels": 0}

    def test_plan_facts_are_compiled_once_per_plan_not_per_batch(
        self, fb_database, fb_access, monkeypatch
    ):
        engine = BoundedEngine(fb_database, fb_access)
        queries = [facebook.query_q1(person=f"p{i}") for i in range(16)]
        plans = [engine.execute(query).plan for query in queries]
        fetch_steps = max(len(engine.prepare(q)[0].executable.fetch_steps()) for q in queries)
        assert len({id(plan) for plan in plans}) == 16
        # the fetch sites a patch of the friend fetch re-reads, off the plans
        # themselves: every plan has the same number of them, and at least one
        (rekeyed,) = {
            len(rekeyed_by(engine.prepare(query)[0].executable, "friend")) for query in queries
        }
        assert rekeyed >= 1

        calls = {"fetch_steps": 0, "positions": 0, "key_sets": 0, "patched": 0}
        settling = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += bool(settling)
                return function(*args, **kwargs)

            return wrapper

        for owner, attribute, name in (
            (BoundedPlan, "fetch_steps", "fetch_steps"),
            (RelationSchema, "positions", "positions"),
            (FetchKeys, "__init__", "key_sets"),
        ):
            monkeypatch.setattr(owner, attribute, counted(name, getattr(owner, attribute)))
        settle, derive = engine._settle, engine._deriver.derive

        def settle_counted(*args, **kwargs):
            settling.append(True)
            try:
                return settle(*args, **kwargs)
            finally:
                settling.pop()

        def derive_counted(*args, **kwargs):
            outcome = derive(*args, **kwargs)
            calls["patched"] += outcome.status == PATCHED
            return outcome

        engine._settle = settle_counted
        engine._deriver.derive = derive_counted

        batches = 50
        for batch in range(batches):
            person = f"p{batch % 16}"
            engine.apply_updates(
                [
                    Update.insert("friend", (person, f"p_new{batch}")),
                    Update.delete("friend", (person, f"p_new{batch - 16}")),
                ]
            )
        # each batch reaches, and dirties, exactly one entry; the others are not visited
        assert engine.cache_stats()["result_cache"]["repaired"] == batches
        assert calls["patched"] == batches
        # O(#plans): one program per plan, however many batches settle through it
        assert calls["fetch_steps"] == 16
        assert calls["positions"] <= 16 * fetch_steps
        # key sets are read off an environment once per entry and fetch, and
        # again by a patch only for the fetches whose probed keys it recomputed
        assert calls["key_sets"] == 16 * fetch_steps + rekeyed * batches
        for query in queries:
            assert engine.execute(query).rows == evaluate(query, fb_database).rows
