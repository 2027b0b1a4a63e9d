"""Property: repaired cache entries are row-identical to recomputation.

Random interleavings of reads and mixed insert/delete write batches run
against a :class:`~repro.core.engine.BoundedEngine` (and, in the second
class, a :class:`~repro.sharding.router.ShardRouter` federation) with delta
repair on.  Every read — whether served from a repaired entry, a re-stamped
entry, or a fresh execution — must equal the reference evaluator over the
current data, and the difference-rewritten query must never be served from a
repaired entry at all (its plan is structurally non-derivable).
"""

from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.experiments import select_covered_queries
from repro.core.engine import BoundedEngine
from repro.core.errors import ConstraintViolation
from repro.core.plan import DifferenceOp, FetchOp
from repro.discovery.maintenance import Update
from repro.evaluator import executor as executor_module
from repro.evaluator.algebra import evaluate
from repro.sharding import ShardRouter, SQLiteShard, build_topology
from repro.storage.database import Database
from repro.workloads import WORKLOADS, facebook

MONTHS = ("may", "jun")
YEARS = (2015, 2016)
CITIES = ("nyc", "sf")

#: op codes: read q1 / read q0 / single insert / single delete / mixed batch
READ_Q1, READ_Q0, INSERT, DELETE, BATCH = range(5)

operations = st.lists(
    st.tuples(
        st.sampled_from([READ_Q1, READ_Q0, INSERT, DELETE, BATCH]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=6,
    max_size=14,
)


def _make_insert(relation: str, arg: int, fresh: int) -> Update:
    if relation == "friend":
        return Update.insert("friend", (f"p{arg % 6}", f"nf{fresh}"))
    if relation == "dine":
        return Update.insert(
            "dine",
            (
                f"nf{arg % max(1, fresh)}" if arg % 2 else f"p{arg % 6}",
                f"nc{arg % 4}",
                MONTHS[arg % len(MONTHS)],
                YEARS[arg % len(YEARS)],
            ),
        )
    return Update.insert("cafe", (f"nc{arg % 4}", CITIES[arg % len(CITIES)]))


def _make_delete(database, relation: str, arg: int) -> Update | None:
    rows = sorted(database.relation(relation).rows)
    if not rows:
        return None
    return Update.delete(relation, rows[arg % len(rows)])


def _updates_for(database, op: int, arg: int, fresh: int) -> list[Update]:
    relations = ("friend", "dine", "cafe")
    if op == INSERT:
        return [_make_insert(relations[arg % 3], arg, fresh)]
    if op == DELETE:
        victim = _make_delete(database, relations[arg % 3], arg)
        return [victim] if victim is not None else []
    # BATCH: a mixed insert/delete batch across relations
    batch = [
        _make_insert(relations[arg % 3], arg, fresh),
        _make_insert(relations[(arg + 1) % 3], arg // 3, fresh + 1),
    ]
    victim = _make_delete(database, relations[(arg + 2) % 3], arg // 2)
    if victim is not None:
        batch.append(victim)
    return batch


class TestEngineRepairProperty:
    @given(st.integers(min_value=0, max_value=50), operations)
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_reads_always_match_reference_under_interleaved_writes(self, seed, ops):
        database = facebook.generate(scale=15, seed=seed)
        access = facebook.access_schema(database.schema)
        engine = BoundedEngine(database, access)
        q1 = facebook.query_q1()
        q0 = facebook.query_q0()
        engine.execute(q1)  # warm the cache so writes have entries to settle
        engine.execute(q0)
        fresh = 0
        for op, arg in ops:
            if op == READ_Q1 or op == READ_Q0:
                query = q1 if op == READ_Q1 else q0
                result = engine.execute(query)
                assert result.rows == evaluate(query, database).rows
                if op == READ_Q0 and result.result_cached:
                    # q0's guard-difference plan is never derivable: a served
                    # cached entry can only come from a no-write window.
                    assert engine.cache_stats()["result_cache"]["repaired"] == 0 or (
                        engine.cache_stats()["result_cache"]["repair_fallback_reasons"]
                    )
            else:
                updates = _updates_for(database, op, arg, fresh)
                fresh += len(updates)
                if updates:
                    engine.apply_updates(updates)
        # Terminal read: whatever mixture of repairs/restamps/invalidations
        # happened, both queries still answer exactly.
        assert engine.execute(q1).rows == evaluate(q1, database).rows
        assert engine.execute(q0).rows == evaluate(q0, database).rows

    @given(st.integers(min_value=0, max_value=50), operations)
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_repaired_serves_equal_full_recomputation(self, seed, ops):
        """The sharper form: compare a repairing engine against a twin that
        caches no result on the same database — byte-identical serving."""
        database = facebook.generate(scale=15, seed=seed)
        access = facebook.access_schema(database.schema)
        repairing = BoundedEngine(database, access)
        recomputing = BoundedEngine(database, access, result_cache_size=0)
        q1 = facebook.query_q1()
        repairing.execute(q1)
        fresh = 0
        for op, arg in ops:
            if op in (READ_Q1, READ_Q0):
                assert repairing.execute(q1).rows == recomputing.execute(q1).rows
            else:
                updates = _updates_for(database, op, arg, fresh)
                fresh += len(updates)
                if not updates:
                    continue
                # Apply through the repairing engine; hand the twin the same
                # already-applied state (it shares the database, so only its
                # indexes need the writes that actually landed).
                report = repairing.apply_updates(updates)
                for update in report.applied_updates:
                    if update.kind == "insert":
                        recomputing.indexes.apply_insert(update.relation, update.row)
                    else:
                        recomputing.indexes.apply_delete(update.relation, update.row)
        assert repairing.execute(q1).rows == recomputing.execute(q1).rows
        assert repairing.execute(q1).rows == evaluate(q1, database).rows


class TestRouterRepairProperty:
    @given(st.integers(min_value=0, max_value=25), operations)
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_federated_reads_match_reference_under_routed_writes(self, seed, ops):
        database = facebook.generate(scale=12, seed=seed)
        access = facebook.access_schema(database.schema)

        def mirror(updates):
            for update in updates:
                instance = database.relation(update.relation)
                prepared = instance.prepare(update.row)
                if update.kind == "insert":
                    instance.insert(prepared)
                else:
                    instance.delete(prepared)

        router = build_topology(database, access, shards=2, write_observer=mirror)
        q1 = facebook.query_q1()
        router.execute(q1)
        fresh = 0
        for op, arg in ops:
            if op in (READ_Q1, READ_Q0):
                result = router.execute(q1)
                assert result.rows == evaluate(q1, database).rows
            else:
                updates = _updates_for(database, op, arg, fresh)
                fresh += len(updates)
                if updates:
                    router.apply_updates(updates)
        assert router.execute(q1).rows == evaluate(q1, database).rows


# ---------------------------------------------------------------------------
# Differential test of the compiled settlement path
# ---------------------------------------------------------------------------
# The production path decides clean / patched / fallback from a repair program
# compiled per plan, key sets kept with each cache entry and inverted into the
# result cache's reach index, and keys projected once per batch
# (``repro.core.deltas``, ``ResultCache.reached``): an entry no written key
# hits is re-stamped without ever being derived.  The oracle below reads the verdict
# straight off the definition — *a fetch is dirty iff a written row's LHS
# projection is a key it probed and that key's group changed* — from the plan's
# declared step columns and full scans of the stored relations; a dirty entry of
# a monotone plan is patched.  It imports nothing from
# ``deltas.py``, so a disagreement is a bug in one of the two (the validation
# style of Raszyk et al., "Efficient Evaluation of Arbitrary Relational
# Calculus Queries").

def _project(database, relation, attributes, row):
    return tuple(row[p] for p in database.schema[relation].positions(attributes))


def _index_group(database, relation, lhs, both, key):
    """``D_XY(X = key)`` by scanning the relation."""
    return frozenset(
        _project(database, relation, both, row)
        for row in database.relation(relation)
        if _project(database, relation, lhs, row) == key
    )


@dataclass
class _FetchFacts:
    base: str
    lhs: list
    both: list
    probed: set
    reaches_difference: bool


def _fetch_facts(plan, env) -> list[_FetchFacts]:
    """Every fetch of ``plan``: what it reads, the keys it probed, what it feeds."""
    consumers = defaultdict(set)
    for step in plan.steps:
        for source in step.op.inputs:
            consumers[source].add(step.id)
    facts = []
    for step in plan.steps:
        if not isinstance(step.op, FetchOp):
            continue
        constraint = step.op.constraint
        downstream, frontier = set(), [step.id]
        while frontier:
            reached = frontier.pop()
            if reached not in downstream:
                downstream.add(reached)
                frontier.extend(consumers[reached])
        source = step.op.inputs[0]
        columns = plan.steps[source].columns
        at = [columns.index(column) for column in step.op.key_columns]
        facts.append(
            _FetchFacts(
                base=plan.occurrences.get(constraint.relation, constraint.relation),
                lhs=sorted(constraint.lhs),
                both=sorted(constraint.lhs | constraint.rhs),
                probed={tuple(row[i] for i in at) for row in env[source]},
                reaches_difference=any(
                    isinstance(plan.steps[sid].op, DifferenceOp) for sid in downstream
                ),
            )
        )
    return facts


class _Prediction:
    """The oracle's verdict for one cached entry and one batch.

    Built before the batch applies (it captures the probed keys and the
    groups the batch may change); :meth:`verdict` is asked after, with the
    updates the core settled and the relations they changed.  ``refine``
    says whether the core compares groups (the engine) or stops at the key
    hit (the router); both settle over the updates that took effect.
    """

    def __init__(self, entry, updates, database, refine):
        self.dependencies = set(entry.dependencies)
        self.refine = refine
        self.facts = None
        self.before = {}
        if entry.env is None or entry.plan is None:
            return
        self.facts = _fetch_facts(entry.plan, entry.env)
        for index, fact in enumerate(self.facts):
            for update in updates:
                if update.relation == fact.base:
                    key = _project(database, fact.base, fact.lhs, update.row)
                    if key in fact.probed:
                        self.before[index, key] = _index_group(
                            database, fact.base, fact.lhs, fact.both, key
                        )

    def verdict(self, applied, touched, database) -> str | None:
        if not self.dependencies.intersection(touched):
            return None  # the batch never reached the entry
        if self.facts is None:
            return "no_env"
        written = {update.relation for update in applied}
        affected = [(i, f) for i, f in enumerate(self.facts) if f.base in written]
        if any(fact.reaches_difference for _, fact in affected):
            return "fallback:difference"
        for index, fact in affected:
            for update in applied:
                if update.relation != fact.base:
                    continue
                key = _project(database, fact.base, fact.lhs, update.row)
                if key not in fact.probed:
                    continue
                if not self.refine or self.before[index, key] != _index_group(
                    database, fact.base, fact.lhs, fact.both, key
                ):
                    return "patched"
        return "clean"


class _Settlements:
    """A serving core under test, its reference database and the oracle.

    ``reference`` is the single database writes are mirrored into (for the
    engine it *is* the engine's database).  Every batch goes through
    :meth:`write`, which checks each reached entry's verdict against the
    oracle and every surviving entry against a fresh execution.

    Verdicts are read where the core reports them — the map ``_settle``
    returns, one verdict per candidate whichever way it was settled — and
    the deriver is watched beside it: an entry the oracle calls ``patched``
    or ``fallback`` went through ``derive`` exactly once, with that verdict;
    one it calls ``clean`` may never have got there.

    A batch that would leave the reference violating the access schema —
    :meth:`Database.violations` on a copy, a full scan that shares no code
    with the core's read-back — must be rejected instead: the core raises
    :class:`ConstraintViolation`, every relation holds the rows it held, and
    every entry the batch reached is dropped (``rejected``), never patched.
    """

    def __init__(self, core, reference, queries, *, refine):
        self.core = core
        self.reference = reference
        self.refine = refine
        self.relations = tuple(reference.schema.relation_names())
        # result-cache entries are filed under their prepared entry's key
        self.queries = {core.prepare(query)[0].result_key: query for query in queries}
        self.verdicts: list[str] = []
        self.settled: dict = {}
        self.derived: dict[int, str] = {}
        settle, derive = core._settle, core._deriver.derive

        def settling(*args):
            self.settled = settle(*args)
            return self.settled

        def recording(plan, *args, **kwargs):
            outcome = derive(plan, *args, **kwargs)
            assert id(plan) not in self.derived, "an entry was derived twice in one batch"
            self.derived[id(plan)] = (
                f"fallback:{outcome.reason}" if outcome.status == "fallback" else outcome.status
            )
            return outcome

        # instance attributes: this core only
        core._settle, core._deriver.derive = settling, recording
        self.read()

    def entries(self) -> dict:
        return dict(self.core.result_cache.entries_for(self.relations))

    def read(self) -> None:
        for query in self.queries.values():
            assert self.core.execute(query).rows == evaluate(query, self.reference).rows

    def data(self) -> dict:
        """Every relation's rows: the reference's, and the ones the core serves from."""
        federated = isinstance(self.core, ShardRouter)
        held = self.core._gather(self.relations) if federated else self.reference
        return {
            name: (set(self.reference.relation(name).rows), set(held.relation(name).rows))
            for name in self.relations
        }

    def predict(self, updates) -> tuple[set[str], bool]:
        """The relations ``updates`` change on a copy of the reference, and
        whether the copy then violates the access schema."""
        copy = Database(self.reference.schema)
        for name in self.relations:
            copy.insert_many(name, self.reference.relation(name).rows)
        touched = {
            update.relation
            for update in updates
            if (copy.insert if update.kind == "insert" else copy.delete)(
                update.relation, update.row
            )
        }
        return touched, bool(copy.violations(self.core.access_schema))

    def write(self, updates) -> list[str]:
        """Apply ``updates``; returns the verdicts of the entries it reached."""
        before = self.entries()
        touched, violating = self.predict(updates)
        if violating:
            return self.rejected(updates, before, touched)
        held = {key: (entry.rows, entry.env) for key, entry in before.items()}
        predictions = {
            key: _Prediction(entry, updates, self.reference, self.refine)
            for key, entry in before.items()
        }
        self.settled, self.derived = {}, {}
        report = self.core.apply_updates(updates)
        settled = report.applied_updates
        after = self.entries()
        reached = []
        for key, entry in before.items():
            expected = predictions[key].verdict(
                settled, report.touched_relations, self.reference
            )
            derived = self.derived.get(id(entry.plan))
            if expected is None:
                # not a candidate at all, or one the effective writes missed
                assert key not in self.settled
                assert after.get(key) is entry and derived is None
                continue
            reached.append(expected)
            if expected == "clean":
                # no verdict unless a key hit sent it to the deriver; either
                # way kept as it was, and served at the new marks
                assert self.settled.get(key) in (None, "clean")
                assert derived in (None, "clean")
                assert after.get(key) is entry
                assert entry.rows is held[key][0] and entry.env is held[key][1]
                snapshot = self.core._snapshot(entry.dependencies)
                assert self.core.result_cache.get(key, snapshot, record=False) is entry
                continue
            assert self.settled.get(key) == expected, (
                f"settled as {self.settled.get(key)}, the definition says {expected}"
            )
            assert derived == (None if expected == "no_env" else expected)
            assert (key in after) == (expected == "patched")
        self.check_entries()
        self.verdicts.extend(reached)
        return reached

    def rejected(self, updates, before: dict, touched: set[str]) -> list[str]:
        data = self.data()
        self.settled, self.derived = {}, {}
        with pytest.raises(ConstraintViolation):
            self.core.apply_updates(updates)
        assert self.data() == data
        # swept, both epochs having moved: every dependent goes as no_delta,
        # with no derivation
        swept = [key for key, entry in before.items() if touched.intersection(entry.dependencies)]
        assert (self.settled, self.derived) == (dict.fromkeys(swept, "no_delta"), {})
        after = self.entries()
        reached = []
        for key, entry in before.items():
            if key in swept:
                assert key not in after
                reached.append("rejected")
            else:
                assert after.get(key) is entry
        self.check_entries()
        self.verdicts.extend(reached)
        return reached

    def check_entries(self) -> None:
        """Every cached entry equals a fresh execution at the current epoch."""
        executor = self.core._deriver.executor
        for key, entry in self.entries().items():
            assert entry.rows == evaluate(self.queries[key], self.reference).rows
            if entry.env is not None:
                fresh = executor.execute(entry.plan, capture_env=True)
                assert entry.env == fresh.env and entry.rows == fresh.rows

    # -- schedule building blocks ------------------------------------------------
    def hot_rows(self, pick: int) -> tuple[str, list, tuple, list] | None:
        """A fetch some entry made: ``(base, lhs, a probed key, stored rows under it)``."""
        fetches = [
            fact
            for entry in self.entries().values()
            if entry.env is not None
            for fact in _fetch_facts(entry.plan, entry.env)
            if fact.probed
        ]
        if not fetches:
            return None
        fact = fetches[pick % len(fetches)]
        key = sorted(fact.probed, key=repr)[(pick // 7) % len(fact.probed)]
        rows = [
            row
            for row in self.reference.relation(fact.base)
            if _project(self.reference, fact.base, fact.lhs, row) == key
        ]
        return fact.base, fact.lhs, key, rows

    def hot_insert(self, pick: int) -> list[Update]:
        """A stored row of another group moved under a probed key."""
        hot = self.hot_rows(pick)
        stored = hot and self.reference.relation(hot[0]).rows
        if not stored:
            return []
        base, lhs, key, _ = hot
        row = list(stored[(pick // 3) % len(stored)])
        for position, value in zip(self.reference.schema[base].positions(lhs), key):
            row[position] = value
        return [Update.insert(base, tuple(row))]

    def hot_delete(self, pick: int) -> list[Update]:
        hot = self.hot_rows(pick)
        if not hot or not hot[3]:
            return self.hot_insert(pick)
        return [Update.delete(hot[0], hot[3][(pick // 3) % len(hot[3])])]

    def delete_reinsert(self, pick: int) -> list[Update]:
        (delete,) = self.hot_delete(pick) or [None]
        if delete is None or delete.kind != "delete":
            return []
        return [delete, Update.insert(delete.relation, delete.row)]

    def cold(self, pick: int) -> list[Update]:
        relation = self.relations[pick % len(self.relations)]
        stored = self.reference.relation(relation).rows
        if not stored:
            return []
        victim = stored[(pick // 5) % len(stored)]
        if pick % 2:
            return [Update.delete(relation, victim)]
        donor = stored[(pick // 11) % len(stored)]
        return [Update.insert(relation, victim[:1] + donor[1:])]

    def evict_compiled(self) -> None:
        """Release every cached entry's compiled plan, as a store eviction would."""
        for entry in self.entries().values():
            if entry.plan is not None:
                self.core._executor.discard(entry.plan)
                self.core._deriver.executor.discard(entry.plan)

    def sweep_and_reprepare(self) -> list:
        """Evict every plan from the store, as LRU displacement would, and
        prepare every query again: equal plans, new objects."""
        old = [self.core.prepare(query)[0].executable for query in self.queries.values()]
        store = self.core.plan_cache
        for filler in range(store.capacity):
            self.core._discard_compiled(store.put(("filler", filler), None))
        new = [self.core.prepare(query)[0].executable for query in self.queries.values()]
        assert all(a is not b for a, b in zip(old, new))
        self.read()
        return new


def _engine_settlements(database, access, queries) -> _Settlements:
    engine = BoundedEngine(database, access)
    return _Settlements(engine, database, queries, refine=True)


@contextmanager
def _router_settlements(database, access, queries, shards=3):
    reference = database

    def mirror(updates):
        for update in updates:
            instance = reference.relation(update.relation)
            (instance.insert if update.kind == "insert" else instance.delete)(update.row)

    router = build_topology(database, access, shards=shards, write_observer=mirror)
    try:
        yield _Settlements(router, reference, queries, refine=False)
    finally:
        for shard in router.shards:
            if isinstance(shard, SQLiteShard):
                shard.close()


def _random_queries(name: str, seed: int):
    if name == "facebook":
        database = facebook.generate(scale=15, seed=seed)
        access = facebook.access_schema(database.schema)
        queries = [facebook.query_q1(), facebook.query_q0(), facebook.query_friends_of_friends()]
        return database, access, queries
    spec = WORKLOADS[name]
    database = spec.database(scale=20, seed=seed)
    queries = select_covered_queries(
        spec, 5, seed=seed, database=database, n_sel=(1, 4), n_join=(0, 2)
    )
    return database, spec.access_schema, queries


HOT_INSERT, HOT_DELETE, DELETE_REINSERT, COLD, MIXED, EVICT, SWEEP, REFILL = range(8)

schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=REFILL), st.integers(0, 10**6)),
    min_size=4,
    max_size=12,
)


def _run_schedule(settlements: _Settlements, schedule) -> None:
    batches = {
        HOT_INSERT: settlements.hot_insert,
        HOT_DELETE: settlements.hot_delete,
        DELETE_REINSERT: settlements.delete_reinsert,
        COLD: settlements.cold,
        MIXED: lambda pick: settlements.hot_insert(pick)
        + settlements.cold(pick // 13)
        + settlements.hot_delete(pick // 17),
    }
    for op, pick in schedule:
        if op == EVICT:
            settlements.evict_compiled()
        elif op == SWEEP:
            settlements.sweep_and_reprepare()
        elif op == REFILL:
            settlements.read()
        else:
            updates = batches[op](pick)
            if updates:
                settlements.write(updates)
    settlements.read()


class TestSettlementAgainstTheDefinition:
    """Compiled settlement ≡ the from-the-definitions oracle, entry by entry."""

    @given(
        st.sampled_from(["facebook", "AIRCA", "TFACC", "MCBM"]),
        st.integers(min_value=0, max_value=30),
        st.booleans(),
        schedules,
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_engine_verdicts_and_rows(self, name, seed, tiny_memo, schedule):
        database, access, queries = _random_queries(name, seed)
        # A two-plan kernel memo evicts compiled plans (and the repair programs
        # kept on them) between the derivations of a single batch.
        with patch.object(
            executor_module, "_COMPILED_CACHE_SIZE", 2 if tiny_memo else 64
        ):
            _run_schedule(_engine_settlements(database, access, queries), schedule)

    @given(
        st.sampled_from(["facebook", "TFACC"]),
        st.integers(min_value=0, max_value=30),
        schedules,
    )
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_three_shard_router_verdicts_and_rows(self, name, seed, schedule):
        database, access, queries = _random_queries(name, seed)
        with _router_settlements(
            database, access, queries
        ) as settlements:
            _run_schedule(settlements, schedule)

    @pytest.mark.parametrize("substrate", ["engine", "router-3"])
    def test_the_named_schedule(self, substrate):
        """Every transition the compiled path must survive, in one fixed schedule."""
        database = facebook.generate(scale=15, seed=3)
        access = facebook.access_schema(database.schema)
        queries = [facebook.query_q1()]
        with ExitStack() as stack:
            if substrate == "engine":
                settlements = _engine_settlements(database, access, queries)
            else:
                settlements = stack.enter_context(
                    _router_settlements(database, access, queries)
                )
            (entry,) = settlements.entries().values()
            friend = Update.insert("friend", ("p0", "p_new"))
            # patched, then patched again: the second derivation must read the
            # keys of the *patched* environment (p_new is probed only there)
            assert settlements.write([friend]) == ["patched"]
            kept = dict(entry.keyed)  # the patched entry stays indexed
            dine = Update.insert("dine", ("p_new", "c_new", "may", 2015))
            assert settlements.write([dine]) == ["patched"]
            # that patch recomputed what the cafe fetch probes (the dine fetch's
            # cids), and nothing the friend or dine fetch probes
            (cafe,) = [
                step.id
                for step in entry.plan.fetch_steps()
                if entry.plan.base_relation(step.op.constraint) == "cafe"
            ]
            assert sorted(entry.keyed) == sorted(kept)
            assert [site for site in kept if entry.keyed[site] is not kept[site]] == [cafe]
            # a delete and its re-insert in one batch leave the group as it was
            expected = "clean" if settlements.refine else "patched"
            assert settlements.write([Update.delete(dine.relation, dine.row), dine]) == [expected]
            # LRU eviction / discard of the compiled plan between two batches
            settlements.evict_compiled()
            assert settlements.write([Update.delete("friend", ("p0", "p_new"))]) == ["patched"]
            # a plan evicted from the store is re-prepared as an equal plan,
            # a new object; the entry keeps the old one and still settles
            (plan,) = settlements.sweep_and_reprepare()
            assert entry.plan is not plan
            assert settlements.write([friend]) == ["patched"]
            # writes the entry never probed leave it as it is, unvisited
            assert settlements.write([Update.insert("friend", ("p_else", "p0"))]) == ["clean"]
            assert settlements.write([Update.insert("cafe", ("c_else", "nowhere"))]) == ["clean"]
            settlements.read()
            stats = settlements.core.cache_stats()["result_cache"]
            # one repair per batch that reached the entry
            assert stats["repair_fallbacks"] == 0 and stats["repaired"] == 5

    @pytest.mark.parametrize("substrate", ["engine", "router-3"])
    def test_two_sites_over_one_index_register_their_union(self, substrate):
        """The reach index holds what *either* fetch of a self-join probed.

        ``friend ⋈ friend`` fetches ψ1 at two sites, one per occurrence: under
        ``p0``, and under each of ``p0``'s friends.  An index that kept one site's keys per
        (relation, key positions) would re-stamp the entry over a write only
        the other site read — a ``patched`` entry judged ``clean``.
        """
        database = facebook.generate(scale=15, seed=3)
        access = facebook.access_schema(database.schema)
        queries = [facebook.query_friends_of_friends()]
        with ExitStack() as stack:
            if substrate == "engine":
                settlements = _engine_settlements(database, access, queries)
            else:
                settlements = stack.enter_context(
                    _router_settlements(database, access, queries)
                )
            (entry,) = settlements.entries().values()
            sites = [step.id for step in entry.plan.fetch_steps()]
            facts = _fetch_facts(entry.plan, entry.env)
            friend_of_p0 = min(fid for pid, fid in database.relation("friend") if pid == "p0")
            # the sites share one index and not their keys: each of the two keys
            # written below is probed by a site that does not probe the other
            assert {(fact.base, tuple(fact.lhs)) for fact in facts} == {("friend", ("pid",))}
            near = {site for site, fact in zip(sites, facts) if ("p0",) in fact.probed}
            far = {site for site, fact in zip(sites, facts) if (friend_of_p0,) in fact.probed}
            assert near and far and not near & far

            def insert(pid, fid):
                return settlements.write([Update.insert("friend", (pid, fid))])

            # no probed key: the first settlement indexes both sites
            assert insert("p_nobody", "p_x") == ["clean"]
            assert sorted(entry.keyed) == sites and len(entry.reach["friend"]) == len(sites)
            keyed = dict(entry.keyed)
            # a key only the far site probed: what either site probes stays
            assert insert(friend_of_p0, "p_far") == ["patched"]
            assert all(entry.keyed[site] is keyed[site] for site in sites)
            assert insert("p_nobody", "p_y") == ["clean"]
            # a key only the near site probed: its friends are what the far
            # site probes, so that site alone is read off the patched environment
            assert insert("p0", "p_near") == ["patched"]
            assert [site for site in sites if entry.keyed[site] is not keyed[site]] == sorted(far)
            # ... and the far site now probes p_near
            assert insert("p_near", "p_z") == ["patched"]
            stats = settlements.core.cache_stats()["result_cache"]
            # (p_near had no friends yet: that patch changed no row and counts clean)
            # (the two misses were not visited at all)
            assert (stats["repaired"], stats["repaired_clean"]) == (3, 1)
            assert stats["repair_fallbacks"] == 0
