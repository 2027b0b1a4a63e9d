"""One contract for every substrate of the serving core.

:class:`~repro.core.engine.BoundedEngine` and
:class:`~repro.sharding.router.ShardRouter` run the same
:class:`~repro.core.engine.ServingCore` pipeline (prepare → probe → execute →
validate → settle) and differ only in how a fetch is answered and what a
snapshot is.  Every test here runs unchanged over one engine, a one-shard
memory federation, a one-shard SQLite federation and a three-shard
memory/SQLite/memory federation, against the reference evaluator on a single
database the federations mirror their writes into — the same inputs through
independent paths, compared.
"""

import sqlite3

import pytest
from substrates import Substrate

from repro.core import engine as engine_module
from repro.core.engine import BoundedEngine
from repro.core.errors import (
    CircuitOpenError,
    ConstraintViolation,
    MaintenanceError,
    NotCoveredError,
    TransientFault,
)
from repro.core.query import Relation, eq
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor
from repro.sharding import SQLiteShard
from repro.workloads import facebook

#: the four substrates every contract below runs over (built in ``substrates.py``)
SUBSTRATES = ("engine", "router-1-memory", "router-1-sqlite", "router-3-mixed")


@pytest.fixture(params=list(SUBSTRATES))
def make(request):
    """``make(database, access)`` for this substrate; closed on exit."""
    made: list[Substrate] = []

    def build(database, access) -> Substrate:
        made.append(Substrate(request.param, database, access))
        return made[-1]

    yield build
    for substrate in made:
        substrate.close()


@pytest.fixture
def hot(make, hot_cold_setup):
    """The hot/cold database: ``query`` reads ``hot`` where ``k = 'a'`` only."""
    database, access, query = hot_cold_setup
    substrate = make(database, access)
    substrate.query = query
    return substrate


def moved(before: dict, after: dict) -> dict:
    """The result-cache counters that changed between two ``stats()`` readings."""
    return {
        name: after[name] - before[name] if isinstance(after[name], int) else after[name]
        for name in after
        if after[name] != before[name] and name != "hit_rate"
    }


def recording_settlements(core) -> list:
    """The verdict maps of ``core``'s settlements from now on, in order."""
    settle, verdicts = core._settle, []
    core._settle = lambda *args: verdicts.append(settle(*args)) or verdicts[-1]
    return verdicts


class TestReads:
    def test_wide_plan_runs_on_row_kernels_within_its_bound(self, make):
        database = facebook.generate(scale=30, seed=5)
        access = facebook.access_schema(database.schema)
        core = make(database, access).core
        query = facebook.query_q1()
        plan = core.prepare(query).executable
        bound = plan.access_bound()
        assert bound >= 4000  # wide: the layered benchmark's point plans stay under 1 000
        result = core.execute(query)
        assert result.rows == evaluate(query, database).rows
        assert 0 < result.counter.fetched <= bound
        # the kernels' row sets are what the entry keeps for settlement to patch
        (entry,) = [entry for _, entry in core.result_cache.entries_for(("friend",))]
        assert len(entry.env) == len(plan.steps)
        assert entry.env[plan.output] == result.rows
        # and so does the access, while one fragment holds every index group
        # whole (a projected tuple witnessed on two shards is counted by both)
        if len(getattr(core, "shards", ())) <= 1:
            # (the shards own fragment copies: ``database`` is still whole)
            single = BoundedEngine(database, access)
            assert result.counter.fetched == single.execute(query).counter.fetched

    def test_one_executor_lowers_a_plan_once_for_reads_and_settlement(
        self, hot, monkeypatch
    ):
        lowered = []
        lower = PlanExecutor._compile

        def counting(executor, plan):
            lowered.append(executor)
            return lower(executor, plan)

        monkeypatch.setattr(PlanExecutor, "_compile", counting)
        hot.core.execute(hot.query)
        hot.core.apply_updates([Update.insert("hot", ("a", 4))])  # re-runs kernels
        assert hot.result_cache()["rows_patched"] == 1
        assert hot.core.execute(hot.query).result_cached
        assert lowered == [hot.core._executor]
        assert hot.core._deriver.executor is hot.core._executor

    def test_uncovered_query_falls_back_to_conventional_evaluation(self, make):
        database = facebook.generate(scale=30, seed=5)
        substrate = make(database, facebook.access_schema(database.schema))
        query = facebook.query_q2()
        result = substrate.core.execute(query)
        assert result.strategy == "conventional"
        assert result.rows == evaluate(query, database).rows
        assert not result.result_cached
        assert result.plan is None and not result.coverage.is_covered
        with pytest.raises(NotCoveredError):
            substrate.core.execute(query, fallback=False)


class TestProbe:
    """``probe`` is the first half of ``execute``: the hit, or ``None`` — and one read is one count."""

    @staticmethod
    def lookups(core) -> tuple[int, int]:
        """Counted lookups (hits + misses) of the plan store and of the result cache."""
        stats = core.cache_stats()
        return tuple(
            stats[cache]["hits"] + stats[cache]["misses"]
            for cache in ("plan_store", "result_cache")
        )

    def test_plan_store_miss_is_none_and_prepares_nothing(self, hot, monkeypatch):
        monkeypatch.setattr(
            engine_module, "prepare_query", lambda *args, **kwargs: pytest.fail("prepared")
        )
        assert hot.core.probe(hot.query) is None
        assert len(hot.core.plan_cache) == 0
        assert self.lookups(hot.core) == (0, 0)  # the execute that follows counts the read

    def test_hit_is_the_result_execute_returns(self, hot):
        executed = hot.core.execute(hot.query)
        assert self.lookups(hot.core) == (1, 1)
        hit = hot.core.probe(hot.query)
        again = hot.core.execute(hot.query)
        assert self.lookups(hot.core) == (3, 3)  # one each, probed or executed
        assert (hit.rows, hit.columns) == (executed.rows, executed.columns)
        assert hit.rows == evaluate(hot.query, hot.reference).rows
        assert (hit.cached, hit.result_cached) == (True, True)
        assert hit.counter.total == 0
        for field in ("rows", "columns", "strategy", "plan", "coverage", "rewrite", "cached"):
            assert getattr(hit, field) == getattr(again, field), field

    def test_uncovered_query_is_none(self, hot):
        relation = Relation.from_schema(hot.reference.schema, "hot")
        uncovered = relation.select(eq(relation["v"], 1)).project([relation["k"]])
        assert hot.core.execute(uncovered).strategy == "conventional"
        before = self.lookups(hot.core)
        assert hot.core.probe(uncovered) is None  # the verdict is stored; there is no result to hit
        assert self.lookups(hot.core) == before

    def test_moved_dependency_is_none_and_the_read_still_counts_once(self, hot):
        hot.core.execute(hot.query)
        hot.insert_out_of_band("hot", ("a", 8))
        before, lookups = hot.result_cache(), self.lookups(hot.core)
        assert hot.core.probe(hot.query) is None  # hot stands past its settlement mark
        assert moved(before, hot.result_cache()) == {"entries": -1, "stale": 1}
        assert self.lookups(hot.core) == lookups
        result = hot.core.execute(hot.query)
        assert not result.result_cached
        assert (8,) in result.rows and result.rows == evaluate(hot.query, hot.reference).rows
        assert self.lookups(hot.core) == (lookups[0] + 1, lookups[1] + 1)
        assert hot.core.probe(hot.query).rows == result.rows


class TestWriteSettlement:
    """``cache_stats()["result_cache"]`` moves the same way on every substrate."""

    def test_unrelated_write_leaves_the_entry_alone(self, hot):
        first = hot.core.execute(hot.query)
        before = hot.result_cache()
        hot.core.apply_updates([Update.insert("cold", ("y", 7))])
        hot.core.apply_updates([Update.delete("cold", ("x", 9))])
        assert moved(before, hot.result_cache()) == {}
        repeat = hot.core.execute(hot.query)
        assert repeat.result_cached
        assert repeat.rows == first.rows == evaluate(hot.query, hot.reference).rows

    def test_write_missing_every_probed_key_restamps(self, hot):
        # Nothing the write reached: the entry is indexed — the first
        # settlement after its fill enters the one key it probed — and then
        # not looked at again; the relation's mark moves past it.
        first = hot.core.execute(hot.query)
        before = hot.result_cache()
        hot.core.apply_updates([Update.insert("hot", ("b", 4))])
        assert moved(before, hot.result_cache()) == {"reach_keys": 1, "reach_entries": 1}
        repeat = hot.core.execute(hot.query)
        assert repeat.result_cached and repeat.rows == first.rows
        assert hot.core.cache_stats()["plan_store"]["misses"] == 1

    def test_write_to_a_probed_key_patches_rows(self, hot):
        hot.core.execute(hot.query)
        before = hot.result_cache()
        hot.core.apply_updates([Update.insert("hot", ("a", 4))])
        hot.core.apply_updates([Update.delete("hot", ("a", 2))])
        # the first settlement indexes the one key the entry probed, and the
        # patches keep it: the fetch's key comes from a constant, not from rows
        # a patch could change
        assert moved(before, hot.result_cache()) == {
            "repaired": 2,
            "rows_patched": 2,
            "reach_keys": 1,
            "reach_entries": 1,
        }
        result = hot.core.execute(hot.query)
        assert result.result_cached  # patched in place, not dropped
        assert hot.core.cache_stats()["plan_store"]["misses"] == 1
        assert result.rows == {(1,), (4,)} == evaluate(hot.query, hot.reference).rows

    def test_wide_entry_restamps_when_clean_and_is_patched_when_dirty(self, make):
        # q1's plan is wide (its bound is over 4 000); its entry is settled
        # like a point plan's: kept unread when the write misses its probed
        # keys, patched from its captured environment when it reaches one.
        database = facebook.generate(scale=30, seed=5)
        substrate = make(database, facebook.access_schema(database.schema))
        core, query = substrate.core, facebook.query_q1()
        assert core.prepare(query).executable.access_bound() >= 4000
        core.execute(query)
        verdicts = recording_settlements(core)
        before = substrate.result_cache()
        core.apply_updates([Update.insert("friend", ("p_nobody", "p0"))])
        changed = moved(before, substrate.result_cache())
        assert changed.pop("reach_keys") > 0 and changed.pop("reach_entries") == 1
        assert changed == {} and verdicts == [{}]  # unreached: not looked at
        assert core.execute(query).result_cached
        # a friend of p0 who dines at a cafe in q1's city, in q1's month
        core.apply_updates(
            [
                Update.insert("cafe", ("c_new", "nyc")),
                Update.insert("dine", ("p_new", "c_new", "may", 2015)),
            ]
        )
        before = substrate.result_cache()
        core.apply_updates([Update.insert("friend", ("p0", "p_new"))])
        assert list(verdicts[-1].values()) == ["patched"]
        changed = moved(before, substrate.result_cache())
        assert (changed["repaired"], changed["rows_patched"]) == (1, 1)
        assert "invalidated" not in changed and "repair_fallbacks" not in changed
        result = core.execute(query)
        assert result.result_cached
        assert ("c_new",) in result.rows
        assert result.rows == evaluate(query, substrate.reference).rows

    def test_dropped_entry_keeps_its_plan(self, hot, monkeypatch):
        # Nothing sweeps the plan store: a write that drops one result entry
        # (here one cached without an environment) leaves the prepared plan
        # to the next read.
        monkeypatch.setattr(engine_module, "ENV_ROWS_BUDGET", 0)
        hot.core.execute(hot.query)
        before = hot.result_cache()
        hot.core.apply_updates([Update.insert("hot", ("a", 4))])
        changed = moved(before, hot.result_cache())
        assert changed["repair_fallback_reasons"] == {"no_env": 1}
        assert (changed["invalidated"], changed["entries"]) == (1, -1)
        result = hot.core.execute(hot.query)
        assert (result.cached, result.result_cached) == (True, False)
        assert hot.core.cache_stats()["plan_store"]["misses"] == 1
        assert (4,) in result.rows
        assert result.rows == evaluate(hot.query, hot.reference).rows

    def test_entry_outdated_before_the_batch_is_dropped_as_stale(self, hot):
        # A write that bypasses the core moves an epoch without a derivation;
        # repairing at the next batch would patch over the unseen write.
        hot.core.execute(hot.query)
        hot.insert_out_of_band("hot", ("a", 8))
        before = hot.result_cache()
        hot.core.apply_updates([Update.insert("hot", ("a", 9))])
        assert moved(before, hot.result_cache()) == {
            "entries": -1,
            "invalidated": 1,
            "repair_fallbacks": 1,
            "repair_fallback_reasons": {"stale": 1},
            "invalidated_by": {"hot": 1},
        }
        result = hot.core.execute(hot.query)
        assert not result.result_cached
        assert result.rows == evaluate(hot.query, hot.reference).rows
        assert {(8,), (9,)} <= result.rows

    def test_entry_without_environment_is_dropped_as_no_env(self, hot, monkeypatch):
        # An execution over the budget is cached, but captures nothing to patch.
        monkeypatch.setattr(engine_module, "ENV_ROWS_BUDGET", 0)
        hot.core.execute(hot.query)
        (entry,) = [entry for _, entry in hot.core.result_cache.entries_for(("hot",))]
        assert entry.env is None and entry.plan is None
        before = hot.result_cache()
        hot.core.apply_updates([Update.insert("hot", ("a", 4))])
        changed = moved(before, hot.result_cache())
        assert changed["repair_fallback_reasons"] == {"no_env": 1}
        assert (changed["invalidated"], changed["entries"]) == (1, -1)
        result = hot.core.execute(hot.query)
        assert not result.result_cached
        assert result.rows == evaluate(hot.query, hot.reference).rows

    def test_batch_failed_part_way_sweeps_and_never_repairs(self, hot):
        rows = hot.core.execute(hot.query).rows
        assert hot.core.execute(hot.query).result_cached
        before = hot.result_cache()
        batch = [Update.delete("hot", ("a", 1)), Update.delete("hot", ("a", 2))]
        with hot.second_update_fails(batch):
            with pytest.raises(MaintenanceError) as failure:
                hot.core.apply_updates(batch)
        report = failure.value.report
        assert report.failed and report.applied == 1
        assert report.touched_relations == {"hot"}
        # one database has one data version; a federation has an epoch per shard
        assert report.version == (None if hot.federated else hot.reference.version)
        assert moved(before, hot.result_cache()) == {
            "entries": -1,
            "invalidated": 1,
            "repair_fallbacks": 1,
            "repair_fallback_reasons": {"no_delta": 1},
            "invalidated_by": {"hot": 1},
        }
        result = hot.core.execute(hot.query)
        assert not result.result_cached, "a partial batch must sweep the result cache"
        assert result.cached  # the plan is a function of (Q, A): it stays
        assert hot.core.cache_stats()["plan_store"]["misses"] == 1
        assert result.rows == rows - {(1,)} == evaluate(hot.query, hot.reference).rows

    def test_settlement_derives_from_the_effective_writes(self, hot):
        # One effective insert off the probed key, one duplicate on it: the
        # batch reached nothing the entry read, on any substrate — no verdict,
        # and the entry is served as it was.
        hot.core.execute(hot.query)
        verdicts = recording_settlements(hot.core)
        report = hot.core.apply_updates(
            [Update.insert("hot", ("b", 9)), Update.insert("hot", ("a", 1))]
        )
        assert (report.applied, report.skipped) == (1, 1)
        assert report.applied_updates == [Update.insert("hot", ("b", 9))]
        assert verdicts == [{}]
        repeat = hot.core.execute(hot.query)
        assert repeat.result_cached
        assert repeat.rows == evaluate(hot.query, hot.reference).rows


class TestWhatTheMarksCarry:
    """What per-entry stamps guaranteed, held by per-relation settlement marks."""

    def test_an_out_of_band_write_is_never_served_and_the_next_write_sweeps(self, hot):
        relation = Relation.from_schema(hot.reference.schema, "hot")
        other = relation.select(eq(relation["k"], "b")).project([relation["v"]])
        for query in (hot.query, other):
            hot.core.execute(query)
        hot.insert_out_of_band("hot", ("b", 8))
        verdicts = recording_settlements(hot.core)
        # a write that reaches neither entry's probed key: both were outdated
        # behind the core's back, so both are swept, not patched nor left
        hot.core.apply_updates([Update.insert("hot", ("z", 1))])
        assert sorted(verdicts[-1].values()) == ["stale", "stale"]
        assert hot.result_cache()["entries"] == 0
        for query in (hot.query, other):
            result = hot.core.execute(query)
            assert not result.result_cached
            assert result.rows == evaluate(query, hot.reference).rows
        assert (8,) in hot.core.execute(other).rows

    def test_a_second_core_over_the_same_data_serves_what_the_first_wrote(self, hot):
        first, second = hot.core, hot.second_core()
        for core in (first, second):
            assert core.execute(hot.query).rows == {(1,), (2,)}
            assert core.execute(hot.query).result_cached
        report = first.apply_updates([Update.insert("hot", ("a", 4))])
        hot.follow(second, report)
        assert first.execute(hot.query).result_cached  # patched by its own write
        result = second.execute(hot.query)
        assert not result.result_cached
        assert result.rows == {(1,), (2,), (4,)} == evaluate(hot.query, hot.reference).rows
        assert second.execute(hot.query).result_cached

    def test_a_write_racing_the_settlement_drops_what_it_would_patch(self, hot):
        hot.core.execute(hot.query)
        derive, raced = hot.core._deriver.derive, []

        def racing(*args, **kwargs):
            if not raced:
                raced.append(True)
                hot.insert_out_of_band("hot", ("a", 8))
            return derive(*args, **kwargs)

        hot.core._deriver.derive = racing
        verdicts = recording_settlements(hot.core)
        before = hot.result_cache()
        hot.core.apply_updates([Update.insert("hot", ("a", 4))])
        assert raced and list(verdicts[-1].values()) == ["race"]
        changed = moved(before, hot.result_cache())
        assert changed["repair_fallback_reasons"] == {"race": 1}
        assert "repaired" not in changed and changed["entries"] == -1
        result = hot.core.execute(hot.query)
        assert not result.result_cached
        assert result.rows == {(1,), (2,), (4,), (8,)} == evaluate(hot.query, hot.reference).rows


class TestFailedWrites:
    """Failures nobody injected: the one write loop's contract on every substrate."""

    @pytest.fixture
    def owned(self, hot):
        """``hot`` with a cached query over ``k = 'd'`` — rows the mixed
        federation keeps on its SQLite shard."""
        relation = Relation.from_schema(hot.reference.schema, "hot")
        hot.query = relation.select(eq(relation["k"], "d")).project([relation["v"]])
        hot.core.apply_updates([Update.insert("hot", ("d", 1)), Update.insert("hot", ("d", 2))])
        assert hot.core.execute(hot.query).rows == {(1,), (2,)}
        assert hot.core.execute(hot.query).result_cached
        if hot.federated and len(hot.core.shards) > 1:
            assert hot.owner(Update.insert("hot", ("d", 1))).kind == "sqlite"
        return hot

    def test_second_update_is_malformed(self, owned):
        batch = [Update.delete("hot", ("d", 1)), Update.insert("hot", ("d", 7, "extra"))]
        epoch = owned.epoch(batch[0])
        with pytest.raises(MaintenanceError) as failure:
            owned.core.apply_updates(batch)
        if owned.federated:
            owned._mirror(batch[:1])  # observers only see fully applied batches
        report = failure.value.report
        assert report.failed and (report.applied, report.failed_update) == (1, batch[1])
        assert report.applied_updates == batch[:1]
        assert "StorageError" in report.error
        assert owned.epoch(batch[0]) != epoch  # settled over the kept prefix
        result = owned.core.execute(owned.query)
        assert not result.result_cached
        assert result.rows == {(2,)} == evaluate(owned.query, owned.reference).rows

    def test_maintainer_that_lost_its_backend_refuses_the_row_on_both_sides(self, owned):
        update = Update.insert("hot", ("d", 5))
        shard = owned.owner(update) if owned.federated else None
        if not isinstance(shard, SQLiteShard):
            pytest.skip("no SQLite mirror behind this substrate")
        shard.backend.close()
        epoch = owned.epoch(update)
        with pytest.raises(MaintenanceError) as failure:
            owned.core.apply_updates([update])
        cause = failure.value  # the router's error, caused by the shard's, caused by …
        while cause.__cause__ is not None:
            cause = cause.__cause__
        assert isinstance(cause, sqlite3.ProgrammingError)
        assert failure.value.report.applied == 0
        # The mirror never took the row, so the fragment gave it back: both
        # sides and the clock still describe the data the cache was filled from.
        assert ("d", 5) not in shard.relation_rows("hot")
        assert owned.epoch(update) == epoch
        result = owned.core.execute(owned.query)  # a hit, and not a stale one
        assert result.rows == {(1,), (2,)} == evaluate(owned.query, owned.reference).rows


class TestAdmission:
    """D ⊨ A after every write: a batch is judged by the groups it ends with.

    ``cafe(cid → city, 1)`` (ψ4) is the one-city-per-cafe key; the query reads
    c0's city through it, with an access bound of 1.  A batch that leaves
    some group over its ``N`` is undone and rejected with
    :class:`ConstraintViolation`, whatever holds the data.
    """

    @pytest.fixture
    def cafe(self, make):
        database = facebook.generate(scale=40, seed=7)
        substrate = make(database, facebook.access_schema(database.schema))
        relation = Relation.from_schema(database.schema, "cafe")
        substrate.query = relation.select(eq(relation["cid"], "c0")).project([relation["city"]])
        ((substrate.city,),) = substrate.core.execute(substrate.query).rows
        assert substrate.core.execute(substrate.query).result_cached
        return substrate

    def served(self, substrate) -> frozenset:
        """A fresh read of c0's city: the reference's rows, fetched within the bound."""
        result = substrate.core.execute(substrate.query)
        assert not result.result_cached
        assert 0 < result.counter.total <= result.plan.access_bound() == 1
        assert result.rows == evaluate(substrate.query, substrate.reference).rows
        return result.rows

    def test_a_batch_that_overfills_a_group_is_undone_and_rejected(self, cafe):
        data, before = cafe.data(), cafe.result_cache()
        batch = [Update.insert("cafe", ("c0", "atlantis")), Update.insert("cafe", ("c0", "mu"))]
        with pytest.raises(ConstraintViolation) as rejected:
            cafe.core.apply_updates(batch)
        violation = rejected.value
        assert (violation.constraint.name, violation.value, violation.count) == ("psi4", ("c0",), 3)
        assert cafe.data() == data
        # both epochs moved (the batch, its undo): the dependents were swept, not patched
        changed = moved(before, cafe.result_cache())
        assert (changed["invalidated"], changed["entries"]) == (1, -1)
        assert changed["repair_fallback_reasons"] == {"no_delta": 1}
        assert "repaired" not in changed
        assert self.served(cafe) == {(cafe.city,)}
        # the data still satisfies A: a fresh engine builds its checked indexes on it
        BoundedEngine(cafe.reference, cafe.core.access_schema)

    def test_a_rejected_batch_leaves_the_plan_cached(self, cafe):
        misses = cafe.core.cache_stats()["plan_store"]["misses"]
        batch = [Update.insert("cafe", ("c0", "atlantis")), Update.insert("cafe", ("c0", "mu"))]
        with pytest.raises(ConstraintViolation):
            cafe.core.apply_updates(batch)
        result = cafe.core.execute(cafe.query)
        assert (result.cached, result.result_cached) == (True, False)
        assert cafe.core.cache_stats()["plan_store"]["misses"] == misses
        assert result.rows == {(cafe.city,)} == evaluate(cafe.query, cafe.reference).rows

    def test_a_failed_batch_whose_prefix_overfills_a_group_is_undone_too(self, cafe):
        data = cafe.data()
        batch = [Update.insert("cafe", ("c0", "atlantis")), Update.insert("cafe", ("c0", "x", "y"))]
        with pytest.raises(ConstraintViolation) as rejected:
            cafe.core.apply_updates(batch)
        assert isinstance(rejected.value.__context__, MaintenanceError)
        assert cafe.data() == data
        assert self.served(cafe) == {(cafe.city,)}

    def test_a_replace_inside_a_full_group_is_accepted(self, cafe):
        batch = [Update.delete("cafe", ("c0", cafe.city)), Update.insert("cafe", ("c0", "x"))]
        assert cafe.core.apply_updates(batch).applied == 2
        assert cafe.core.execute(cafe.query).rows == {("x",)}
        assert evaluate(cafe.query, cafe.reference).rows == {("x",)}

    def test_an_insert_the_batch_takes_back_out_is_judged_where_the_batch_ends(self, cafe):
        batch = [Update.insert("cafe", ("c0", "x")), Update.delete("cafe", ("c0", cafe.city))]
        assert cafe.core.apply_updates(batch).applied == 2
        assert cafe.core.execute(cafe.query).rows == {("x",)}
        assert evaluate(cafe.query, cafe.reference).rows == {("x",)}

    def test_a_group_spanning_shards_is_counted_whole(self):
        # Partitioned on city, c0's group spans shards: each fragment alone
        # stays within N = 1, so only the union shows the second city.
        database = facebook.generate(scale=40, seed=7)
        access = facebook.access_schema(database.schema)
        substrate = Substrate("router-3-mixed", database, access, partition_keys={"cafe": "city"})
        try:
            partitioner = substrate.core.partitioner
            relation = Relation.from_schema(database.schema, "cafe")
            substrate.query = relation.select(eq(relation["cid"], "c0")).project([relation["city"]])
            ((city,),) = evaluate(substrate.query, database).rows
            home = partitioner.shard_for_value(city)
            cities = (f"city{i}" for i in range(64))
            elsewhere = next(c for c in cities if partitioner.shard_for_value(c) != home)
            data = substrate.data()
            with pytest.raises(ConstraintViolation):
                substrate.core.apply_updates([Update.insert("cafe", ("c0", elsewhere))])
            assert substrate.data() == data
            psi4 = next(c for c in access if c.name == "psi4")
            groups = [len(shard.group_of(psi4, ("c0", city))) for shard in substrate.core.shards]
            assert sorted(groups) == [0, 0, 1]
            assert self.served(substrate) == {(city,)}
        finally:
            substrate.close()


class RecordingBreaker:
    def __init__(self, allowing: bool = True):
        self.allowing = allowing
        self.asked = self.successes = self.failures = 0

    def allow(self) -> bool:
        self.asked += 1
        return self.allowing

    def record_success(self) -> None:
        self.successes += 1

    def record_failure(self) -> None:
        self.failures += 1


class TestFallbackBreaker:
    @pytest.fixture
    def uncovered(self, hot):
        relation = Relation.from_schema(hot.reference.schema, "hot")
        query = relation.select(eq(relation["v"], 1)).project([relation["k"]])
        assert not hot.core.prepare(query).covered
        return query

    def test_every_fallback_outcome_is_reported(self, hot, uncovered):
        breaker = hot.core.fallback_breaker = RecordingBreaker()
        result = hot.core.execute(uncovered)
        assert result.strategy == "conventional"
        assert result.rows == {("a",)} == evaluate(uncovered, hot.reference).rows
        assert (breaker.asked, breaker.successes, breaker.failures) == (1, 1, 0)

        def broken(*args, **kwargs):
            raise TransientFault("conventional path down")

        hot.core._fallback_evaluator = broken
        with pytest.raises(TransientFault, match="conventional path down"):
            hot.core.execute(uncovered)
        assert (breaker.asked, breaker.successes, breaker.failures) == (2, 1, 1)

    def test_open_breaker_refuses_before_evaluating(self, hot, uncovered):
        breaker = hot.core.fallback_breaker = RecordingBreaker(allowing=False)
        hot.core._fallback_evaluator = lambda *args: pytest.fail("must not evaluate")
        with pytest.raises(CircuitOpenError, match="circuit breaker is open"):
            hot.core.execute(uncovered)
        assert (breaker.asked, breaker.successes, breaker.failures) == (1, 0, 0)
        # the breaker guards the unbounded path only
        assert hot.core.execute(hot.query).strategy == "bounded"
        with pytest.raises(NotCoveredError):
            hot.core.execute(uncovered, fallback=False)
        assert breaker.asked == 1


class TestWritesRacingReads:
    @staticmethod
    def race(core, writes):
        """After every plan execution, apply the next of ``writes`` (if any)."""
        original = core._executor.execute
        executions = []

        def racing(*args, **kwargs):
            execution = original(*args, **kwargs)
            executions.append(execution)
            update = next(writes, None)
            if update is not None:
                core.apply_updates([update])
            return execution

        core._executor.execute = racing
        return executions

    def test_one_racing_write_reruns_and_serves_the_new_epoch(self, hot):
        executions = self.race(hot.core, iter([Update.delete("hot", ("a", 2))]))
        result = hot.core.execute(hot.query)
        # The first attempt's rows predate the write: discarded, never served
        # and never admitted to the cache.
        assert len(executions) == 2
        assert result.rows == {(1,)} == evaluate(hot.query, hot.reference).rows
        assert hot.core.execute(hot.query).result_cached
        assert len(executions) == 2

    def test_persistent_race_is_abandoned_with_a_typed_fault(self, hot):
        def toggling():
            while True:
                yield Update.delete("hot", ("b", 3))
                yield Update.insert("hot", ("b", 3))

        executions = self.race(hot.core, toggling())
        with pytest.raises(TransientFault, match="epochs kept moving"):
            hot.core.execute(hot.query)
        assert len(executions) == hot.core.max_snapshot_retries + 1 == 3
        assert hot.result_cache()["entries"] == 0
