"""Federated scatter/gather: row identity, epoch guards, routing, serving.

Every test compares the federation against a single-database reference: the
input database is left behind by :func:`~repro.sharding.router.build_topology`
(the shards own disjoint fragment copies) and, where the tests write, a
``write_observer`` mirrors every fully-applied routed batch back into it — so
``evaluate(query, database)`` is always the truth the router must match.

The contract the router shares with the single engine (result fields,
settlement transitions, fallback breaker, racing writes) lives in
``tests/core/test_serving_core.py``; this file keeps what only a federation
has: routing and cross-shard partial failures.
"""

import asyncio

import pytest
from substrates import Substrate
from substrates import mirrored_federation as mirrored_topology

from repro.core.errors import MaintenanceError, StorageError, TransientFault
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.serving.server import BoundedServer, ReadRequest, WriteRequest
from repro.serving.soak import SoakConfig, run_soak
from repro.sharding import EngineShard, Partitioner, ShardRouter, build_topology
from repro.storage.database import Database
from repro.workloads import facebook


def covered_queries():
    # q0 is uncovered as written but has a covered rewriting (q0'); the
    # router must serve it bounded, like the engine does.
    return [facebook.query_q1(), facebook.query_q0_prime(), facebook.query_q0()]


class TestFederatedReads:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_rows_identical_to_single_database_reference(self, shards):
        router, database = mirrored_topology(shards=shards)
        for query in covered_queries():
            result = router.execute(query)
            assert result.strategy == "bounded"
            assert result.rows == evaluate(query, database).rows

    def test_heterogeneous_shards_both_serve_fetches(self):
        router, database = mirrored_topology(shards=2)
        assert [shard.kind for shard in router.shards] == ["memory", "sqlite"]
        for query in covered_queries():
            assert router.execute(query).rows == evaluate(query, database).rows
        fetched = set(router.metrics.latency.snapshot())
        # One federated plan executed fetch steps on both backends.
        assert fetched == {"shard:shard0-memory", "shard:shard1-sqlite"}
        assert router.metrics.scatters > 0
        assert router.metrics.merges == router.metrics.scatters

    def test_empty_shard_contributes_nothing_and_breaks_nothing(self):
        # Only the rows the partitioner sends to shard 0: shard 1 is empty
        # by construction.
        full = facebook.generate(scale=30, seed=5)
        partitioner = Partitioner(full.schema, 2)
        database = Database(full.schema)
        for name in full.relation_names():
            rows = [row for row in full.relation(name) if partitioner.shard_for_row(name, row) == 0]
            database.insert_many(name, rows)
        assert 0 < database.size < full.size
        router = Substrate({"shards": 2}, database, facebook.access_schema(full.schema)).core
        assert router.shards[0].database.size == database.size
        assert router.shards[1].database.size == 0
        # q1 for a person of shard 0, whose answer has rows there
        answered = 0
        for query in covered_queries() + [facebook.query_q1("p1", "may", 2013, "austin")]:
            rows = router.execute(query).rows
            assert rows == evaluate(query, database).rows
            answered += bool(rows)
        assert answered

    def test_select_on_a_fetch_runs_centrally(
        self, fb_access
    ):
        from repro.core.plan import ColumnPredicate, ConstOp, FetchOp, PlanBuilder, SelectOp
        from repro.evaluator.executor import execute_plan
        from repro.storage.index import IndexSet

        router, database = mirrored_topology(shards=3)
        psi1 = next(c for c in fb_access if c.name == "psi1")
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t0,)),
            ["friend.fid", "friend.pid"],
        )
        fid = sorted(database.relation("friend").rows)[0][1]
        t2 = builder.add(
            SelectOp(
                predicates=(ColumnPredicate("friend.fid", "=", fid),), inputs=(t1,)
            ),
            ["friend.fid", "friend.pid"],
        )
        plan = builder.build(t2)
        federated = router._executor.execute(plan)
        reference = execute_plan(plan, IndexSet.build(database, fb_access, check=False))
        assert federated.rows == reference.rows
        # the whole index group crossed the shard boundary: shards only fetch
        assert router.metrics.merge_rows == reference.counter.fetched
        assert federated.counter.fetched == reference.counter.fetched

    def test_result_cache_round_trip_survives_routed_writes(self):
        router, database = mirrored_topology()
        query = facebook.query_q1()
        reference = evaluate(query, database).rows
        assert router.execute(query).rows == reference
        assert router.execute(query).result_cached

        victim = sorted(database.relation("friend").rows)[0]
        report = router.apply_updates([Update.delete("friend", victim)])
        assert report.applied == 1
        assert router.metrics.write_batches == 1

        result = router.execute(query)
        # The entry is patched in place and served directly.
        assert result.result_cached
        assert result.rows == evaluate(query, database).rows


def inject_racing_write(router, make_update):
    """Wrap every shard's fetch so the first N calls interleave a routed write."""

    for shard in router.shards:
        original = shard.fetch

        def racing(constraint, base, keys, counter=None, _original=original):
            partial = _original(constraint, base, keys, counter)
            update = make_update()
            if update is not None:
                router.apply_updates([update])
            return partial

        shard.fetch = racing


class TestWritesRacingReads:
    def test_snapshot_mismatch_retries_once_and_serves_the_new_epoch(self):
        router, database = mirrored_topology()
        victim = sorted(database.relation("friend").rows)[0]
        fired = []

        def one_delete():
            if fired:
                return None
            fired.append(True)
            return Update.delete("friend", victim)

        inject_racing_write(router, one_delete)
        query = facebook.query_q1()
        result = router.execute(query)
        # The racing write moved a dependency's epoch mid-merge: the first
        # attempt was discarded (one retry), the second ran clean, and the
        # served rows are the post-write reference — never a mixed-epoch mix
        # of pre- and post-delete partials.
        assert router.metrics.snapshot_retries == 1
        assert router.metrics.mixed_epoch_aborts == 0
        assert result.rows == evaluate(query, database).rows

    def test_persistent_race_aborts_with_a_typed_fault(self):
        router, database = mirrored_topology()
        victim = sorted(database.relation("cafe").rows)[0]
        state = {"delete": True}

        def toggle():
            kind = Update.delete if state["delete"] else Update.insert
            state["delete"] = not state["delete"]
            return kind("cafe", victim)

        inject_racing_write(router, toggle)
        with pytest.raises(TransientFault, match="epochs kept moving"):
            router.execute(facebook.query_q1())
        assert router.metrics.snapshot_retries == router.max_snapshot_retries + 1
        assert router.metrics.mixed_epoch_aborts == 1


def inject_racing_gather(router, make_update):
    """Wrap every shard's ``relation_rows`` so a conventional gather interleaves routed writes."""

    for shard in router.shards:
        original = shard.relation_rows

        def racing(name, _original=original):
            rows = _original(name)
            update = make_update()
            if update is not None:
                router.apply_updates([update])
            return rows

        shard.relation_rows = racing


class TestWritesRacingTheGather:
    """The conventional fallback gathers whole fragments under the same epoch guard."""

    def test_a_write_during_the_gather_retries_and_serves_the_new_epoch(self):
        router, database = mirrored_topology()
        query = facebook.query_q2()
        victim = next(row for row in sorted(database.relation("dine").rows) if row[0] == "p0")
        fired = []

        def one_delete():
            if fired:
                return None
            fired.append(True)
            return Update.delete("dine", victim)

        inject_racing_gather(router, one_delete)
        result = router.execute(query)
        assert result.strategy == "conventional"
        assert router.metrics.snapshot_retries == 1
        assert router.metrics.mixed_epoch_aborts == 0
        # the rows of the epoch after the delete, never a mix of the two
        assert victim not in database.relation("dine").rows
        assert result.rows == evaluate(query, database).rows

    def test_a_gather_whose_epochs_keep_moving_is_abandoned_with_a_typed_fault(self):
        router, database = mirrored_topology()
        victim = sorted(database.relation("dine").rows)[0]
        state = {"delete": True}

        def toggle():
            kind = Update.delete if state["delete"] else Update.insert
            state["delete"] = not state["delete"]
            return kind("dine", victim)

        inject_racing_gather(router, toggle)
        with pytest.raises(TransientFault, match="federated gather abandoned"):
            router.execute(facebook.query_q2())
        assert router.metrics.snapshot_retries == router.max_snapshot_retries + 1
        assert router.metrics.mixed_epoch_aborts == 1


class TestRoutedWrites:
    def test_partial_shard_failure_surfaces_a_merged_report(self):
        router, database = mirrored_topology(shards=2)
        by_shard = {0: None, 1: None}
        for row in sorted(database.relation("friend").rows):
            owner = router.partitioner.shard_for_row("friend", row)
            if by_shard[owner] is None:
                by_shard[owner] = row
        assert None not in by_shard.values(), "need a victim row on each shard"

        def broken(updates):
            raise MaintenanceError("injected shard failure")

        router.shards[1].apply_updates = broken
        batch = [
            Update.delete("friend", by_shard[0]),
            Update.delete("friend", by_shard[1]),
        ]
        shard0_version = router.shards[0].database.version
        settled, settle = [], router._settle
        router._settle = lambda *args: settled.append(args) or settle(*args)
        with pytest.raises(MaintenanceError, match="injected shard failure") as info:
            router.apply_updates(batch)
        # Shard 0's portion stays applied and is accounted for; the router
        # still settled its result cache (with no delta: a sweep) over what
        # actually changed.  Shard 0's portion bumped the shared clock once.
        assert info.value.report.applied == 1
        assert info.value.report.failed
        assert info.value.report.version is None
        assert settled == [(["friend"], None, None)]
        assert router.shards[0].database.version == shard0_version + 1


class TestDeltaRepairOverFederation:
    """Routed writes repair the router-level cache; anything racing drops it."""

    def test_routed_batch_patches_cached_federated_result(self):
        router, database = mirrored_topology()
        query = facebook.query_q1()
        router.execute(query)
        assert router.execute(query).result_cached
        report = router.apply_updates(
            [
                Update.insert("cafe", ("c_fed", "nyc")),
                Update.insert("friend", ("p0", "p_fed")),
                Update.insert("dine", ("p_fed", "c_fed", "may", 2015)),
            ]
        )
        assert report.applied == 3
        stats = router.cache_stats()["result_cache"]
        assert stats["repaired"] == 1  # one derivation pass for the batch
        assert stats["repair_fallbacks"] == 0
        result = router.execute(query)
        assert result.result_cached
        assert router.cache_stats()["plan_store"]["misses"] == 1
        assert ("c_fed",) in result.rows
        assert result.rows == evaluate(query, database).rows

    def test_a_direct_shard_write_makes_the_cached_entry_stale(self):
        # No routed batch, no settlement: the owning shards write their
        # fragments themselves.  Every fragment stamps the one shared clock,
        # so the next read sees its dependencies moved past their marks,
        # drops the entry and serves the new rows.
        router, database = mirrored_topology()
        query = facebook.query_q1()
        router.execute(query)
        assert router.execute(query).result_cached
        batch = [
            Update.insert("cafe", ("c_fed", "nyc")),
            Update.insert("friend", ("p0", "p_fed")),
            Update.insert("dine", ("p_fed", "c_fed", "may", 2015)),
        ]
        owners = [router.partitioner.shard_for_row(u.relation, u.row) for u in batch]
        assert set(owners) - {0}  # not only the first shard's fragment moves
        for update, owner in zip(batch, owners):
            assert router.shards[owner].apply_updates([update]).applied == 1
            database.insert(update.relation, update.row)
        result = router.execute(query)
        assert not result.result_cached
        assert router.cache_stats()["result_cache"]["stale"] == 1
        assert ("c_fed",) in result.rows
        assert result.rows == evaluate(query, database).rows
        assert router.execute(query).result_cached  # refilled at the new epoch

    def test_write_racing_the_derivation_is_never_served(self):
        # The narrower window: a shard write landing *while* the deriver
        # re-scatters dirty fetches could let the patch merge mixed epochs.
        # It lands on cafe, which the batch did not touch: the entry is
        # patched for friend, but cafe keeps its old settlement mark, so the
        # patched entry is never served — the next read drops it and
        # re-executes.  (A race on a relation the batch touched drops the
        # entry at once: ``TestWhatTheMarksCarry`` in test_serving_core.py.)
        router, database = mirrored_topology()
        query = facebook.query_q1()
        router.execute(query)
        side = Update.insert("cafe", ("c_race", "nyc"))
        side_owner = router.partitioner.shard_for_row("cafe", side.row)
        fired = []

        for shard in router.shards:
            original = shard.fetch

            def racing(constraint, base, keys, counter=None, _original=original):
                partial = _original(constraint, base, keys, counter)
                if not fired:
                    fired.append(True)
                    router.shards[side_owner].apply_updates([side])
                    database.insert("cafe", side.row)
                return partial

            shard.fetch = racing

        router.apply_updates([Update.insert("friend", ("p0", "p_mid"))])
        stats = router.cache_stats()["result_cache"]
        assert fired, "the derivation must have scattered at least one fetch"
        assert (stats["repaired"], stats["repair_fallbacks"]) == (1, 0)
        result = router.execute(query)
        assert not result.result_cached
        assert router.cache_stats()["result_cache"]["stale"] == 1
        assert result.rows == evaluate(query, database).rows

    def test_failed_batch_sweeps_conservatively_instead_of_repairing(self):
        router, database = mirrored_topology(shards=2)
        query = facebook.query_q1()
        router.execute(query)
        assert router.execute(query).result_cached
        by_shard = {0: None, 1: None}
        for row in sorted(database.relation("friend").rows):
            owner = router.partitioner.shard_for_row("friend", row)
            if by_shard[owner] is None:
                by_shard[owner] = row

        def broken(updates):
            raise MaintenanceError("injected shard failure")

        router.shards[1].apply_updates = broken
        with pytest.raises(MaintenanceError):
            router.apply_updates(
                [Update.delete("friend", by_shard[0]), Update.delete("friend", by_shard[1])]
            )
        database.relation("friend").delete(by_shard[0])  # mirror the applied prefix
        stats = router.cache_stats()["result_cache"]
        assert stats["repaired"] == 0
        assert stats["invalidated"] == 1
        assert stats["repair_fallback_reasons"] == {"no_delta": 1}
        result = router.execute(query)
        assert result.cached and not result.result_cached
        assert result.rows == evaluate(query, database).rows


class TestBuildTopology:
    def test_rejects_unknown_backend_kind(self):
        database = facebook.generate(scale=10, seed=1)
        access = facebook.access_schema(database.schema)
        with pytest.raises(StorageError, match="unknown shard backend"):
            build_topology(database, access, shards=2, backends=["memory", "duckdb"])

    def test_rejects_backend_count_mismatch(self):
        database = facebook.generate(scale=10, seed=1)
        access = facebook.access_schema(database.schema)
        with pytest.raises(StorageError, match="backend kinds"):
            build_topology(database, access, shards=3, backends=["memory"] * 2)

    def test_router_rejects_an_empty_shard_list(self):
        router, database = mirrored_topology(shards=1)
        with pytest.raises(StorageError, match="at least one shard"):
            ShardRouter([], Partitioner(database.schema, 1), router.access_schema)

    def test_router_rejects_shards_that_do_not_share_one_clock(self):
        database = facebook.generate(scale=10, seed=1)
        access = facebook.access_schema(database.schema)
        partitioner = Partitioner(database.schema, 2)
        first, second = partitioner.partition(database), partitioner.partition(database)
        assert first[0].clock is first[1].clock is not second[1].clock
        ShardRouter([EngineShard(f"s{i}", f, access) for i, f in enumerate(first)], partitioner, access)
        # the same data, but fragments of two splits: two clocks
        mixed = [EngineShard("s0", first[0], access), EngineShard("s1", second[1], access)]
        with pytest.raises(StorageError, match="do not share one version clock"):
            ShardRouter(mixed, partitioner, access)

    def test_router_rejects_a_partitioner_for_another_shard_count(self):
        router, database = mirrored_topology(shards=2)
        partitioner = Partitioner(database.schema, 3)
        with pytest.raises(StorageError, match="configured for 3 shards"):
            ShardRouter(router.shards, partitioner, router.access_schema)


class TestServerOverRouter:
    def test_bounded_server_serves_a_federation(self):
        router, database = mirrored_topology()
        q1 = facebook.query_q1()
        q0_prime = facebook.query_q0_prime()
        victim = sorted(database.relation("friend").rows)[0]

        async def _run():
            async with BoundedServer(router) as server:
                first = await server.submit(ReadRequest(query=q1))
                write = await server.submit(
                    WriteRequest(updates=(Update.delete("friend", victim),))
                )
                second = await server.submit(ReadRequest(query=q1))
                third = await server.submit(ReadRequest(query=q0_prime))
                return first, write, second, third

        first, write, second, third = asyncio.run(_run())
        assert first.ok and first.strategy == "bounded" and first.snapshot_valid
        assert write.ok and write.strategy == "write"
        assert second.ok and second.snapshot_valid
        # The write routed through the shards and the mirror saw it, so the
        # reference evaluation is the post-write truth.
        assert second.rows == evaluate(q1, database).rows
        assert third.rows == evaluate(q0_prime, database).rows
        assert router.metrics.write_batches == 1


class TestShardedSoak:
    def test_quick_sharded_soak_passes_every_check(self):
        config = SoakConfig(
            scale=40,
            requests=60,
            seed=11,
            queue_depth=8,
            covered_queries=4,
            uncovered_queries=2,
            shards=3,
        )
        report = run_soak(config)
        assert report["passed"], report["checks"]
        assert report["checks"]["federation_scattered"]
        assert report["checks"]["no_mixed_epoch_merges"]
        assert report["checks"]["writes_routed"]
        assert report["config"]["faults"] is False  # chaos stays single-engine
        assert len(report["router"]["shards"]) == 3
