"""Online key-range migration: correct reads throughout, epoch-guarded flips."""

import pytest

from repro.core.errors import StorageError, TransientFault
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.sharding import build_topology
from repro.workloads import facebook


def mirrored_topology(scale=30, seed=5, shards=2, **kwargs):
    database = facebook.generate(scale=scale, seed=seed)
    access = facebook.access_schema(database.schema)

    def mirror(updates):
        for update in updates:
            instance = database.relation(update.relation)
            prepared = instance.prepare(update.row)
            if update.kind == "insert":
                instance.insert(prepared)
            else:
                instance.delete(prepared)

    router = build_topology(
        database, access, shards=shards, write_observer=mirror, **kwargs
    )
    return router, database


def friend_range(router, database):
    """The middle half of friend's pid values, with its majority owner."""
    position = router.partitioner._positions["friend"]
    values = sorted({row[position] for row in database.relation("friend").rows})
    lo, hi = values[len(values) // 4], values[(3 * len(values)) // 4]
    owners: dict[int, int] = {}
    for value in values:
        if lo <= value < hi:
            owner = router.partitioner.shard_for_value("friend", value)
            owners[owner] = owners.get(owner, 0) + 1
    src = max(owners, key=lambda index: owners[index])
    dst = (src + 1) % len(router.shards)
    return lo, hi, src, dst


def shard_rows(router, index, relation="friend"):
    return set(router.shards[index].relation_rows(relation))


class TestRebalance:
    def test_moves_the_range_and_reads_stay_identical(self):
        router, database = mirrored_topology()
        lo, hi, src, dst = friend_range(router, database)
        queries = [facebook.query_q1(), facebook.query_q1(person="p3")]
        before = {i: evaluate(q, database).rows for i, q in enumerate(queries)}

        report = router.rebalance("friend", (lo, hi), src, dst)

        assert report.completed and report.rows_moved > 0
        assert router.metrics.rebalances == 1
        assert router.metrics.rebalance_rows_moved == report.rows_moved
        assert router.partitioner.override_count == 1
        # Rows physically migrated: the source keeps nothing of the moved
        # range, the destination holds all of it, and nothing was lost.
        position = router.partitioner._positions["friend"]
        moved = {
            row
            for row in database.relation("friend").rows
            if lo <= row[position] < hi
            and router.partitioner.base.shard_for_value("friend", row[position]) == src
        }
        assert len(moved) == report.rows_moved
        assert not moved & shard_rows(router, src)
        assert moved <= shard_rows(router, dst)
        for i, query in enumerate(queries):
            result = router.execute(query)
            assert result.rows == before[i] == evaluate(query, database).rows

    def test_writes_after_the_flip_route_to_the_new_owner(self):
        router, database = mirrored_topology()
        lo, hi, src, dst = friend_range(router, database)
        router.rebalance("friend", (lo, hi), src, dst)
        # A fresh row whose key sits in the migrated range (and whose base
        # owner was the source) must land on the destination shard.
        position = router.partitioner._positions["friend"]
        pid = next(
            row[position]
            for row in sorted(database.relation("friend").rows)
            if lo <= row[position] < hi
            and router.partitioner.base.shard_for_value("friend", row[position]) == src
        )
        fresh = (pid, "p_new_friend")
        router.apply_updates([Update.insert("friend", fresh)])
        assert fresh in shard_rows(router, dst)
        assert fresh not in shard_rows(router, src)
        query = facebook.query_q1(person=pid)
        assert router.execute(query).rows == evaluate(query, database).rows

    def test_cached_federated_results_are_swept(self):
        router, database = mirrored_topology()
        query = facebook.query_q1()
        router.execute(query)
        assert router.execute(query).result_cached
        lo, hi, src, dst = friend_range(router, database)
        router.rebalance("friend", (lo, hi), src, dst)
        result = router.execute(query)
        assert not result.result_cached  # layout changed: recompute
        assert result.rows == evaluate(query, database).rows

    def test_the_plan_outlives_the_rebalance(self):
        router, database = mirrored_topology(shards=3)
        query = facebook.query_q1()
        router.execute(query)
        assert router.execute(query).result_cached
        lo, hi, src, dst = friend_range(router, database)
        assert router.rebalance("friend", (lo, hi), src, dst).rows_moved > 0
        result = router.execute(query)
        # the compiled scatter looks each key's owner up per call: the plan
        # a rebalance leaves behind reads the new layout
        assert (result.cached, result.result_cached) == (True, False)
        assert router.cache_stats()["plan_store"]["misses"] == 1
        assert result.rows == evaluate(query, database).rows

    def test_empty_range_flips_without_moving_rows(self):
        router, database = mirrored_topology()
        report = router.rebalance("friend", ("zz_lo", "zz_hi"), 0, 1)
        assert report.completed and report.rows_moved == 0
        assert router.partitioner.override_count == 1
        query = facebook.query_q1()
        assert router.execute(query).rows == evaluate(query, database).rows

    def test_replicated_destination_receives_the_range_in_lockstep(self):
        router, database = mirrored_topology(replicas=2)
        lo, hi, src, dst = friend_range(router, database)
        report = router.rebalance("friend", (lo, hi), src, dst)
        assert report.completed and report.rows_moved > 0
        destination = router.shards[dst]
        first, second = destination.replicas
        assert set(first.relation_rows("friend")) == set(
            second.relation_rows("friend")
        )
        for query in (facebook.query_q1(), facebook.query_q0_prime()):
            assert router.execute(query).rows == evaluate(query, database).rows


class TestRebalanceGuards:
    def test_racing_source_epoch_retries_then_aborts_cleanly(self):
        router, database = mirrored_topology()
        lo, hi, src, dst = friend_range(router, database)
        src_shard = router.shards[src]
        dst_before = shard_rows(router, dst)
        src_before = shard_rows(router, src)
        # Source epoch "moves" on every verification: validation must undo
        # the copy each attempt and finally abort with a typed fault —
        # never a torn layout, never a leaked destination copy.
        src_shard.validate = lambda relations, snapshot: False
        with pytest.raises(TransientFault, match="epoch kept moving"):
            router.rebalance("friend", (lo, hi), src, dst)
        assert router.metrics.rebalance_aborts == 1
        assert router.metrics.rebalances == 0
        assert router.partitioner.override_count == 0
        assert shard_rows(router, dst) == dst_before
        assert shard_rows(router, src) == src_before
        del src_shard.validate
        query = facebook.query_q1()
        assert router.execute(query).rows == evaluate(query, database).rows

    def test_failing_destination_undoes_the_copy_and_aborts(self):
        router, database = mirrored_topology()
        lo, hi, src, dst = friend_range(router, database)
        dst_shard = router.shards[dst]
        dst_before = shard_rows(router, dst)
        original = dst_shard.apply_updates

        def half_then_fail(updates):
            updates = list(updates)
            original(updates[: len(updates) // 2])
            raise TransientFault("destination fell over mid-copy")

        dst_shard.apply_updates = half_then_fail
        with pytest.raises(TransientFault, match="failed the copy"):
            router.rebalance("friend", (lo, hi), src, dst)
        del dst_shard.apply_updates
        # The undo pass removed the applied prefix: no stale double copy
        # can ever leak into a broadcast merge.
        assert shard_rows(router, dst) == dst_before
        assert router.metrics.rebalance_aborts == 1
        assert router.partitioner.override_count == 0
        query = facebook.query_q1()
        assert router.execute(query).rows == evaluate(query, database).rows

    def test_rejects_same_source_and_destination(self):
        router, _ = mirrored_topology()
        with pytest.raises(StorageError, match="must differ"):
            router.rebalance("friend", ("a", "b"), 1, 1)

    def test_rejects_out_of_range_shard_index(self):
        router, _ = mirrored_topology()
        with pytest.raises(StorageError, match="out of range"):
            router.rebalance("friend", ("a", "b"), 0, 9)
