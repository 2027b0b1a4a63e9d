"""Replica sets: lockstep writes, divergence healing, failover.

Every test measures the replicated federation against the single-database
reference its ``write_observer`` mirror keeps in step — the same contract as
:mod:`tests.sharding.test_router`, now with faults injected at the
shard-call seams (:mod:`repro.serving.faults`) that the replica layer must
absorb without the reference ever seeing a wrong row.
"""

import pytest
from analytic_queries import ANALYTIC_SCALE, analytic_queries
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConstraintViolation, StorageError, TransientFault
from repro.core.query import Relation, eq
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.serving.faults import FaultInjector, FaultSpec
from repro.sharding import ReplicaHealth, ReplicaSet, build_topology
from repro.storage.counters import AccessCounter
from repro.workloads import WORKLOADS, facebook


def replicated_topology(scale=30, seed=5, shards=2, replicas=2, **kwargs):
    """A replicated federation plus its single-database reference mirror."""
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
        database,
        access,
        shards=shards,
        replicas=replicas,
        write_observer=mirror,
        **kwargs,
    )
    return router, database


def psi1(router):
    return next(c for c in router.access_schema if c.name == "psi1")


def person_on(router, target_set, scale=30):
    """A pid whose routed friend-fetch lands on ``target_set``."""
    index = router.shards.index(target_set)
    return next(
        pid
        for pid in (f"p{i}" for i in range(scale))
        if router.partitioner.shard_for_value("friend", pid) == index
    )


def set_batch(router, target_set, size=2):
    """``size`` deletes of friend rows that all route to ``target_set``."""
    index = router.shards.index(target_set)
    rows = [
        row
        for row in sorted(router._gather(("friend",)).relation("friend").rows)
        if router.partitioner.shard_for_row("friend", row) == index
    ]
    assert len(rows) >= size, "scale too small for a same-shard batch"
    return [Update.delete("friend", row) for row in rows[:size]]


class TestReplicatedReads:
    def test_rows_identical_to_single_database_reference(self):
        router, database = replicated_topology()
        for shard in router.shards:
            assert isinstance(shard, ReplicaSet)
            # Member substrates alternate, so failover crosses backends.
            assert {member.kind for member in shard.replicas} == {"memory", "sqlite"}
        for query in (facebook.query_q1(), facebook.query_q0_prime()):
            result = router.execute(query)
            assert result.strategy == "bounded"
            assert result.rows == evaluate(query, database).rows

    def test_routed_writes_keep_members_in_lockstep(self):
        router, database = replicated_topology()
        target = router.shards[0]
        router.apply_updates(set_batch(router, target))
        for member in target.replicas:
            assert target._in_lockstep(member, ("friend",))
            assert set(member.relation_rows("friend")) == set(
                target.replicas[0].relation_rows("friend")
            )
        query = facebook.query_q1()
        assert router.execute(query).rows == evaluate(query, database).rows

    def test_constructor_rejects_members_out_of_lockstep(self):
        router, _ = replicated_topology()
        members = router.shards[0].replicas
        members[1].database.clock.bump(("friend",))
        with pytest.raises(StorageError, match="out of\n?\\s*lockstep|lockstep"):
            ReplicaSet("broken", members)


class TestRejectedWrites:
    def test_a_rejected_batch_quarantines_nobody_and_leaves_members_in_lockstep(self):
        # The batch and its undo are two routed writes every member applies.
        router, database = replicated_topology()
        cafe = Relation.from_schema(database.schema, "cafe")
        query = cafe.select(eq(cafe["cid"], "c0")).project([cafe["city"]])
        ((city,),) = router.execute(query).rows
        before = {
            member.name: set(member.relation_rows("cafe"))
            for replica_set in router.shards
            for member in replica_set.replicas
        }
        batch = [Update.insert("cafe", ("c0", "atlantis")), Update.insert("cafe", ("c0", "mu"))]
        with pytest.raises(ConstraintViolation):
            router.apply_updates(batch)
        stats = router.replication_stats()
        assert (stats["quarantines"], stats["quarantined"], stats["catch_ups"]) == (0, 0, 0)
        for replica_set in router.shards:
            for member in replica_set.replicas:
                assert replica_set._in_lockstep(member, ("cafe",))
                assert set(member.relation_rows("cafe")) == before[member.name]
        result = router.execute(query)
        assert result.rows == {(city,)} == evaluate(query, database).rows
        assert result.counter.total <= result.plan.access_bound() == 1


class TestReplicaHealth:
    """The breaker's two constants, pinned on one member's health record."""

    def test_the_breaker_trips_on_the_threshold_th_consecutive_failure(self):
        health = ReplicaHealth("r0")
        for _ in range(ReplicaHealth.FAILURE_THRESHOLD - 1):
            assert not health.record_failure()
            assert not health.quarantined
        assert health.record_failure()  # the trip is reported once, by this call
        assert (health.quarantined, health.reason) == (True, "unhealthy")
        assert not health.record_failure()  # already out: nothing trips again
        assert health.failures_total == ReplicaHealth.FAILURE_THRESHOLD + 1

    def test_a_success_resets_the_consecutive_count(self):
        health = ReplicaHealth("r0")
        for _ in range(3 * ReplicaHealth.FAILURE_THRESHOLD):
            for _ in range(ReplicaHealth.FAILURE_THRESHOLD - 1):
                health.record_failure()
            health.record_success()
        assert not health.quarantined
        assert health.consecutive_failures == 0
        assert health.failures_total == 3 * ReplicaHealth.FAILURE_THRESHOLD * (
            ReplicaHealth.FAILURE_THRESHOLD - 1
        )

    def test_a_quarantined_member_is_probed_at_once_then_every_probe_after_th_selection(self):
        health = ReplicaHealth("r0")
        health.quarantine("divergence")
        selections = 3 * ReplicaHealth.PROBE_AFTER
        allowed = [health.allow_probe() for _ in range(selections)]
        assert [i for i, probe in enumerate(allowed) if probe] == list(
            range(0, selections, ReplicaHealth.PROBE_AFTER)
        )
        assert health.probes == 3

    def test_a_healthy_member_is_never_probed(self):
        health = ReplicaHealth("r0")
        assert not any(health.allow_probe() for _ in range(2 * ReplicaHealth.PROBE_AFTER))
        assert health.probes == 0

    def test_readmission_needs_the_full_threshold_again(self):
        health = ReplicaHealth("r0")
        for _ in range(ReplicaHealth.FAILURE_THRESHOLD):
            health.record_failure()
        health.readmit()
        assert (health.quarantined, health.reason, health.consecutive_failures) == (
            False,
            None,
            0,
        )
        for _ in range(ReplicaHealth.FAILURE_THRESHOLD - 1):
            assert not health.record_failure()
        assert health.record_failure()
        # a fresh quarantine restarts the probe schedule: the first selection probes
        assert health.allow_probe()


class TestFailoverReads:
    @pytest.mark.parametrize("workload", [None, *sorted(WORKLOADS)])
    def test_dead_primary_fails_over_to_sibling(self, workload):
        if workload is None:
            router, database = replicated_topology(result_cache_size=0)
            queries = [facebook.query_q1()]
        else:  # a bundled workload, on queries whose answers have rows (read-only: no mirror)
            spec = WORKLOADS[workload]
            database = spec.database(scale=ANALYTIC_SCALE, seed=7)
            router = build_topology(
                database, spec.access_schema, shards=2, replicas=2, result_cache_size=0
            )
            queries = analytic_queries(spec)
        answers = [evaluate(query, database).rows for query in queries]
        assert all(answers)
        assert [router.execute(query).rows for query in queries] == answers  # healthy
        injector = FaultInjector(seed=3)
        injector.kill(router.shards[0].replicas[0])
        # Degraded: every pass returns the reference rows.  The dead member
        # is quarantined after `FAILURE_THRESHOLD` (3) consecutive failed
        # fetches and a pass sends it as many as its plans fetch on that
        # shard — at least one — so read until the breaker trips instead of
        # pinning the plans' fetch count: three passes always do, four is the cap.
        passes = 0
        while not router.replication_stats()["quarantines"]:
            passes += 1
            assert passes <= 4, router.replication_stats()
            assert [router.execute(query).rows for query in queries] == answers
        assert router.replication_stats()["failovers"] > 0

    def test_breaker_quarantines_a_repeatedly_failing_member(self):
        router, database = replicated_topology(result_cache_size=0)
        target = router.shards[0]
        victim = target.replicas[0]
        injector = FaultInjector(seed=3)
        injector.kill(victim)
        query = facebook.query_q1()
        for _ in range(4):
            assert router.execute(query).rows == evaluate(query, database).rows
        health = target.health(victim.name)
        assert health.failures_total >= health.FAILURE_THRESHOLD
        assert target.quarantines >= 1

    def test_every_member_dead_raises_a_typed_fault(self):
        router, _ = replicated_topology()
        target = router.shards[0]
        injector = FaultInjector(seed=3)
        for member in target.replicas:
            injector.kill(member)
        with pytest.raises(TransientFault, match="candidate replica failed"):
            target.fetch(psi1(router), "friend", [("p0",)], AccessCounter())


class TestDivergenceHealing:
    """The satellite-4 contract: a missed routed write is detected by
    snapshot validation at the next fetch touching the relation, the
    member is quarantined, caught up from a sibling, and re-admitted —
    never merged while diverged."""

    def test_lost_write_detected_quarantined_caught_up_readmitted(self):
        router, database = replicated_topology(result_cache_size=0)
        target = router.shards[0]
        victim = target.replicas[1]
        injector = FaultInjector(seed=7)
        injector.install_shard(victim)
        injector.configure(f"{victim.name}.write", FaultSpec(lost_write_every=1))

        batch = set_batch(router, target)
        report = router.apply_updates(batch)
        # The victim silently swallowed its copy: no error, no mutation —
        # the routed batch still applied (canonical = the healthy sibling).
        assert report.applied == len(batch)
        assert not target._in_lockstep(victim, ("friend",))
        assert target.health(victim.name).state == "healthy"  # not yet caught

        injector.uninstall()
        query = facebook.query_q1(person=person_on(router, target))
        result = router.execute(query)
        assert result.rows == evaluate(query, database).rows
        # The first fetch touching "friend" swept the set: quarantine on the
        # lagging clock, catch-up from the sibling, verified re-admission.
        assert target.quarantines == 1
        assert target.catch_ups == 1
        assert target.rows_resynced == len(batch)
        assert target.health(victim.name).state == "healthy"
        assert target._in_lockstep(victim, ("friend",))
        assert set(victim.relation_rows("friend")) == set(
            target.replicas[0].relation_rows("friend")
        )

    def test_catch_up_refused_while_writes_still_vanish(self):
        router, database = replicated_topology(result_cache_size=0)
        target = router.shards[0]
        victim = target.replicas[1]
        injector = FaultInjector(seed=7)
        injector.install_shard(victim)
        injector.configure(f"{victim.name}.write", FaultSpec(lost_write_every=1))

        router.apply_updates(set_batch(router, target))
        query = facebook.query_q1(person=person_on(router, target))
        assert router.execute(query).rows == evaluate(query, database).rows
        # The catch-up's resync batch was itself swallowed; the verify
        # re-diff must notice and keep the member out of rotation — a
        # "probe succeeded" response alone never re-admits.
        assert target.quarantines == 1
        assert target.catch_ups == 0
        assert target.health(victim.name).state == "quarantined"

        injector.uninstall()
        assert router.execute(query).rows == evaluate(query, database).rows
        assert target.catch_ups == 1
        assert target.health(victim.name).state == "healthy"

    def test_torn_write_quarantines_immediately(self):
        router, database = replicated_topology(result_cache_size=0)
        target = router.shards[0]
        victim = target.replicas[1]
        injector = FaultInjector(seed=7)
        injector.install_shard(victim)
        injector.configure(f"{victim.name}.write", FaultSpec(torn_write_every=1))

        batch = set_batch(router, target, size=4)
        report = router.apply_updates(batch)
        # The victim applied a strict prefix then raised: it is quarantined
        # on the spot (its clock settled over the prefix, so clock checks
        # alone cannot be trusted), and the batch proceeded on the sibling.
        assert report.applied == len(batch)
        assert target.quarantines == 1
        assert target.health(victim.name).reason == "write_failed"

        injector.uninstall()
        query = facebook.query_q1(person=person_on(router, target))
        assert router.execute(query).rows == evaluate(query, database).rows
        assert target.catch_ups == 1
        assert target.rows_resynced > 0  # the torn remainder was resynced
        assert target.health(victim.name).state == "healthy"

    def test_quarantined_member_misses_writes_then_catches_up(self):
        router, database = replicated_topology(result_cache_size=0)
        target = router.shards[0]
        victim = target.replicas[1]
        target._quarantine(victim, "divergence")
        batch = set_batch(router, target)
        router.apply_updates(batch)  # applied to the healthy member only
        assert set(victim.relation_rows("friend")) != set(
            target.replicas[0].relation_rows("friend")
        )
        query = facebook.query_q1(person=person_on(router, target))
        assert router.execute(query).rows == evaluate(query, database).rows
        assert target.health(victim.name).state == "healthy"
        assert set(victim.relation_rows("friend")) == set(
            target.replicas[0].relation_rows("friend")
        )


@settings(max_examples=12, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "arm_lost", "heal", "read"]),
            st.integers(min_value=0, max_value=13),
        ),
        min_size=2,
        max_size=10,
    )
)
def test_property_reads_match_reference_under_lost_write_chaos(ops):
    """Random interleavings of routed writes, a lost-write fault arming and
    healing on one member, and reads: every read is row-identical to the
    mirrored reference, and after healing the member converges."""
    router, database = replicated_topology(scale=14, seed=2, result_cache_size=0)
    target = router.shards[0]
    victim = target.replicas[1]
    injector = FaultInjector(seed=11)
    injector.install_shard(victim)
    site = f"{victim.name}.write"
    removed: list[tuple] = []
    try:
        for action, pick in ops + [("heal", 0), ("read", 0), ("read", 1)]:
            if action == "arm_lost":
                injector.configure(site, FaultSpec(lost_write_every=1))
            elif action == "heal":
                injector.configure(site, FaultSpec())
            elif action == "write":
                rows = sorted(database.relation("friend").rows)
                if removed and pick % 2:
                    router.apply_updates([Update.insert("friend", removed.pop())])
                elif rows:
                    row = rows[pick % len(rows)]
                    removed.append(row)
                    router.apply_updates([Update.delete("friend", row)])
            else:
                query = facebook.query_q1(person=f"p{pick}")
                result = router.execute(query)
                assert result.rows == evaluate(query, database).rows
        # A fetch guaranteed to reach the victim's set, so healing runs.
        target.fetch(
            psi1(router), "friend", [(person_on(router, target, scale=14),)]
        )
    finally:
        injector.uninstall()
    # Post-heal reads re-admitted the member via verified catch-up.
    assert target.health(victim.name).state == "healthy"
    assert set(victim.relation_rows("friend")) == set(
        target.replicas[0].relation_rows("friend")
    )
