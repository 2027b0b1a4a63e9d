"""Replica sets: lockstep writes, divergence healing, failover.

Every test measures the replicated federation against the single-database
reference its ``write_observer`` mirror keeps in step — the same contract as
:mod:`tests.sharding.test_router`, now with faults injected at the
shard-call seams (:mod:`repro.serving.faults`) that the replica layer must
absorb without the reference ever seeing a wrong row.
"""

import pytest
from analytic_queries import ANALYTIC_SCALE, analytic_queries
from substrates import mirrored_federation

from repro.core.errors import ConstraintViolation, StorageError, TransientFault
from repro.core.query import Relation, eq
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.serving.faults import FaultInjector, FaultSpec
from repro.sharding import ReplicaSet, build_topology
from repro.sharding.replica import FAILURE_THRESHOLD, PROBE_AFTER
from repro.storage.counters import AccessCounter
from repro.workloads import WORKLOADS, facebook


def replicated_topology(**topology):
    """A federation of 1 × 2 replica sets plus its single-database reference mirror."""
    return mirrored_federation(**{"replicas": 2, **topology})


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


def drive_probe(router, target_set, scale=30):
    """``PROBE_AFTER`` fetches through ``target_set``: every quarantined
    member's breaker admits one probe among them."""
    person = person_on(router, target_set, scale)
    for _ in range(PROBE_AFTER):
        target_set.fetch(psi1(router), "friend", [(person,)])


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


class TestMemberBreaker:
    """The breaker's two constants, pinned on one member of a 1 × 2 set."""

    @staticmethod
    def one_set():
        router, _ = replicated_topology(shards=1)
        target = router.shards[0]
        person = person_on(router, target)

        def fetch():
            target.fetch(psi1(router), "friend", [(person,)])

        return target, fetch

    def test_the_breaker_trips_on_the_threshold_th_consecutive_failure(self):
        target, fetch = self.one_set()
        victim = target.replicas[0]
        breaker = target.breakers[victim.name]
        FaultInjector(seed=3).kill(victim)
        for _ in range(FAILURE_THRESHOLD - 1):
            fetch()  # served by the sibling after a failover
            assert breaker.state == "closed"
        fetch()
        assert (breaker.state, breaker.reason) == ("open", "unhealthy")
        fetch()  # already out: not tried, nothing trips again
        assert (target.failovers, target.quarantines) == (FAILURE_THRESHOLD, 1)
        assert (breaker.failures, breaker.times_opened) == (FAILURE_THRESHOLD, 1)

    def test_a_success_resets_the_consecutive_count(self):
        target, fetch = self.one_set()
        victim = target.replicas[0]
        seam = f"{victim.name}.fetch"
        injector = FaultInjector(seed=3)
        injector.install_shard(victim)
        for _ in range(3):
            injector.configure(seam, FaultSpec(fail_every=1))
            for _ in range(FAILURE_THRESHOLD - 1):
                fetch()
            injector.configure(seam, FaultSpec())
            fetch()  # the member serves again: its streak starts over
        stats = target.breakers[victim.name].stats()
        assert (stats["state"], stats["times_opened"], stats["successes"]) == ("closed", 0, 3)
        assert stats["failures"] == target.failovers == 3 * (FAILURE_THRESHOLD - 1)
        assert target.quarantines == 0

    def test_a_live_member_is_readmitted_at_its_first_probe(self):
        target, fetch = self.one_set()
        victim = target.replicas[0]
        target._quarantine(victim, "divergence")
        for _ in range(PROBE_AFTER - 1):
            fetch()  # served by the sibling; the cooldown has not run out
            assert target.breakers[victim.name].state == "open"
        fetch()
        assert target.breakers[victim.name].state == "closed"
        assert (target.quarantines, target.catch_ups, target.rows_resynced) == (1, 1, 0)

    def test_a_healthy_member_is_never_probed(self):
        target, fetch = self.one_set()
        for _ in range(2 * PROBE_AFTER):
            fetch()
        primary, sibling = (target.breakers[member.name] for member in target.replicas)
        assert primary.successes == 2 * PROBE_AFTER
        # the sibling was neither probed (a probe records its outcome) nor read
        assert (sibling.successes, sibling.failures, sibling.times_opened) == (0, 0, 0)
        assert (target.quarantines, target.catch_ups, target.failovers) == (0, 0, 0)

    def test_readmission_needs_the_full_threshold_again(self):
        target, fetch = self.one_set()
        victim = target.replicas[0]
        breaker = target.breakers[victim.name]
        target._quarantine(victim, "divergence")
        for _ in range(PROBE_AFTER):
            fetch()
        assert (breaker.state, breaker.reason) == ("closed", None)
        FaultInjector(seed=3).kill(victim)
        for _ in range(FAILURE_THRESHOLD - 1):
            fetch()
            assert breaker.state == "closed"
        fetch()
        assert (breaker.state, breaker.reason) == ("open", "unhealthy")
        assert target.quarantines == 2


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
        assert target.breakers[victim.name].failures >= FAILURE_THRESHOLD
        assert target.quarantines >= 1

    def test_a_dead_member_stays_out_of_rotation(self):
        # A dead member misses no writes, so it passes catch-up; only the
        # fetch through its own seam shows it cannot serve.  Re-admitted on
        # catch-up alone, it would rejoin at every probe, fail the next
        # fetch and cost a failover each time.
        router, database = replicated_topology(shards=1, result_cache_size=0)
        target = router.shards[0]
        victim = target.replicas[0]
        FaultInjector(seed=3).kill(victim)
        query = facebook.query_q1()
        reference = evaluate(query, database).rows
        for _ in range(40):
            assert router.execute(query).rows == reference
        assert router.metrics.scatters == 120
        # three failed fetches trip the breaker; every probe after that fails
        # its fetch and re-admits nobody
        assert (target.failovers, target.quarantines, target.catch_ups) == (3, 1, 0)
        # tripped at set fetch 3, then probed at fetches 11, 19, …, 115: each
        # of the 14 probes failed its fetch and re-opened the breaker
        stats = target.breakers[victim.name].stats()
        assert (stats["state"], stats["reason"]) == ("open", "unhealthy")
        assert (stats["times_opened"], stats["failures"]) == (1 + 14, FAILURE_THRESHOLD + 14)

    def test_a_quarantined_member_is_probed_every_probe_after_fetches(self):
        # The breaker's clock is the set's fetch count, ticked once per
        # fetch: a member quarantined at fetch f is probed at f + PROBE_AFTER,
        # then every PROBE_AFTER fetches while its probe fails.  A dead
        # member missed no writes, so each probe is one call to its fetch seam.
        router, _ = replicated_topology(shards=1)
        target = router.shards[0]
        victim = target.replicas[1]  # second in order: only probes reach it
        person = person_on(router, target)

        def fetch():
            target.fetch(psi1(router), "friend", [(person,)])

        for _ in range(5):
            fetch()
        injector = FaultInjector(seed=3)
        injector.kill(victim)
        target._quarantine(victim, "divergence")
        quarantined_at = target.fetches
        seam = f"{victim.name}.fetch"
        probed = []
        for fetch_number in range(quarantined_at + 1, quarantined_at + 1 + 3 * PROBE_AFTER):
            calls = injector.stats()[seam]["calls"]
            fetch()
            if injector.stats()[seam]["calls"] > calls:
                probed.append(fetch_number)
        assert probed == [quarantined_at + k * PROBE_AFTER for k in (1, 2, 3)]
        assert (target.quarantines, target.catch_ups) == (1, 0)

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
        assert target.breakers[victim.name].state == "closed"  # not yet caught

        injector.uninstall()
        query = facebook.query_q1(person=person_on(router, target))
        result = router.execute(query)
        assert result.rows == evaluate(query, database).rows
        # The first fetch touching "friend" swept the set: quarantine on the
        # lagging clock, catch-up from the sibling, verified re-admission.
        assert target.quarantines == 1
        assert target.catch_ups == 1
        assert target.rows_resynced == len(batch)
        assert target.breakers[victim.name].state == "closed"
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
        assert target.breakers[victim.name].state == "open"

        injector.uninstall()
        drive_probe(router, target)
        assert router.execute(query).rows == evaluate(query, database).rows
        assert target.catch_ups == 1
        assert target.breakers[victim.name].state == "closed"

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
        assert target.breakers[victim.name].reason == "write_failed"

        injector.uninstall()
        drive_probe(router, target)
        query = facebook.query_q1(person=person_on(router, target))
        assert router.execute(query).rows == evaluate(query, database).rows
        assert target.catch_ups == 1
        assert target.rows_resynced > 0  # the torn remainder was resynced
        assert target.breakers[victim.name].state == "closed"

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
        drive_probe(router, target)
        query = facebook.query_q1(person=person_on(router, target))
        assert router.execute(query).rows == evaluate(query, database).rows
        assert target.breakers[victim.name].state == "closed"
        assert set(victim.relation_rows("friend")) == set(
            target.replicas[0].relation_rows("friend")
        )
