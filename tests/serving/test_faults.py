"""Unit tests for the deterministic fault-injection layer.

Engine seams first (executor, fallback, storage writes), then the shard-call
seams (fetch, write): determinism, modes, clean teardown.
"""

import pytest

from repro.core.engine import BoundedEngine
from repro.core.errors import MaintenanceError, TransientFault
from repro.discovery.maintenance import Update
from repro.serving.faults import FaultInjector, FaultSpec
from repro.sharding import build_topology
from repro.storage.counters import AccessCounter
from repro.workloads import facebook


class TestFaultSpec:
    def test_default_spec_is_inert(self):
        assert not FaultSpec().active

    def test_any_knob_activates(self):
        assert FaultSpec(latency=0.001).active
        assert FaultSpec(error_rate=0.5).active
        assert FaultSpec(fail_every=3).active
        assert FaultSpec(latency_jitter=0.001).active
        assert FaultSpec(torn_write_every=2).active


class TestPerturb:
    def test_unconfigured_site_is_a_noop(self):
        injector = FaultInjector(seed=0)
        injector.perturb("nowhere")
        assert injector.calls("nowhere") == 0

    def test_fail_every_is_exact(self):
        injector = FaultInjector(seed=0)
        injector.configure("site", FaultSpec(fail_every=3))
        failures = []
        for call in range(1, 10):
            try:
                injector.perturb("site")
            except TransientFault:
                failures.append(call)
        assert failures == [3, 6, 9]
        assert injector.injected["site"] == 3

    def test_error_rate_one_always_fails(self):
        injector = FaultInjector(seed=0)
        injector.configure("site", FaultSpec(error_rate=1.0))
        with pytest.raises(TransientFault):
            injector.perturb("site")

    def test_error_schedule_is_deterministic_per_seed(self):
        def schedule(seed: int) -> list[bool]:
            injector = FaultInjector(seed=seed)
            injector.configure("site", FaultSpec(error_rate=0.3))
            outcomes = []
            for _ in range(50):
                try:
                    injector.perturb("site")
                    outcomes.append(False)
                except TransientFault:
                    outcomes.append(True)
            return outcomes

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_sites_have_independent_streams(self):
        injector = FaultInjector(seed=0)
        injector.configure("a", FaultSpec(error_rate=0.5))
        outcomes_a = []
        for _ in range(30):
            try:
                injector.perturb("a")
                outcomes_a.append(False)
            except TransientFault:
                outcomes_a.append(True)

        # Re-run site "a" with site "b" also armed: a's schedule must not move.
        fresh = FaultInjector(seed=0)
        fresh.configure("a", FaultSpec(error_rate=0.5))
        fresh.configure("b", FaultSpec(error_rate=0.5))
        outcomes_again = []
        for _ in range(30):
            try:
                fresh.perturb("b")  # interleave b's draws
            except TransientFault:
                pass
            try:
                fresh.perturb("a")
                outcomes_again.append(False)
            except TransientFault:
                outcomes_again.append(True)
        assert outcomes_a == outcomes_again

    def test_latency_jitter_adds_a_seeded_draw_below_its_bound(self):
        def sleeps(seed):
            slept = []
            injector = FaultInjector(seed=seed, sleeper=slept.append)
            injector.configure("site", FaultSpec(latency=0.1, latency_jitter=0.05))
            for _ in range(8):
                injector.perturb("site")
            return slept

        slept = sleeps(3)
        assert all(0.1 <= delay <= 0.15 for delay in slept)
        assert len(set(slept)) == len(slept)
        assert sleeps(3) == slept != sleeps(4)

    def test_latency_uses_injected_sleeper(self):
        slept = []
        injector = FaultInjector(seed=0, sleeper=slept.append)
        injector.configure("site", FaultSpec(latency=0.25))
        injector.perturb("site")
        assert slept == [0.25]


class TestInstallation:
    def test_wrap_preserves_return_value_and_counts_calls(self):
        injector = FaultInjector(seed=0)
        injector.configure("site", FaultSpec(latency=0.0, fail_every=100))
        wrapped = injector.wrap("site", lambda x: x * 2)
        assert wrapped(21) == 42
        assert injector.calls("site") == 1

    def test_install_writes_faults_before_mutation(self, fb_database):
        injector = FaultInjector(seed=0)
        injector.configure("storage.write", FaultSpec(error_rate=1.0))
        injector.install_writes(fb_database)
        name = fb_database.relation_names()[0]
        instance = fb_database.relation(name)
        before = set(instance.rows)
        row = next(iter(before))
        with pytest.raises(TransientFault):
            instance.delete(row)
        assert set(instance.rows) == before  # the delete never happened

    def test_uninstall_restores_instance_methods(self, fb_database):
        name = fb_database.relation_names()[0]
        instance = fb_database.relation(name)
        assert "insert" not in instance.__dict__
        with FaultInjector(seed=0) as injector:
            injector.configure("storage.write", FaultSpec(fail_every=1000))
            injector.install_writes(fb_database, [name])
            assert "insert" in instance.__dict__
        assert "insert" not in instance.__dict__  # class method shines through again
        assert "delete" not in instance.__dict__

    def test_install_engine_wraps_executor_and_fallback(
        self, fb_database, fb_access, fb_q0_prime
    ):
        engine = BoundedEngine(fb_database, fb_access)
        injector = FaultInjector(seed=0)
        injector.configure("executor", FaultSpec(error_rate=1.0))
        injector.install_engine(engine)
        with pytest.raises(TransientFault):
            engine.execute(fb_q0_prime)
        injector.uninstall()
        result = engine.execute(fb_q0_prime)  # restored: executes normally
        assert result.strategy == "bounded"

    def test_stats_reports_calls_and_injections(self):
        injector = FaultInjector(seed=0)
        injector.configure("site", FaultSpec(fail_every=2))
        for _ in range(4):
            try:
                injector.perturb("site")
            except TransientFault:
                pass
        assert injector.stats() == {"site": {"calls": 4, "injected": 2}}


@pytest.fixture()
def shard():
    database = facebook.generate(scale=20, seed=9)
    access = facebook.access_schema(database.schema)
    router = build_topology(database, access, shards=1, backends="memory")
    return router.shards[0]


def psi1(shard):
    return next(c for c in shard.access_schema if c.name == "psi1")


def a_fetch(shard, counter=None):
    return shard.fetch(psi1(shard), "friend", [("p0",)], counter)


def a_batch(shard, size=4):
    rows = sorted(shard.database.relation("friend").rows)[:size]
    return [Update.delete("friend", row) for row in rows]


def fail_every_call(injector, shard):
    """Wrap ``shard`` and fail every fetch and write through it (a dead shard)."""
    injector.install_shard(shard)
    injector.configure(f"{shard.name}.fetch", FaultSpec(fail_every=1))
    injector.configure(f"{shard.name}.write", FaultSpec(fail_every=1))


class TestShardBasicFaults:
    def test_fail_every_is_deterministic_and_fires_before_the_call(self, shard):
        injector = FaultInjector(seed=0)
        injector.install_shard(shard)
        injector.configure(f"{shard.name}.fetch", FaultSpec(fail_every=2))
        counter = AccessCounter()
        a_fetch(shard, counter)
        touched_after_success = counter.fetched
        with pytest.raises(TransientFault, match="deterministic fault"):
            a_fetch(shard, counter)
        # The error fired *before* the index lookup ran: a failed-then-
        # failed-over fetch must never double-count accessed tuples.
        assert counter.fetched == touched_after_success

    def test_error_rate_schedule_reproducible_across_installs(self, shard):
        def schedule(seed):
            injector = FaultInjector(seed=seed)
            injector.install_shard(shard)
            injector.configure(f"{shard.name}.fetch", FaultSpec(error_rate=0.5))
            outcomes = []
            for _ in range(12):
                try:
                    a_fetch(shard)
                    outcomes.append("ok")
                except TransientFault:
                    outcomes.append("fault")
            injector.uninstall()
            return outcomes

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)  # per-seed streams, not a fixed script

    def test_fail_every_one_fails_every_fetch_and_write(self, shard):
        injector = FaultInjector(seed=0)
        fail_every_call(injector, shard)
        with pytest.raises(TransientFault):
            a_fetch(shard)
        before = set(shard.database.relation("friend").rows)
        with pytest.raises(TransientFault):
            shard.apply_updates(a_batch(shard))
        assert set(shard.database.relation("friend").rows) == before


class TestShardWriteFaults:
    def test_torn_write_applies_a_strict_prefix_then_raises(self, shard):
        injector = FaultInjector(seed=0)
        injector.install_shard(shard)
        injector.configure(f"{shard.name}.write", FaultSpec(torn_write_every=1))
        batch = a_batch(shard, size=4)
        before = set(shard.database.relation("friend").rows)
        with pytest.raises(MaintenanceError, match="torn") as info:
            shard.apply_updates(batch)
        report = info.value.report
        assert report.failed
        assert report.applied == 2  # len(batch) // 2
        assert report.failed_update == batch[2]
        after = set(shard.database.relation("friend").rows)
        # Exactly the prefix is gone — the mid-batch abort contract.
        assert before - after == {u.row for u in batch[:2]}


    def test_only_every_nth_batch_of_two_or_more_is_torn(self, shard):
        injector = FaultInjector(seed=0)
        injector.install_shard(shard)
        injector.configure(f"{shard.name}.write", FaultSpec(torn_write_every=2))
        rows = sorted(shard.database.relation("friend").rows)

        def deletes(start, stop):
            return [Update.delete("friend", row) for row in rows[start:stop]]

        # batches 1 and 3 are not the 2nd or 4th; batch 2 has no strict prefix to tear
        for batch in (deletes(0, 2), deletes(2, 3), deletes(3, 5)):
            report = shard.apply_updates(batch)
            assert (report.applied, report.failed) == (len(batch), False)
        with pytest.raises(MaintenanceError, match="torn"):
            shard.apply_updates(deletes(5, 9))
        assert injector.stats()[f"{shard.name}.write"] == {"calls": 4, "injected": 1}


class TestShardTeardownAndStats:
    def test_uninstall_restores_originals(self, shard):
        injector = FaultInjector(seed=0)
        fail_every_call(injector, shard)
        with pytest.raises(TransientFault):
            a_fetch(shard)
        injector.uninstall()
        assert "fetch" not in shard.__dict__  # instance attribute removed
        assert a_fetch(shard)  # back to the class implementation

    def test_install_is_idempotent(self, shard):
        injector = FaultInjector(seed=0)
        injector.install_shard(shard)
        injector.install_shard(shard)  # no double wrap
        injector.uninstall()
        assert "fetch" not in shard.__dict__

    def test_context_manager_uninstalls(self, shard):
        with FaultInjector(seed=0) as injector:
            fail_every_call(injector, shard)
            with pytest.raises(TransientFault):
                a_fetch(shard)
        assert a_fetch(shard)

    def test_stats_report_calls_and_injections(self, shard):
        injector = FaultInjector(seed=0)
        injector.install_shard(shard)
        injector.configure(f"{shard.name}.fetch", FaultSpec(fail_every=2))
        a_fetch(shard)
        with pytest.raises(TransientFault):
            a_fetch(shard)
        stats = injector.stats()
        assert stats[f"{shard.name}.fetch"] == {"calls": 2, "injected": 1}

    def test_inactive_spec_disarms_a_site(self, shard):
        injector = FaultInjector(seed=0)
        injector.install_shard(shard)
        site = f"{shard.name}.fetch"
        injector.configure(site, FaultSpec(fail_every=1))
        with pytest.raises(TransientFault):
            a_fetch(shard)
        injector.configure(site, FaultSpec())
        assert a_fetch(shard)


class TestOneInjectorForEngineAndShards:
    def test_schedule_is_independent_of_installation_order(self, fb_q0_prime):
        """One seed, one schedule per site — whichever seam family mounts first."""

        def schedules(engine_first: bool):
            database = facebook.generate(scale=20, seed=9)
            access = facebook.access_schema(database.schema)
            engine = BoundedEngine(database, access, result_cache_size=0)
            shard = build_topology(database, access, shards=1, backends="memory").shards[0]
            injector = FaultInjector(seed=5)
            installs = [
                lambda: injector.install_engine(engine),
                lambda: injector.install_shard(shard),
            ]
            for install in installs if engine_first else reversed(installs):
                install()
            injector.configure("executor", FaultSpec(error_rate=0.5))
            injector.configure(f"{shard.name}.fetch", FaultSpec(error_rate=0.5))
            outcomes = {"executor": [], "fetch": []}
            for _ in range(12):
                for site, call in (
                    ("fetch", lambda: a_fetch(shard)),
                    ("executor", lambda: engine.execute(fb_q0_prime)),
                ):
                    try:
                        call()
                        outcomes[site].append("ok")
                    except TransientFault:
                        outcomes[site].append("fault")
            injector.uninstall()
            return outcomes

        first, second = schedules(True), schedules(False)
        assert first == second
        assert "fault" in first["executor"] and "ok" in first["executor"]
        assert "fault" in first["fetch"] and "ok" in first["fetch"]
