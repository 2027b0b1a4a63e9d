"""Integration tests for :class:`repro.serving.server.BoundedServer`.

Each test drives the asyncio server inside ``asyncio.run`` from a sync test
function; the engine runs against the Example 1 facebook database, so every
assertion about served rows can be cross-checked against the reference
evaluator.
"""

import asyncio
from collections import Counter

import pytest

from repro.core import engine as engine_module
from repro.core.engine import BoundedEngine
from repro.core.errors import (
    CircuitOpenError,
    ConstraintViolation,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    TransientFault,
)
from repro.core.planstore import PlanStore
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.serving.faults import FaultInjector, FaultSpec
from repro.serving import server as server_module
from repro.serving.policy import Backoff
from repro.serving.server import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    MAX_ATTEMPTS,
    BoundedServer,
    ReadRequest,
    ServerConfig,
    WriteRequest,
)
from repro.sharding import build_topology
from repro.storage.counters import VersionClock

#: every event-loop run is bounded: a request whose future is never resolved
#: fails its test here instead of stalling the suite (no pytest-timeout)
RUN_TIMEOUT = 20.0


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, RUN_TIMEOUT))


@pytest.fixture
def engine(fb_database, fb_access) -> BoundedEngine:
    return BoundedEngine(fb_database, fb_access)


def uncovered_query(fb_database):
    """A full scan of ``friend``: no access constraint covers it, and there
    is no covered rewriting — it must take the conventional fallback."""
    from repro.core.query import Relation

    friend = Relation.from_schema(fb_database.schema, "friend")
    return friend.project([friend["pid"]])


def serve(engine, requests, config=None, **server_kwargs):
    """Run requests through a fresh server; returns results/exceptions in order."""

    async def _run():
        async with BoundedServer(engine, config, **server_kwargs) as server:
            tasks = [asyncio.ensure_future(server.submit(r)) for r in requests]
            return await asyncio.gather(*tasks, return_exceptions=True), server

    return run(_run())


class TestLifecycle:
    def test_submit_before_start_is_a_typed_error(self, engine, fb_q0_prime):
        server = BoundedServer(engine)
        with pytest.raises(ReproError, match="not started"):
            run(server.submit(ReadRequest(query=fb_q0_prime)))

    def test_submit_after_stop_is_refused_and_restart_serves(self, engine, fb_q0_prime):
        async def _run():
            server = BoundedServer(engine)
            await server.start()
            await server.stop()
            # a queue nobody drains would park this submit forever
            with pytest.raises(ReproError, match="not started"):
                await server.submit(ReadRequest(query=fb_q0_prime))
            async with server:
                return await server.submit(ReadRequest(query=fb_q0_prime))

        assert run(_run()).ok

    def test_unexpected_exception_reaches_the_caller_and_the_worker_survives(
        self, engine, fb_q0_prime, monkeypatch
    ):
        original = engine._executor.execute
        calls = []

        def buggy(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise KeyError("a bug below the serving tier")
            return original(*args, **kwargs)

        monkeypatch.setattr(engine._executor, "execute", buggy)
        results, server = serve(
            engine,
            [ReadRequest(query=fb_q0_prime), ReadRequest(query=fb_q0_prime)],
            ServerConfig(workers=1),
        )
        first, second = results
        assert isinstance(first, KeyError)
        assert second.ok and second.ladder == ("bounded",)  # same, only worker
        assert (server.metrics.failed, server.metrics.completed) == (1, 1)

    def test_a_second_start_keeps_the_one_set_of_workers(self, engine, fb_q0_prime):
        def workers():
            return [t for t in asyncio.all_tasks() if t.get_name().startswith("bounded-serve-")]

        async def _run():
            server = BoundedServer(engine, ServerConfig(workers=2))
            await server.start()
            first = workers()
            await server.start()
            again = workers()
            response = await server.submit(ReadRequest(query=fb_q0_prime))
            await server.stop()
            return first, again, response

        first, again, response = run(_run())
        assert len(first) == 2 and set(again) == set(first)
        assert response.ok

    def test_stop_before_start_is_a_no_op(self, engine, fb_q0_prime):
        async def _run():
            server = BoundedServer(engine)
            await server.stop()
            async with server:
                return await server.submit(ReadRequest(query=fb_q0_prime))

        assert run(_run()).ok

    def test_breaker_is_mounted_on_the_engine(self, engine):
        server = BoundedServer(engine)
        assert engine.fallback_breaker is server.breaker


class TestReads:
    def test_covered_read_serves_reference_rows(self, engine, fb_q0_prime, fb_database):
        results, server = serve(engine, [ReadRequest(query=fb_q0_prime)])
        (response,) = results
        assert response.ok
        assert response.strategy == "bounded"
        assert response.ladder == ("bounded",)
        assert response.snapshot_valid
        assert response.rows == evaluate(fb_q0_prime, fb_database).rows

    def test_repeat_read_lands_on_the_result_cache_rung(self, engine, fb_q0_prime):
        results, server = serve(
            engine, [ReadRequest(query=fb_q0_prime), ReadRequest(query=fb_q0_prime)]
        )
        strategies = sorted(r.strategy for r in results)
        assert strategies == ["bounded", "result_cache"]
        assert server.metrics.ladder["result_cache"] == 1

    def test_uncovered_read_degrades_to_conventional(self, engine, fb_database):
        query = uncovered_query(fb_database)
        results, server = serve(engine, [ReadRequest(query=query)])
        (response,) = results
        if isinstance(response, BaseException):
            raise response
        assert response.ok
        assert response.strategy == "conventional"
        assert response.ladder == ("uncovered", "conventional")
        assert response.rows == evaluate(query, fb_database).rows
        assert server.metrics.ladder["conventional"] == 1

    def test_post_check_runs_for_every_successful_read(self, engine, fb_q0_prime):
        audited = []
        results, _ = serve(
            engine,
            [ReadRequest(query=fb_q0_prime), ReadRequest(query=fb_q0_prime)],
            post_check=lambda query, result: audited.append(query),
        )
        assert all(r.ok for r in results)
        assert len(audited) == 2

    @pytest.mark.parametrize("shards", [None, 3], ids=["engine", "router-3-mixed"])
    def test_result_cache_hit_is_prepared_and_snapshotted_once(
        self, shards, engine, fb_database, fb_access, fb_q0_prime, monkeypatch
    ):
        # The server prepares nothing and snapshots nothing of its own: a hit
        # costs what ``ServingCore.execute`` costs (a federation's one
        # snapshot reads the one clock its shards share).
        core = engine if shards is None else build_topology(
            fb_database, fb_access, shards=shards
        )
        core.execute(fb_q0_prime)  # fill both caches
        calls = Counter()

        def counted(name, function):
            def counting(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counting

        monkeypatch.setattr(
            engine_module,
            "prepared_cache_key",
            counted("fingerprint", engine_module.prepared_cache_key),
        )
        monkeypatch.setattr(PlanStore, "get", counted("plan_store", PlanStore.get))
        monkeypatch.setattr(
            VersionClock, "snapshot", counted("snapshot", VersionClock.snapshot)
        )
        results, _ = serve(core, [ReadRequest(query=fb_q0_prime)])
        assert results[0].ladder == ("result_cache",)
        assert calls == {"fingerprint": 1, "plan_store": 1, "snapshot": 1}


class TestInlineHits:
    """``submit`` answers a result-cache hit on the caller's turn and queues the rest."""

    @staticmethod
    def second_read(engine, query, *, queued, **server_kwargs):
        """``query`` read twice on a fresh server: the second read is a hit.

        Submitted together, both miss the probe and queue, and the second
        finds the first's rows in the worker; submitted after the first is
        answered, it is a hit inside ``submit``.  Returns the second read's
        response (or the exception it raised) and the server.
        """

        async def _run():
            async with BoundedServer(engine, **server_kwargs) as server:
                request = ReadRequest(query=query)
                reads = [server.submit(request)]
                if queued:
                    reads.append(server.submit(request))
                else:
                    await reads.pop()
                    reads.append(server.submit(request))
                *_, response = await asyncio.gather(*reads, return_exceptions=True)
                return response, server

        return run(_run())

    @staticmethod
    def lookups(engine):
        stats = engine.cache_stats()
        return tuple(
            stats[cache]["hits"] + stats[cache]["misses"]
            for cache in ("plan_store", "result_cache")
        )

    def test_inline_and_queued_hits_are_indistinguishable(
        self, engine, fb_database, fb_access, fb_q0_prime
    ):
        outcomes = {}
        for queued, core in (
            (True, engine),
            (False, BoundedEngine(fb_database, fb_access)),
        ):
            audited = []
            response, server = self.second_read(
                core,
                fb_q0_prime,
                queued=queued,
                post_check=lambda query, result: audited.append(result.result_cached),
            )
            metrics = server.metrics
            assert metrics.inline_hits == (0 if queued else 1)
            assert metrics.queue_depth_peak == (2 if queued else 1)
            assert response.elapsed > 0
            outcomes[queued] = (
                (response.ok, response.strategy, response.ladder, response.attempts),
                (response.rows, response.columns, response.snapshot_valid),
                (response.error, response.report),
                (metrics.submitted, metrics.admitted, metrics.completed, metrics.failed),
                (dict(metrics.ladder), metrics.latency.count("result_cache")),
                (metrics.queue_depth, metrics.total_sheds, metrics.retries),
                audited,  # post_check ran once per read, the hit's last
                self.lookups(core),  # one read = one count in each cache
            )
        assert outcomes[True] == outcomes[False]
        head, *_, audited, lookups = outcomes[False]
        assert head == (True, "result_cache", ("result_cache",), 1)
        assert audited == [False, True]
        assert lookups == (2, 2)

    def test_a_failing_audit_fails_an_inline_hit_as_it_fails_a_queued_one(
        self, engine, fb_database, fb_access, fb_q0_prime
    ):
        def audit(query, result):
            assert not result.result_cached, "audit refuses the hit"

        outcomes = {}
        for queued, core in (
            (True, engine),
            (False, BoundedEngine(fb_database, fb_access)),
        ):
            error, server = self.second_read(core, fb_q0_prime, queued=queued, post_check=audit)
            assert isinstance(error, AssertionError) and "refuses the hit" in str(error)
            metrics = server.metrics
            outcomes[queued] = (
                (metrics.submitted, metrics.admitted, metrics.completed, metrics.failed),
                (dict(metrics.ladder), metrics.latency.count("result_cache")),
                (metrics.inline_hits, metrics.queue_depth, metrics.total_sheds),
            )
        assert outcomes[True] == outcomes[False]
        assert outcomes[False] == ((2, 2, 1, 1), ({"bounded": 1}, 0), (0, 0, 0))

    def test_a_miss_is_counted_once_though_it_was_probed_first(self, engine, fb_q0_prime):
        engine.prepare(fb_q0_prime)  # stored plan, no result: probe gets as far as the cache
        before = self.lookups(engine)
        results, server = serve(engine, [ReadRequest(query=fb_q0_prime)])
        assert results[0].ladder == ("bounded",) and results[0].attempts == 1
        assert self.lookups(engine) == (before[0] + 1, before[1] + 1)
        assert server.metrics.inline_hits == 0

    def test_admission_precedes_the_probe(self, engine, fb_q0_prime):
        engine.execute(fb_q0_prime)  # hot: every refusal below is of a read that would hit
        served = []
        audit = dict(post_check=lambda query, result: served.append(query))
        bound = engine.prepare(fb_q0_prime).plan.access_bound()
        hot = ReadRequest(query=fb_q0_prime)

        (expired,), server = serve(engine, [ReadRequest(query=fb_q0_prime, timeout=0.0)], **audit)
        assert isinstance(expired, DeadlineExceededError)
        assert server.metrics.sheds == {"deadline": 1}

        (costly,), server = serve(engine, [hot], ServerConfig(max_access_bound=bound - 1), **audit)
        assert isinstance(costly, OverloadedError) and "access bound" in str(costly)
        assert server.metrics.sheds == {"cost": 1}

        # a queued write fills the one-deep queue before the read arrives
        write = WriteRequest(updates=())
        (_, shed), server = serve(engine, [write, hot], ServerConfig(max_queue_depth=1), **audit)
        assert isinstance(shed, OverloadedError) and "queue is full" in str(shed)
        assert server.metrics.sheds == {"queue_full": 1}
        assert served == [] and server.metrics.inline_hits == 0

    def test_hit_overtakes_a_queued_write_and_serves_the_epoch_it_saw(self, hot_cold_setup):
        database, access, query = hot_cold_setup
        engine = BoundedEngine(database, access)
        audited = []

        def audit(query, result):  # the reference at the instant the rows are served
            audited.append(result.rows)
            assert result.rows == evaluate(query, database).rows

        async def _run():
            async with BoundedServer(engine, post_check=audit) as server:
                read = ReadRequest(query=query)
                filled = await server.submit(read)
                write = asyncio.ensure_future(
                    server.submit(WriteRequest(updates=(Update.insert("hot", ("a", 4)),)))
                )
                await asyncio.sleep(0)  # the write is admitted and queued; no worker has run
                assert (server.metrics.queue_depth, server.metrics.writes_applied) == (1, 0)
                overtaking = await server.submit(read)
                assert server.metrics.writes_applied == 0  # served without suspending
                acknowledged = await write
                after = await server.submit(read)
                return filled, overtaking, acknowledged, after, server

        filled, overtaking, acknowledged, after, server = run(_run())
        assert overtaking.rows == filled.rows == {(1,), (2,)}
        assert acknowledged.ok and acknowledged.report.applied == 1
        assert after.rows == {(1,), (2,), (4,)} == evaluate(query, database).rows
        assert after.ladder == ("result_cache",)  # repaired in place by the write
        assert audited == [filled.rows, overtaking.rows, after.rows]
        assert server.metrics.inline_hits == 2

    def test_a_federated_hit_is_served_while_every_shard_fetch_raises(
        self, fb_database, fb_access, fb_q0_prime
    ):
        # A probe's snapshot is one read of the shards' shared clock: a hit
        # calls no shard, so a federation whose every fetch fails still
        # serves what it has cached, on the caller's turn.
        router = build_topology(fb_database, fb_access, shards=3)
        rows = router.execute(fb_q0_prime).rows  # hot
        with FaultInjector(seed=0) as injector:
            for shard in router.shards:
                injector.install_shard(shard)
                injector.configure(f"{shard.name}.fetch", FaultSpec(fail_every=1))
            (result,), server = serve(router, [ReadRequest(query=fb_q0_prime)])
            assert all(injector.calls(f"{shard.name}.fetch") == 0 for shard in router.shards)
            # armed, not vacuous: a read that misses the cache fails
            router.result_cache.invalidate()
            with pytest.raises(TransientFault, match="injected"):
                router.execute(fb_q0_prime)
        assert (result.ladder, result.attempts, result.rows) == (("result_cache",), 1, rows)
        assert (server.metrics.inline_hits, server.metrics.queue_depth_peak) == (1, 0)


class TestAdmission:
    def test_queue_full_sheds_with_overloaded_error(self, engine, fb_q0_prime):
        config = ServerConfig(max_queue_depth=2, workers=1)
        requests = [ReadRequest(query=fb_q0_prime) for _ in range(30)]
        results, server = serve(engine, requests, config)
        sheds = [r for r in results if isinstance(r, OverloadedError)]
        served = [r for r in results if not isinstance(r, BaseException)]
        assert sheds, "burst beyond the queue depth must shed"
        assert served, "admitted requests must still be served"
        assert server.metrics.sheds["queue_full"] == len(sheds)
        assert server.metrics.queue_depth_peak <= config.max_queue_depth

    def test_cost_budget_sheds_expensive_covered_queries(self, engine, fb_q0_prime):
        prepared = engine.prepare(fb_q0_prime)
        bound = prepared.plan.access_bound()
        config = ServerConfig(max_access_bound=bound - 1)
        results, server = serve(engine, [ReadRequest(query=fb_q0_prime)], config)
        (result,) = results
        assert isinstance(result, OverloadedError)
        assert "access bound" in str(result)
        assert server.metrics.sheds["cost"] == 1

    def test_cost_budget_admits_within_budget(self, engine, fb_q0_prime):
        prepared = engine.prepare(fb_q0_prime)
        config = ServerConfig(max_access_bound=prepared.plan.access_bound())
        results, _ = serve(engine, [ReadRequest(query=fb_q0_prime)], config)
        assert results[0].ok

    def test_expired_deadline_is_refused(self, engine, fb_q0_prime):
        results, server = serve(
            engine, [ReadRequest(query=fb_q0_prime, timeout=0.0)]
        )
        (result,) = results
        assert isinstance(result, DeadlineExceededError)
        assert server.metrics.sheds["deadline"] == 1


    def test_a_deadline_spent_on_the_bounded_attempt_sheds_before_the_fallback(
        self, engine, fb_database, monkeypatch
    ):
        # The bounded attempt finds the query uncovered; by then the server's
        # clock has passed the deadline, so the unbounded fallback never runs.
        now = [0.0]
        original = engine.execute

        def slow(query, *args, **kwargs):
            now[0] += 5.0
            return original(query, *args, **kwargs)

        monkeypatch.setattr(engine, "execute", slow)
        request = ReadRequest(query=uncovered_query(fb_database), timeout=1.0)
        results, server = serve(engine, [request], clock=lambda: now[0])
        (result,) = results
        assert isinstance(result, DeadlineExceededError)
        assert "before fallback" in str(result)
        assert server.metrics.sheds["deadline"] == 1


class TestRetries:
    def test_transient_fault_is_retried_to_success(self, engine, fb_q0_prime):
        # Fail exactly the first executor call, then heal.
        calls = {"n": 0}
        original = engine._executor.execute

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientFault("first call fails")
            return original(*args, **kwargs)

        engine._executor.execute = flaky
        try:
            results, server = serve(engine, [ReadRequest(query=fb_q0_prime)])
        finally:
            del engine._executor.execute
        (response,) = results
        assert response.ok
        assert response.attempts == 2
        assert response.ladder == ("bounded:fault", "bounded")
        assert server.metrics.retries == 1

    def test_exhausted_retries_surface_the_fault(self, engine, fb_q0_prime):
        with FaultInjector(seed=0) as injector:
            injector.configure("executor", FaultSpec(error_rate=1.0))
            injector.install_engine(engine)
            results, server = serve(engine, [ReadRequest(query=fb_q0_prime)])
        (result,) = results
        assert isinstance(result, TransientFault)
        assert server.metrics.ladder["bounded_failed"] == 1

    @pytest.mark.parametrize("failures", range(MAX_ATTEMPTS + 1))
    def test_a_read_gets_max_attempts_tries(self, engine, fb_database, fb_q0_prime, failures):
        # The first ``failures`` executor calls fail: fewer than MAX_ATTEMPTS
        # is retried to success, MAX_ATTEMPTS of them surface the fault.
        calls = {"n": 0}
        original = engine._executor.execute

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise TransientFault(f"call {calls['n']} fails")
            return original(*args, **kwargs)

        engine._executor.execute = flaky
        try:
            results, server = serve(engine, [ReadRequest(query=fb_q0_prime)])
        finally:
            del engine._executor.execute
        (response,) = results
        tries = min(failures + 1, MAX_ATTEMPTS)
        assert calls["n"] == tries
        assert server.metrics.retries == tries - 1
        if failures < MAX_ATTEMPTS:
            assert response.ok and response.attempts == tries
            assert response.ladder == ("bounded:fault",) * failures + ("bounded",)
            assert response.rows == evaluate(fb_q0_prime, fb_database).rows
        else:
            assert isinstance(response, TransientFault)
            assert server.metrics.ladder["bounded_failed"] == 1

    def test_retry_sleeps_are_drawn_within_the_backoff_bounds(
        self, engine, fb_q0_prime, monkeypatch
    ):
        delays = []

        class RecordingBackoff(Backoff):
            def next_delay(self):
                delays.append(super().next_delay())
                return delays[-1]

        monkeypatch.setattr(server_module, "Backoff", RecordingBackoff)
        with FaultInjector(seed=0) as injector:
            injector.configure("executor", FaultSpec(error_rate=1.0))
            injector.install_engine(engine)
            results, server = serve(engine, [ReadRequest(query=fb_q0_prime)])
        assert isinstance(results[0], TransientFault)
        assert len(delays) == server.metrics.retries == MAX_ATTEMPTS - 1
        assert all(BACKOFF_BASE <= delay <= BACKOFF_CAP for delay in delays)

    def test_abandoned_epoch_guard_is_retried_as_a_fault_never_served(
        self, engine, fb_database, fb_q0_prime, monkeypatch
    ):
        # A write lands after each of the first three executions: the core's
        # guard (the only one) re-runs twice, gives up with a typed fault,
        # and the server's retry then reads the settled data.
        row = next(iter(fb_database.relation("cafe").rows))
        writes = iter(
            [Update.delete("cafe", row), Update.insert("cafe", row), Update.delete("cafe", row)]
        )
        original = engine._executor.execute
        executions = []

        def racing(*args, **kwargs):
            execution = original(*args, **kwargs)
            executions.append(execution)
            update = next(writes, None)
            if update is not None:
                engine.apply_updates([update])
            return execution

        served = []

        def audit(query, result):
            served.append(result.rows)
            assert result.rows == evaluate(query, fb_database).rows

        monkeypatch.setattr(engine._executor, "execute", racing)
        results, server = serve(engine, [ReadRequest(query=fb_q0_prime)], post_check=audit)
        (response,) = results
        assert response.ok and response.snapshot_valid
        assert response.ladder == ("bounded:fault", "bounded")
        assert (response.attempts, server.metrics.retries) == (2, 1)
        assert len(executions) == engine.max_snapshot_retries + 2
        assert served == [response.rows] == [evaluate(fb_q0_prime, fb_database).rows]


class TestBreaker:
    def test_broken_fallback_opens_breaker_and_rejects(self, engine, fb_database, monkeypatch):
        monkeypatch.setattr(server_module, "BREAKER_FAILURE_THRESHOLD", 2)
        monkeypatch.setattr(server_module, "BREAKER_COOLDOWN", 60.0)
        query = uncovered_query(fb_database)
        with FaultInjector(seed=0) as injector:
            injector.configure("fallback", FaultSpec(error_rate=1.0))
            injector.install_engine(engine)
            config = ServerConfig(workers=1)
            requests = [ReadRequest(query=query) for _ in range(4)]
            results, server = serve(engine, requests, config)
        assert server.breaker.times_opened >= 1
        assert any(isinstance(r, CircuitOpenError) for r in results)
        assert server.metrics.sheds["breaker"] >= 1

    def test_covered_reads_survive_while_fallback_is_broken(
        self, engine, fb_database, fb_q0_prime, monkeypatch
    ):
        monkeypatch.setattr(server_module, "BREAKER_FAILURE_THRESHOLD", 1)
        monkeypatch.setattr(server_module, "BREAKER_COOLDOWN", 60.0)
        query = uncovered_query(fb_database)
        with FaultInjector(seed=0) as injector:
            injector.configure("fallback", FaultSpec(error_rate=1.0))
            injector.install_engine(engine)
            config = ServerConfig(workers=1)
            requests = [
                ReadRequest(query=query),
                ReadRequest(query=fb_q0_prime),
                ReadRequest(query=query),
                ReadRequest(query=fb_q0_prime),
            ]
            results, server = serve(engine, requests, config)
        covered = [r for r in results if not isinstance(r, BaseException)]
        assert len(covered) == 2, "covered reads must be unaffected by the outage"
        assert all(r.rows == evaluate(fb_q0_prime, fb_database).rows for r in covered)


class TestWrites:
    def test_write_batch_applies_and_invalidates(self, engine, fb_database, fb_q0_prime):
        row = next(iter(fb_database.relation("cafe").rows))
        requests = [
            ReadRequest(query=fb_q0_prime),
            WriteRequest(updates=(Update.delete("cafe", row),)),
        ]

        async def _run():
            async with BoundedServer(engine) as server:
                first = await server.submit(requests[0])
                write = await server.submit(requests[1])
                second = await server.submit(requests[0])
                return first, write, second

        first, write, second = run(_run())
        assert write.ok and write.strategy == "write"
        assert write.report.applied == 1
        # The re-read reflects the write and matches the reference evaluator.
        assert second.rows == evaluate(fb_q0_prime, fb_database).rows

    def test_partial_write_failure_returns_report_not_exception(
        self, engine, fb_database
    ):
        cafe_rows = list(fb_database.relation("cafe").rows)[:3]
        updates = tuple(Update.delete("cafe", row) for row in cafe_rows)
        with FaultInjector(seed=0) as injector:
            injector.configure("storage.write", FaultSpec(fail_every=2))
            injector.install_writes(fb_database, ["cafe"])
            results, server = serve(engine, [WriteRequest(updates=updates)])
        (response,) = results
        assert not response.ok
        assert response.strategy == "write_failed"
        assert response.ladder == ("write:partial_failure",)
        assert response.report is not None and response.report.failed
        assert response.report.applied == 1  # the clean prefix before the fault
        assert server.metrics.write_failures == 1
        # Reads after the partial batch still match the reference exactly.
        from repro.workloads import facebook

        q = facebook.query_q0_prime()
        read_results, _ = serve(engine, [ReadRequest(query=q)])
        assert read_results[0].rows == evaluate(q, fb_database).rows


    def test_write_that_breaks_a_bound_is_rejected_and_changes_nothing(
        self, engine, fb_database, fb_access
    ):
        from repro.core.query import Relation, eq

        cafe = Relation.from_schema(fb_database.schema, "cafe")
        query = cafe.select(eq(cafe["cid"], "c0")).project([cafe["city"]])
        rows = evaluate(query, fb_database).rows
        batch = (Update.insert("cafe", ("c0", "atlantis")), Update.insert("cafe", ("c0", "mu")))
        (write, read), server = serve(
            engine,
            [WriteRequest(updates=batch), ReadRequest(query=query)],
            ServerConfig(workers=1),
        )
        assert (write.ok, write.strategy) == (False, "write_rejected")
        assert write.ladder == ("write:rejected",)
        assert isinstance(write.error, ConstraintViolation) and write.report is None
        assert read.rows == rows == evaluate(query, fb_database).rows
        assert fb_database.violations(fb_access) == []
        serving = server.stats()["serving"]
        assert serving["ladder"]["write_rejected"] == 1
        assert (serving["writes_applied"], serving["write_failures"]) == (0, 0)


class TestStats:
    def test_stats_shape(self, engine, fb_q0_prime):
        _, server = serve(engine, [ReadRequest(query=fb_q0_prime)])
        stats = server.stats()
        assert set(stats) == {"serving", "breaker", "caches"}
        assert stats["serving"]["completed"] == 1
        assert "latency" in stats["serving"]
