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
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    TransientFault,
)
from repro.core.planstore import PlanStore
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.serving.faults import FaultInjector, FaultSpec
from repro.serving.server import (
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
    return BoundedEngine(fb_database, fb_access, check_constraints=False)


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
        # snapshot reads every shard's clock).
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
        assert calls == {"fingerprint": 1, "plan_store": 1, "snapshot": shards or 1}


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
        prepared, _ = engine.prepare(fb_q0_prime)
        bound = prepared.plan.access_bound()
        config = ServerConfig(max_access_bound=bound - 1)
        results, server = serve(engine, [ReadRequest(query=fb_q0_prime)], config)
        (result,) = results
        assert isinstance(result, OverloadedError)
        assert "access bound" in str(result)
        assert server.metrics.sheds["cost"] == 1

    def test_cost_budget_admits_within_budget(self, engine, fb_q0_prime):
        prepared, _ = engine.prepare(fb_q0_prime)
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
    def test_broken_fallback_opens_breaker_and_rejects(self, engine, fb_database):
        query = uncovered_query(fb_database)
        with FaultInjector(seed=0) as injector:
            injector.configure("fallback", FaultSpec(error_rate=1.0))
            injector.install_engine(engine)
            config = ServerConfig(
                workers=1, breaker_failure_threshold=2, breaker_cooldown=60.0
            )
            requests = [ReadRequest(query=query) for _ in range(4)]
            results, server = serve(engine, requests, config)
        assert server.breaker.times_opened >= 1
        assert any(isinstance(r, CircuitOpenError) for r in results)
        assert server.metrics.sheds["breaker"] >= 1

    def test_covered_reads_survive_while_fallback_is_broken(
        self, engine, fb_database, fb_q0_prime
    ):
        query = uncovered_query(fb_database)
        with FaultInjector(seed=0) as injector:
            injector.configure("fallback", FaultSpec(error_rate=1.0))
            injector.install_engine(engine)
            config = ServerConfig(
                workers=1, breaker_failure_threshold=1, breaker_cooldown=60.0
            )
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


class TestStats:
    def test_stats_shape(self, engine, fb_q0_prime):
        _, server = serve(engine, [ReadRequest(query=fb_q0_prime)])
        stats = server.stats()
        assert set(stats) == {"serving", "breaker", "caches"}
        assert stats["serving"]["completed"] == 1
        assert "latency" in stats["serving"]
