"""The federated fetch step against a reference scatter, and its call-time seams.

``ShardRouter.fetcher`` settles per fetch step, at compile time, everything
the step fixes, and returns a closure that does only the shard lookups.  The
reference below is the scatter as the router's module docstring states it,
re-derived on every call: the compiled closures must match it in rows, in
what the shards count and in what the router reports.  What must *not* be
settled at compile time — each shard's ``fetch`` (the fault injector wraps
it per instance) and each key's owner (a rebalance adds overrides) — is
pinned by changing it between a compiled read and the next.
"""

from collections import Counter

import pytest
from analytic_queries import ANALYTIC_SCALE, analytic_queries

from repro.bench.experiments import select_covered_queries
from repro.core.errors import TransientFault
from repro.core.query import Relation, eq
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor
from repro.serving.faults import FaultInjector, FaultSpec
from repro.sharding import SQLiteShard, build_topology
from repro.workloads import WORKLOADS, facebook

#: the RouterMetrics counters a scatter moves
SCATTER_COUNTERS = ("scatters", "routed", "broadcasts", "shard_fetches", "merges", "merge_rows")


class ReferenceScatter:
    """A fetch source over ``router``'s shards, deciding everything per call."""

    def __init__(self, router):
        self.router = router
        self.counts = Counter()

    def fetcher(self, plan, step):
        constraint = step.op.constraint
        base = plan.base_relation(constraint)

        def fetch(keys, counter):
            lhs = sorted(constraint.lhs)
            attribute = self.router.partitioner.attribute(base)
            asked = {}
            if keys and attribute in lhs:  # each key to the shard that owns it
                for key in keys:
                    owner = self.router.partitioner.shard_for_value(
                        base, key[lhs.index(attribute)]
                    )
                    asked.setdefault(owner, []).append(key)
                self.counts["routed"] += 1
            elif keys:  # the key does not name an owner: ask every shard
                asked = dict.fromkeys(range(len(self.router.shards)), keys)
                self.counts["broadcasts"] += 1
            merged = set()
            for owner in sorted(asked):  # each shard counts what it returns
                merged |= self.router.shards[owner].fetch(constraint, base, asked[owner], counter)
            self.counts.update(
                scatters=1, shard_fetches=len(asked), merges=1, merge_rows=len(merged)
            )
            return merged

        return fetch


def scatter_counts(router) -> dict:
    return {name: getattr(router.metrics, name) for name in SCATTER_COUNTERS}


def mixed_router(database, access):
    return build_topology(
        database, access, shards=3, backends=["memory", "sqlite", "memory"], result_cache_size=0
    )


def close(router):
    for shard in router.shards:
        if isinstance(shard, SQLiteShard):
            shard.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_compiled_scatter_matches_the_reference_scatter(name):
    workload = WORKLOADS[name]
    database = workload.database(scale=ANALYTIC_SCALE, seed=7)
    router = mixed_router(database, workload.access_schema)
    queries = analytic_queries(workload)
    if name == "TFACC":
        queries += select_covered_queries(workload, count=12, seed=3, database=database)
    totals = Counter()
    try:
        for query in queries:
            plan = router.prepare(query)[0].executable
            reference = ReferenceScatter(router)
            expected = PlanExecutor(reference).execute(plan)
            before = scatter_counts(router)
            federated = router._executor.execute(plan)
            moved = {k: v - before[k] for k, v in scatter_counts(router).items()}
            assert federated.rows == expected.rows
            for field in ("fetched", "index_probes", "per_relation"):
                assert getattr(federated.counter, field) == getattr(expected.counter, field)
            assert moved == {k: reference.counts[k] for k in SCATTER_COUNTERS}
            totals.update(reference.counts)
            totals["answered"] += bool(expected.rows)
    finally:
        close(router)
    # not vacuous: answers with rows, and both kinds of scatter ran
    assert totals["answered"] >= len(analytic_queries(workload))
    assert totals["routed"] > 0 and totals["broadcasts"] > 0


def friends_of(person: str):
    """``π_fid σ_pid=person friend``: one fetch, routed to ``person``'s shard."""
    friend = Relation.from_schema(facebook.schema(), "friend")
    return friend.select(eq(friend["pid"], person)).project([friend["fid"]])


def compiled_read(router, query):
    """Read ``query`` once, so its kernels are compiled; returns the compiled plan."""
    router.execute(query)
    return router._executor.compile(router.prepare(query)[0].executable)


class TestSeamsStayLiveAfterCompile:
    def test_a_fetch_fault_installed_after_compile_fails_over(self):
        database = facebook.generate(scale=30, seed=5)
        access = facebook.access_schema(database.schema)
        router = build_topology(database, access, shards=2, replicas=2, result_cache_size=0)
        query = friends_of("p0")
        compiled = compiled_read(router, query)
        owner = router.shards[router.partitioner.shard_for_value("friend", "p0")]
        victim = owner.replicas[0]  # the member that serves first
        with FaultInjector(seed=0) as injector:
            injector.install_shard(victim)
            injector.configure(f"{victim.name}.fetch", FaultSpec(fail_every=1))
            result = router.execute(query)
            assert injector.injected[f"{victim.name}.fetch"] == 1
        assert owner.failovers == 1
        assert result.rows == evaluate(query, database).rows != frozenset()
        # The router asks the set through whatever ``fetch`` it has now, too.
        with FaultInjector(seed=0) as injector:
            injector.install_shard(owner)
            injector.configure(f"{owner.name}.fetch", FaultSpec(fail_every=1))
            with pytest.raises(TransientFault, match="injected"):
                router.execute(query)
            assert injector.injected[f"{owner.name}.fetch"] == 1
        assert router._executor.compile(router.prepare(query)[0].executable) is compiled
        close(router)

    def test_a_partition_override_added_after_compile_reroutes_the_key(self):
        database = facebook.generate(scale=30, seed=5)
        access = facebook.access_schema(database.schema)
        router = build_topology(database, access, shards=2, result_cache_size=0)
        query = friends_of("p0")
        compiled = compiled_read(router, query)
        src = router.partitioner.shard_for_value("friend", "p0")
        dst = 1 - src
        # Move p0's friend rows by hand, as a rebalance does but without its
        # cache sweep: the plan store and the compiled kernels stay.
        moving = [row for row in router.shards[src].relation_rows("friend") if row[0] == "p0"]
        assert moving
        router.shards[dst].apply_updates([Update.insert("friend", row) for row in moving])
        router.partitioner.add_override("friend", "p0", "p0\0", src, dst)
        router.shards[src].apply_updates([Update.delete("friend", row) for row in moving])
        latency = router.metrics.latency
        asked = {i: latency.count(f"shard:{s.name}") for i, s in enumerate(router.shards)}
        result = router.execute(query)
        assert latency.count(f"shard:{router.shards[dst].name}") == asked[dst] + 1
        assert latency.count(f"shard:{router.shards[src].name}") == asked[src]
        assert result.rows == evaluate(query, database).rows != frozenset()
        assert router._executor.compile(router.prepare(query)[0].executable) is compiled
        close(router)
