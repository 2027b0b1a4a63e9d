"""The federated fetch step against a reference scatter, and its call-time seams.

``ShardRouter.fetcher`` settles per fetch step, at compile time, everything
the step fixes, and returns a closure that does only the shard lookups.  The
reference below is the scatter as the router's module docstring states it,
re-derived on every call: the compiled closures must match it in rows, in
what the shards count and in what the router reports.  What must *not* be
settled at compile time — each shard's ``fetch``, which the fault injector
wraps per instance — is pinned by changing it between a compiled read and
the next.

The scatter's fast paths are pinned here too: what a shard counts does not
depend on its backend, a shard's partial is a fresh set the router may hand
on or union into, a warm read compares no constraints (each step's is
interned), and one routing pass assigns every key the owner
``shard_for_value`` gives it (``tests/sharding/test_partition.py``).
"""

from collections import Counter

import pytest
from analytic_queries import ANALYTIC_SCALE, analytic_queries

from repro.bench.experiments import select_covered_queries
from repro.core.access import AccessConstraint
from repro.core.errors import StorageError, TransientFault
from repro.core.plan import FetchOp
from repro.core.query import Relation, eq
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor
from repro.serving.faults import FaultInjector, FaultSpec
from repro.sharding import SQLiteShard, build_topology
from repro.storage.counters import AccessCounter
from repro.storage.index import IndexSet
from repro.workloads import WORKLOADS, facebook

#: the RouterMetrics counters a scatter moves
SCATTER_COUNTERS = ("scatters", "routed", "broadcasts", "shard_fetches", "merges", "merge_rows")


class ReferenceScatter:
    """A fetch source over ``router``'s shards, deciding everything per call."""

    def __init__(self, router):
        self.router = router
        self.counts = Counter()

    def fetcher(self, plan, step, keys=None):
        constraint = step.op.constraint
        base = plan.base_relation(constraint)

        def fetch(keys, counter):
            lhs = sorted(constraint.lhs)
            attribute = self.router.partitioner.attribute(base)
            asked = {}
            if keys and attribute in lhs:  # each key to the shard that owns it
                for key in keys:
                    owner = self.router.partitioner.shard_for_value(key[lhs.index(attribute)])
                    asked.setdefault(owner, []).append(key)
                self.counts["routed"] += 1
            elif keys:  # the key does not name an owner: ask every shard
                asked = dict.fromkeys(range(len(self.router.shards)), keys)
                self.counts["broadcasts"] += 1
            merged, fetched = set(), 0
            for owner in sorted(asked):  # each shard counts what it returns
                partial = self.router.shards[owner].fetch(constraint, base, asked[owner], counter)
                merged |= partial
                fetched += len(partial)
            if fetched > len(merged):  # ... and a tuple two shards returned is one tuple
                counter.record_fetch_many(base, 0, len(merged) - fetched)
            self.counts.update(
                scatters=1, shard_fetches=len(asked), merges=1, merge_rows=len(merged)
            )
            return merged

        return fetch


def scatter_counts(router) -> dict:
    return {name: getattr(router.metrics, name) for name in SCATTER_COUNTERS}


def nonzero(per_relation: dict) -> dict:
    return {relation: count for relation, count in per_relation.items() if count}


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
    indexes = IndexSet.build(database, workload.access_schema)
    router = mixed_router(database, workload.access_schema)
    queries = analytic_queries(workload)
    if name == "TFACC":
        queries += select_covered_queries(workload, count=12, seed=3, database=database)
    totals = Counter()
    try:
        for query in queries:
            plan = router.prepare(query).executable
            reference = ReferenceScatter(router)
            expected = PlanExecutor(reference).execute(plan)
            before = scatter_counts(router)
            federated = router._executor.execute(plan)
            moved = {k: v - before[k] for k, v in scatter_counts(router).items()}
            assert federated.rows == expected.rows
            for field in ("fetched", "index_probes", "per_relation"):
                assert getattr(federated.counter, field) == getattr(expected.counter, field)
            # the tuples fetched are the one database's, however the shards split them
            local = PlanExecutor(indexes).execute(plan).counter
            assert nonzero(federated.counter.per_relation) == nonzero(local.per_relation)
            assert moved == {k: reference.counts[k] for k in SCATTER_COUNTERS}
            totals.update(reference.counts)
            totals["answered"] += bool(expected.rows)
    finally:
        close(router)
    # not vacuous: answers with rows, and both kinds of scatter ran
    assert totals["answered"] >= len(analytic_queries(workload))
    assert totals["routed"] > 0 and totals["broadcasts"] > 0


def scatter_queries(name, database):
    """The analytic queries of ``name``, and for TFACC a dozen covered ones."""
    workload = WORKLOADS[name]
    queries = analytic_queries(workload)
    if name == "TFACC":
        queries += select_covered_queries(workload, count=12, seed=3, database=database)
    return queries


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_memory_and_sqlite_federations_count_alike(name):
    """A shard records one index probe per key and each row it returns, on any
    backend: an all-memory and an all-SQLite federation count the same reads
    alike, every ``AccessCounter`` field."""
    workload = WORKLOADS[name]
    database = workload.database(scale=ANALYTIC_SCALE, seed=7)
    memory, sqlite = (
        build_topology(database, workload.access_schema, shards=3, backends=kind, result_cache_size=0)
        for kind in ("memory", "sqlite")
    )
    probes = fetches = 0
    try:
        for query in scatter_queries(name, database):
            before = memory.metrics.shard_fetches
            on_memory, on_sqlite = memory.execute(query), sqlite.execute(query)
            assert str(on_memory.plan) == str(on_sqlite.plan)
            assert on_memory.rows == on_sqlite.rows
            assert on_memory.counter == on_sqlite.counter
            probes += on_memory.counter.index_probes
            fetches += memory.metrics.shard_fetches - before
    finally:
        close(sqlite)
    # not vacuous: some shard was asked for several keys in one call
    assert probes > fetches


def friend_index_of(facebook_access):
    return next(
        c for c in facebook_access if c.relation == "friend" and c.lhs == {"pid"}
    )


class TestFreshPartials:
    """``Shard.fetch`` returns a new set on every call, which the caller owns."""

    @pytest.mark.parametrize("kind", ["memory", "sqlite", "faulted"])
    def test_a_partial_is_fresh_and_owned_by_the_caller(self, kind):
        database = facebook.generate(scale=30, seed=5)
        access = facebook.access_schema(database.schema)
        router = build_topology(
            database,
            access,
            shards=1,
            backends="sqlite" if kind == "sqlite" else "memory",
            result_cache_size=0,
        )
        shard = router.shards[0]
        constraint, keys = friend_index_of(access), [("p0",), ("p1",)]
        with FaultInjector(seed=0) as injector:
            if kind == "faulted":  # armed, but no call in this test is the one that fails
                injector.install_shard(shard)
                injector.configure(f"{shard.name}.fetch", FaultSpec(fail_every=1000))
            first = shard.fetch(constraint, "friend", keys, AccessCounter())
            second = shard.fetch(constraint, "friend", keys, AccessCounter())
            assert first == second != set() and first is not second
            expected = set(second)
            first.add(("intruder", "p0"))
            second.clear()
            third = shard.fetch(constraint, "friend", keys, AccessCounter())
            assert third == expected and third is not first and third is not second
            if kind == "faulted":
                assert injector.stats()[f"{shard.name}.fetch"]["calls"] == 3
        close(router)


def test_warm_federated_reads_compare_no_constraints(monkeypatch):
    """Every fetch step hands the shards the interned constraint their dicts
    were keyed by, so once warm a read matches each on identity alone."""
    workload = WORKLOADS["TFACC"]
    database = workload.database(scale=ANALYTIC_SCALE, seed=7)
    router = mixed_router(database, workload.access_schema)
    queries = scatter_queries("TFACC", database)
    first = [router.execute(query).rows for query in queries]
    compared = Counter()
    equal = AccessConstraint.__eq__

    def counted(self, other):
        compared["__eq__"] += 1
        return equal(self, other)

    monkeypatch.setattr(AccessConstraint, "__eq__", counted)
    try:
        assert [router.execute(query).rows for query in queries] == first
    finally:
        close(router)
    assert router.metrics.scatters > 2 * len(queries)
    assert compared["__eq__"] == 0


def friends_of(person: str):
    """``π_fid σ_pid=person friend``: one fetch, routed to ``person``'s shard."""
    friend = Relation.from_schema(facebook.schema(), "friend")
    return friend.select(eq(friend["pid"], person)).project([friend["fid"]])


def compiled_read(router, query):
    """Read ``query`` once, so its kernels are compiled; returns the compiled plan."""
    router.execute(query)
    return router._executor.compile(router.prepare(query).executable)


def fetch_step(router, query):
    """``(plan, its fetch step)`` of a one-fetch query's executable plan."""
    plan = router.prepare(query).executable
    return plan, next(step for step in plan.steps if isinstance(step.op, FetchOp))


def test_a_many_key_fetch_asks_each_owner_once():
    """A fetcher compiled for one key serves a key set spread over shards:
    each owner is asked once, and the rows are the one database's."""
    database = facebook.generate(scale=30, seed=5)
    access = facebook.access_schema(database.schema)
    router = build_topology(database, access, shards=3, result_cache_size=0)
    step = fetch_step(router, friends_of("p1"))
    fetch, local = router.fetcher(*step), IndexSet.build(database, access).fetcher(*step)
    asked = {(f"p{i}",) for i in range(6)}
    owners = {router.partitioner.shard_for_value(key[0]) for key in asked}
    latency = router.metrics.latency
    before = [latency.count(f"shard:{shard.name}") for shard in router.shards]
    assert fetch(asked, AccessCounter()) == local(asked, AccessCounter()) != set()
    after = [latency.count(f"shard:{shard.name}") for shard in router.shards]
    assert len(owners) > 1
    assert [a - b for a, b in zip(after, before)] == [int(i in owners) for i in range(3)]
    close(router)


def test_a_constant_key_fetch_handed_another_key_set_routes_it_per_call():
    """The split of a step's constant keys over their owners is fixed at
    compile time and used for that very set only: any other set, an equal
    copy included, is routed key by key when it comes."""
    database = facebook.generate(scale=30, seed=5)
    access = facebook.access_schema(database.schema)
    router = build_topology(database, access, shards=3, result_cache_size=0)
    plan, step = fetch_step(router, friends_of("p1"))
    constant = frozenset({("p1",)})
    fetch = router.fetcher(plan, step, constant)
    local = IndexSet.build(database, access).fetcher(plan, step)
    owner = router.partitioner.shard_for_value
    other = next(
        (f"p{i}",) for i in range(2, 30)
        if owner(f"p{i}") != owner("p1") and local({(f"p{i}",)}, AccessCounter())
    )
    handed = []  # (shard, the key set it was handed), per shard call
    for index, shard in enumerate(router.shards):
        # the compiled fetch looks each shard's fetch up per call
        def recording(constraint, base, keys, counter=None, _fetch=shard.fetch, _index=index):
            handed.append((_index, keys))
            return _fetch(constraint, base, keys, counter)

        shard.fetch = recording
    for keys in (constant, {other}, {other, ("p1",)}, set(constant), constant):
        handed.clear()
        assert fetch(keys, AccessCounter()) == local(keys, AccessCounter()) != set()
        assert sorted(index for index, _ in handed) == sorted({owner(key[0]) for key in keys})
        if len(handed) == 1:  # one owner gets the set the fetch was handed, not an equal one
            assert handed[0][1] is keys
    close(router)


def dine_visit(cid, pid):
    """``π_cid σ_cid=cid ∧ pid=pid dine``: one fetch through the ``(cid, pid)`` index."""
    dine = Relation.from_schema(facebook.schema(), "dine")
    return dine.select(eq(dine["cid"], cid)).select(eq(dine["pid"], pid)).project([dine["cid"]])


@pytest.mark.parametrize("kind", ["broadcast", "routed"])
def test_a_fetch_step_is_recorded_once_as_the_shards_recorded_it(kind):
    """The router records a fetch step once, over the merged result, and asks
    the shards with no counter: one probe per key on every shard asked, and
    each merged tuple once — what the shards' own records and the
    broadcast's duplicate correction (the reference scatter) come to."""
    database = facebook.generate(scale=30, seed=5)
    access = facebook.access_schema(database.schema)
    if kind == "broadcast":
        # dine split by month: a pair dined in several months is on several shards
        router = build_topology(
            database, access, shards=3, partition_keys={"dine": "month"}, result_cache_size=0
        )
        visits = Counter((cid, pid) for pid, cid, _, _ in database.relation("dine").rows)
        keys = {pair for pair, count in visits.items() if count > 1}
        plan, step = fetch_step(router, dine_visit(*min(keys)))
    else:
        router = build_topology(database, access, shards=3, result_cache_size=0)
        keys = {(f"p{i}",) for i in range(6)}
        plan, step = fetch_step(router, friends_of("p1"))
    counted, reference = AccessCounter(), AccessCounter()
    before = scatter_counts(router)
    rows = router.fetcher(plan, step)(keys, counted)
    assert rows == ReferenceScatter(router).fetcher(plan, step)(keys, reference) != set()
    for field in ("fetched", "index_probes", "per_relation", "scanned"):
        assert getattr(counted, field) == getattr(reference, field)
    moved = {k: v - before[k] for k, v in scatter_counts(router).items()}
    asked = moved["shard_fetches"]
    if kind == "broadcast":
        assert (moved["broadcasts"], asked) == (1, 3)
        assert (counted.fetched, counted.index_probes) == (len(rows), 3 * len(keys))
        # not vacuous: the shards returned some tuple twice
        partials = [shard.fetch(step.op.constraint, "dine", keys) for shard in router.shards]
        assert sum(map(len, partials)) > len(rows)
    else:
        assert moved["routed"] == 1 and asked > 1  # several owners asked
        assert (counted.fetched, counted.index_probes) == (len(rows), len(keys))
    close(router)


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_a_shard_refuses_a_fetch_through_a_constraint_it_has_no_index_of(kind):
    database = facebook.generate(scale=10, seed=1)
    access = facebook.access_schema(database.schema)
    router = build_topology(database, access, shards=1, backends=kind)
    stranger = AccessConstraint("cafe", frozenset({"city"}), frozenset({"cid"}), 50, "stranger")
    counter = AccessCounter()
    # the memory shard names the constraint, the SQLite one its missing table
    with pytest.raises(StorageError, match=r"no index for constraint|ind_cafe_city__cid"):
        router.shards[0].fetch(stranger, "cafe", [("nyc",)], counter)
    assert counter.total == 0
    close(router)


class TestSeamsStayLiveAfterCompile:
    def test_a_fetch_fault_installed_after_compile_reaches_the_caller(self):
        # The federation has no replicas: the owner's fault reaches the
        # caller, through the ``fetch`` the router looks up per call.
        database = facebook.generate(scale=30, seed=5)
        access = facebook.access_schema(database.schema)
        router = build_topology(database, access, shards=2, result_cache_size=0)
        query = friends_of("p0")
        compiled = compiled_read(router, query)
        owner = router.shards[router.partitioner.shard_for_value("p0")]
        with FaultInjector(seed=0) as injector:
            injector.install_shard(owner)
            injector.configure(f"{owner.name}.fetch", FaultSpec(fail_every=1))
            with pytest.raises(TransientFault, match="injected"):
                router.execute(query)
            assert injector.injected[f"{owner.name}.fetch"] == 1
        # uninstalled, the same compiled plan serves the reference rows
        result = router.execute(query)
        assert result.rows == evaluate(query, database).rows != frozenset()
        assert router._executor.compile(router.prepare(query).executable) is compiled
        close(router)
