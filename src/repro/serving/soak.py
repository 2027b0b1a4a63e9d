"""Seeded fault-injection soak: a randomized mixed read/write serving run.

The acceptance harness for the hardened tier.  One soak run drives a
:class:`~repro.serving.server.BoundedServer` over a generated workload
(:mod:`repro.workloads.generator`) with the
:class:`~repro.serving.faults.FaultInjector` armed at every seam, and checks
the robustness contract end to end:

* **No stale or torn reads, ever** — every served read is cross-checked
  row-for-row against the uncached reference evaluator
  (:func:`repro.evaluator.algebra.evaluate`) in the server's no-await
  ``post_check`` window, *including* reads right after mid-batch write
  failures (the core's epoch guard raises rather than serve a torn read,
  so rows that reach the cross-check are the only rows ever served).
* **Overload sheds, it does not queue unboundedly** — a burst of reads that
  need the queue (the result cache is emptied first), three times its depth,
  must produce :class:`~repro.core.errors.OverloadedError` sheds; the same
  burst of *cached* reads must be served in full, because a hit is answered
  inside ``submit`` and takes no queue slot.
* **Deadlines are honored** — already-expired requests fail with
  :class:`~repro.core.errors.DeadlineExceededError`.
* **The breaker isolates the unbounded fallback** — with the conventional
  path failing (100% injected faults + latency), the breaker must open,
  uncovered queries must degrade to typed rejections, and no covered read's
  ladder may hold a fallback rung (a count, not a time: the covered p99 is
  reported beside it, next to the injected fallback latency floor).
* **Mid-batch write failures surface and settle** — some update batches
  abort part-way (deterministic every-Nth write fault); the partial prefix
  must be kept, reported, and invisible to the cross-check above.
* **A write never breaks a bound** — the last batch overfills the group of
  the dependency constraint with the least headroom; it must come back
  ``write_rejected``, and the data must still satisfy every constraint.

Everything is derived from one seed, so a failing run is replayable bit for
bit.  Run it locally via ``python -m repro.cli soak`` (see README).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from itertools import cycle, islice

from ..bench.experiments import select_covered_queries
from ..core.engine import BoundedEngine
from ..core.errors import (
    DeadlineExceededError,
    NotCoveredError,
    OverloadedError,
    ReproError,
    TransientFault,
)
from ..core.query import Query
from ..discovery.maintenance import Update
from ..evaluator.algebra import evaluate
from ..workloads import WORKLOADS
from ..workloads.generator import RandomQueryGenerator
from .faults import FaultInjector, FaultSpec
from .server import BoundedServer, ReadRequest, ServerConfig, WriteRequest

#: updates per generated write batch
BATCH_SIZE = 6
#: phase-A requests in flight before the soak awaits them all
WAVE = 16
#: server worker tasks
WORKERS = 4
#: default per-request timeout, seconds
DEADLINE = 10.0
#: injected engine-seam fault intensities (armed when ``faults`` is set)
EXECUTOR_ERROR_RATE = 0.08
EXECUTOR_LATENCY = 0.0005
FALLBACK_LATENCY = 0.05
STORAGE_FAIL_EVERY = 17
#: flaky-shard fault intensities (armed when ``flaky_shard`` is set)
FLAKY_ERROR_RATE = 0.3
FLAKY_TORN_WRITE_EVERY = 5


@dataclass
class SoakConfig:
    """One soak run, fully determined by ``seed``.

    ``shards > 1`` serves through a federated
    :class:`~repro.sharding.router.ShardRouter` over a heterogeneous
    (memory/SQLite alternating) shard topology instead of a single engine.
    *Engine-seam* fault injection is disabled in sharded mode (those seams
    are engine-internal, and a partially-failed routed batch would leave
    the reference mirror ambiguous); sharded chaos instead targets the
    shard-fetch seam through the scenario flags below, which the replica
    layer must absorb without the mirror ever diverging:

    * ``kill_shard`` — mid-run, one replica of logical shard 0 goes dead
      (every fetch and write fails).  Reads must fail over to its sibling;
      its breaker or the first routed write quarantines it, and no probe
      re-admits it (its fetch keeps failing); served rows stay
      row-identical to the reference throughout.
    * ``flaky_shard`` — mid-run, one replica turns intermittently faulty
      (fetch errors + latency, periodic torn writes) and its replica set
      serves stale epoch tokens with some probability.  Failover, torn-
      write quarantine, catch-up and re-admission all cycle under load.
    * ``rebalance`` — mid-run, a key range of one dependency relation
      migrates between logical shards under traffic, epoch-guarded.

    ``kill_shard``/``flaky_shard`` force ``replicas`` to at least 2 (a
    faulted *sole* replica would correctly fail its routed portion, but
    then the mirror could not tell which prefix applied — with a sibling,
    the set absorbs the fault and the routed batch stays atomic at the
    federation level).
    """

    workload: str = "AIRCA"
    scale: int = 120
    seed: int = 0
    shards: int = 1
    replicas: int = 1
    requests: int = 200
    write_ratio: float = 0.2
    covered_queries: int = 8
    uncovered_queries: int = 3
    faults: bool = True
    verify: bool = True
    queue_depth: int = 32
    #: sharded chaos scenarios (need ``shards > 1``)
    kill_shard: bool = False
    flaky_shard: bool = False
    rebalance: bool = False
    #: flaky-shard fetch latency (only read when ``flaky_shard`` is set)
    flaky_latency: float = 0.002
    #: every Nth snapshot of the flaky set is its previous token (N ≥ 2: a
    #: read's retry always meets a fresh one, so none is abandoned)
    flaky_stale_snapshot_every: int = 7


@dataclass
class SoakOutcome:
    """Tallies of one soak run (the JSON report adds stats snapshots)."""

    reads_served: int = 0
    reads_verified: int = 0
    #: verified reads whose reference answer had rows: the generated covered
    #: queries are mostly contradictory, and an empty answer checks little
    reads_nonempty: int = 0
    mismatches: list[str] = field(default_factory=list)
    writes_ok: int = 0
    writes_partial: int = 0
    writes_rejected: int = 0
    shed_overload: int = 0
    shed_deadline: int = 0
    #: reads of the cached-query burst (3× the queue depth) that were served
    hot_burst_served: int = 0
    rejected_breaker: int = 0
    failed_transient: int = 0
    #: covered reads whose ladder took the ``uncovered`` rung, the one every
    #: fallback rung follows (served or not)
    covered_fallbacks: int = 0
    other_errors: list[str] = field(default_factory=list)


def _uncovered_queries(workload, database, seed: int, count: int) -> list[Query]:
    """Generate queries the access schema does **not** cover (fallback traffic)."""
    from ..core.coverage import check_coverage

    generator = RandomQueryGenerator(workload, database=database, seed=seed)
    found: list[Query] = []
    attempts = 0
    while len(found) < count and attempts < 300:
        attempts += 1
        query = generator.generate(
            n_sel=generator.rng.randint(1, 3),
            n_join=generator.rng.randint(0, 2),
            n_unidiff=0,
        )
        if not check_coverage(query, workload.access_schema).is_covered:
            found.append(query)
    return found


class _WriteStream:
    """Deterministic mixed delete/re-insert batches over live relations.

    Deletes sample currently-present rows; re-inserts draw from the pool of
    rows this stream previously deleted — so batches are real data changes
    that never violate the access constraints (shrinking a relation cannot
    grow a group, and re-inserting a previously-present row cannot either).
    """

    def __init__(self, database, relations: list[str], rng: random.Random):
        self.database = database
        self.relations = [r for r in relations if len(database.relation(r)) > 0]
        self.rng = rng
        self._removed: dict[str, list[tuple]] = {name: [] for name in self.relations}

    def next_batch(self, size: int) -> tuple[Update, ...]:
        updates: list[Update] = []
        for _ in range(size):
            name = self.rng.choice(self.relations)
            removed = self._removed[name]
            instance = self.database.relation(name)
            if removed and (self.rng.random() < 0.5 or len(instance) == 0):
                updates.append(Update.insert(name, removed.pop()))
            elif len(instance) > 0:
                row = self.rng.choice(instance.rows)
                removed.append(row)
                updates.append(Update.delete(name, row))
        return tuple(updates)


def _overfilling_batch(database, access_schema, relations) -> tuple[Update, ...]:
    """``headroom + 1`` copies, with fresh ``Y``-values, of a row of the group
    of ``relations``' constraints with the least headroom (ties broken by
    value, never by set order: the batch is the same under any hash seed)."""
    candidates = []
    for constraint in access_schema:
        if constraint.relation in relations:
            positions = database.schema[constraint.relation].positions
            x = positions(sorted(constraint.lhs))
            y = positions(sorted(constraint.rhs - constraint.lhs))
            groups: dict[tuple, list] = {}
            for row in database.relation(constraint.relation).rows:
                groups.setdefault(tuple(row[p] for p in x), []).append(row)
            for rows in groups.values():
                size = len({tuple(row[p] for p in y) for row in rows})
                donor = min(rows, key=repr)
                tightness = (constraint.bound - size, str(constraint), repr(donor))
                candidates.append((*tightness, constraint.relation, donor, y))
    headroom, _, _, relation, donor, fresh = min(candidates)
    batch = []
    for i in range(headroom + 1):
        row = list(donor)
        for p in fresh:
            row[p] = f"{row[p]}#{i}" if isinstance(row[p], str) else row[p] + 1_000_003 + i
        batch.append(Update.insert(relation, tuple(row)))
    return tuple(batch)


def run_soak(config: SoakConfig) -> dict:
    """Run one seeded soak and return its JSON-ready report (see ``passed``)."""
    if config.workload not in WORKLOADS:
        raise ReproError(
            f"unknown workload {config.workload!r}; pick one of {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[config.workload]
    database = workload.database(scale=config.scale, seed=config.seed)
    sharded = config.shards > 1
    faults_active = config.faults and not sharded
    scenario_active = config.kill_shard or config.flaky_shard or config.rebalance
    if scenario_active and not sharded:
        raise ReproError(
            "chaos scenarios (kill_shard / flaky_shard / rebalance) need shards > 1"
        )
    effective_replicas = config.replicas
    if (config.kill_shard or config.flaky_shard) and effective_replicas < 2:
        effective_replicas = 2
    # One injector for the whole stack: engine seams when unsharded, the
    # scenario flags' shard seams when sharded.
    injector = FaultInjector(seed=config.seed)
    scenario_log: dict = {}
    if sharded:
        from ..sharding import build_topology

        # ``database`` stays behind as the single-database *reference*: the
        # topology owns disjoint fragment copies, and the router's
        # write_observer mirrors every fully-applied routed batch back into
        # the reference — synchronously, inside the serving tier's no-await
        # write window — so ``post_check``'s reference evaluation and the
        # write stream's row sampling always see exactly the federation's
        # state.  Row-for-row identity of served reads against this
        # reference is the federated acceptance criterion.
        def _mirror(updates) -> None:
            for update in updates:
                instance = database.relation(update.relation)
                prepared = instance.prepare(update.row)
                if update.kind == "insert":
                    instance.insert(prepared)
                else:
                    instance.delete(prepared)

        engine = build_topology(
            database,
            workload.access_schema,
            shards=config.shards,
            replicas=effective_replicas,
            write_observer=_mirror,
        )
    else:
        engine = BoundedEngine(database, workload.access_schema)

    covered = select_covered_queries(
        workload, count=config.covered_queries, seed=config.seed, database=database
    )
    uncovered = _uncovered_queries(
        workload, database, seed=config.seed + 1, count=config.uncovered_queries
    )
    if not covered:
        raise ReproError(f"workload {config.workload}: no covered queries generated")

    # Writes target the covered queries' dependency relations, so batches
    # actually churn the result cache instead of idling on unrelated data.
    dependencies: set[str] = set()
    for query in covered:
        prepared = engine.prepare(query)
        dependencies.update(prepared.dependencies)
    rng = random.Random(config.seed)
    writes = _WriteStream(database, sorted(dependencies), rng)

    outcome = SoakOutcome()
    covered_ids = {id(query) for query in covered}
    execute = engine.execute

    def execute_watched(query: Query, **options):
        # The server's first call for a read is ``execute(fallback=False)``;
        # ``NotCoveredError`` there is the ladder's ``uncovered`` rung.
        try:
            return execute(query, **options)
        except NotCoveredError:
            outcome.covered_fallbacks += id(query) in covered_ids
            raise

    engine.execute = execute_watched

    def post_check(query: Query, result) -> None:
        outcome.reads_served += 1
        if not config.verify:
            return
        reference = evaluate(query, database).rows
        outcome.reads_verified += 1
        outcome.reads_nonempty += bool(reference)
        if result.rows != reference:
            outcome.mismatches.append(
                f"{len(result.rows)} rows served vs {len(reference)} reference "
                f"(strategy={result.strategy}) for:\n{query}"
            )

    if faults_active:
        injector.configure(
            "executor",
            FaultSpec(latency=EXECUTOR_LATENCY, error_rate=EXECUTOR_ERROR_RATE),
        )
        # The conventional path is fully broken: always slow, always failing.
        # The breaker must contain it.
        injector.configure("fallback", FaultSpec(latency=FALLBACK_LATENCY, error_rate=1.0))
        injector.configure("storage.write", FaultSpec(fail_every=STORAGE_FAIL_EVERY))
        injector.install_engine(engine)
        injector.install_writes(database)

    server_config = ServerConfig(
        max_queue_depth=config.queue_depth,
        workers=WORKERS,
        default_timeout=DEADLINE,
        seed=config.seed,
    )
    server = BoundedServer(engine, server_config, post_check=post_check)

    def _arm_chaos() -> None:
        """Turn the scenario faults on, mid-run (shard-fetch seam only)."""
        if config.kill_shard:
            target_set = engine.shards[0]
            victim = target_set.replicas[0]
            injector.kill(victim)
            scenario_log["killed_replica"] = victim.name
            # Exercise the failover read *before* the next routed write can
            # quarantine the dead member (a quarantined member never gets a
            # fetch, so failover would be unobservable): sweep the federated
            # result cache and scatter covered reads until one fetches
            # through the victim's set and fails over to its sibling.
            engine.result_cache.invalidate()
            before = target_set.failovers
            for query in covered:
                try:
                    engine.execute(query)
                except ReproError:
                    pass
                if target_set.failovers > before:
                    break
        if config.flaky_shard:
            target_set = engine.shards[min(1, len(engine.shards) - 1)]
            victim = target_set.replicas[0]
            injector.install_shard(victim)
            injector.configure(
                f"{victim.name}.fetch",
                FaultSpec(latency=config.flaky_latency, error_rate=FLAKY_ERROR_RATE),
            )
            injector.configure(
                f"{victim.name}.write",
                FaultSpec(torn_write_every=FLAKY_TORN_WRITE_EVERY),
            )
            # The *set* also starts reporting stale epoch tokens sometimes;
            # the router's merge-time validation must refuse to serve
            # through them (a retry or a typed TransientFault, never rows).
            injector.install_shard(target_set)
            injector.configure(
                f"{target_set.name}.snapshot",
                FaultSpec(stale_snapshot_every=config.flaky_stale_snapshot_every),
            )
            scenario_log["flaky_replica"] = victim.name

    def _run_rebalance() -> None:
        """Migrate the busiest dependency relation's middle key range."""
        relation = max(
            sorted(dependencies), key=lambda name: len(database.relation(name))
        )
        key = engine.partitioner.key
        values = sorted({key(relation, row) for row in database.relation(relation).rows})
        if len(values) < 4:
            scenario_log["rebalance"] = {"skipped": f"{relation}: too few keys"}
            return
        lo, hi = values[len(values) // 4], values[(3 * len(values)) // 4]
        owners: dict[int, int] = {}
        for value in values:
            if lo <= value < hi:
                owner = engine.partitioner.shard_for_value(relation, value)
                owners[owner] = owners.get(owner, 0) + 1
        src = max(owners, key=lambda index: owners[index])
        dst = (src + 1) % config.shards
        try:
            report = engine.rebalance(relation, (lo, hi), src, dst)
        except TransientFault as error:
            scenario_log["rebalance"] = {"aborted": str(error)}
        else:
            scenario_log["rebalance"] = report.snapshot()

    arm_at = config.requests // 3 if (config.kill_shard or config.flaky_shard) else None
    rebalance_at = (config.requests * 2) // 3 if config.rebalance else None

    async def _drive() -> None:
        async with server:
            # Phase A — randomized mixed read/write traffic, in waves small
            # enough that the queue never fills (phase D tests that).  The
            # chaos scenarios arm a third of the way in and the rebalance
            # runs two thirds in, so each sees pre-fault traffic, runs under
            # continuing traffic, and stays armed through phases B–E.
            pending: list[asyncio.Task] = []
            for issued in range(config.requests):
                if issued == arm_at or issued == rebalance_at:
                    await _settle(pending)
                    pending = []
                    if issued == arm_at:
                        _arm_chaos()
                    if issued == rebalance_at:
                        _run_rebalance()
                roll = rng.random()
                if roll < config.write_ratio:
                    request: ReadRequest | WriteRequest = WriteRequest(
                        updates=writes.next_batch(BATCH_SIZE)
                    )
                elif uncovered and roll < config.write_ratio + 0.1:
                    request = ReadRequest(query=rng.choice(uncovered))
                else:
                    request = ReadRequest(query=rng.choice(covered))
                pending.append(asyncio.ensure_future(server.submit(request)))
                if len(pending) >= WAVE:
                    await _settle(pending)
                    pending = []
            await _settle(pending)

            # Phase B — post-chaos audit: with faults still armed, every
            # covered query must serve rows identical to the uncached
            # reference (this is where a missed cache sweep after a partial
            # batch would surface as a stale read).  What it serves is now
            # cached at the current epoch: the hot set of phase C.
            hot: list[Query] = []
            for query in covered:
                (audit,) = await _settle([server.submit(ReadRequest(query=query))])
                if not isinstance(audit, BaseException):
                    hot.append(query)

            # Phase C — hot burst: 3× the queue depth of cached reads at once
            # against the idle server.  Hits are answered inside ``submit``
            # and take no queue slot, so all are served and none is shed.
            hits = await _settle(
                [
                    server.submit(ReadRequest(query=query))
                    for query in islice(cycle(hot), config.queue_depth * 3)
                ]
            )
            outcome.hot_burst_served = sum(
                not isinstance(result, BaseException) for result in hits
            )

            # Phase D — overload burst: 3× the queue depth at once, of reads
            # that cost something — the result cache is emptied first, so
            # each misses at ``submit``'s probe and needs a queue slot.
            # Admission must shed the excess instead of queueing it.
            engine.result_cache.invalidate()
            burst = [
                asyncio.ensure_future(server.submit(ReadRequest(query=rng.choice(covered))))
                for _ in range(config.queue_depth * 3)
            ]
            await _settle(burst)

            # Phase E — deadline probes: already-expired requests must be
            # refused with the typed deadline error, never served.
            probes = [
                asyncio.ensure_future(
                    server.submit(ReadRequest(query=rng.choice(covered), timeout=0.0))
                )
                for _ in range(3)
            ]
            await _settle(probes)

            # Phase F — a write that breaks a bound, faults uninstalled: it
            # must come back ``write_rejected`` and leave nothing behind.
            injector.uninstall()
            overfilling = _overfilling_batch(database, workload.access_schema, dependencies)
            await _settle([server.submit(WriteRequest(updates=overfilling))])

    async def _settle(requests: list) -> list:
        """Await ``requests`` (submit coroutines or their tasks), tallying every outcome."""
        results = await asyncio.gather(*requests, return_exceptions=True)
        for result in results:
            _tally(result)
        return results

    def _tally(result) -> None:
        if isinstance(result, DeadlineExceededError):
            outcome.shed_deadline += 1
        elif isinstance(result, OverloadedError):
            # CircuitOpenError subclasses OverloadedError: split on the rung.
            if "breaker" in str(result) or "circuit" in str(result):
                outcome.rejected_breaker += 1
            else:
                outcome.shed_overload += 1
        elif isinstance(result, TransientFault):
            outcome.failed_transient += 1
        elif isinstance(result, BaseException):
            outcome.other_errors.append(f"{type(result).__name__}: {result}")
        elif result.strategy == "write":
            outcome.writes_ok += 1
        elif result.strategy == "write_failed":
            outcome.writes_partial += 1
        elif result.strategy == "write_rejected":
            outcome.writes_rejected += 1

    try:
        asyncio.run(_drive())
    finally:
        injector.uninstall()

    stats = server.stats()
    covered_p99_ms = max(
        (stats["serving"]["latency"].get(key, {}).get("p99_ms", 0.0))
        for key in ("bounded", "result_cache")
    )
    checks = {
        "no_result_mismatches": not outcome.mismatches,
        "no_unexpected_errors": not outcome.other_errors,
        "overload_shed": outcome.shed_overload > 0,
        "hot_burst_not_shed": outcome.hot_burst_served == config.queue_depth * 3,
        "deadline_enforced": outcome.shed_deadline > 0,
        "reads_verified": outcome.reads_verified > 0 or not config.verify,
        "violating_write_rejected": outcome.writes_rejected == 1
        and database.violations(workload.access_schema) == [],
    }
    if faults_active:
        checks.update(
            {
                "breaker_opened": stats["breaker"]["times_opened"] > 0,
                "breaker_rejected_fallback": outcome.rejected_breaker > 0,
                "covered_reads_never_fell_back": outcome.covered_fallbacks == 0,
                "partial_write_batches_surfaced": outcome.writes_partial > 0,
            }
        )
    report_extra: dict = {}
    if sharded:
        router_stats = engine.stats()
        scatter = router_stats["scatter_gather"]
        replication = router_stats["replication"]
        # ``mixed_epoch_aborts`` counts reads the epoch guard abandoned.
        # Nothing moves under a read in this soak, so there must be none —
        # ``flaky_shard`` included: its set injects a stale epoch token on
        # every Nth snapshot (N ≥ 2), which fails the read's validation and
        # costs it one retry, never three in a row.
        abandoned = scatter["mixed_epoch_aborts"]
        checks.update(
            {
                # Every served read already row-matched the single-database
                # reference (no_result_mismatches); these pin the federation
                # mechanics: fetches actually scattered, every merge stayed
                # within one epoch per shard, and writes routed in batches.
                "federation_scattered": scatter["scatters"] > 0,
                "no_mixed_epoch_merges": abandoned == 0,
                "writes_routed": scatter["write_batches"] > 0,
            }
        )
        if config.kill_shard or config.flaky_shard:
            # The scenarios' own contract: faulted portions were recovered
            # on a sibling, and the faulty member left the rotation.
            checks["replica_failover_served"] = replication["failovers"] > 0
            checks["replica_quarantined"] = replication["quarantines"] > 0
        if config.flaky_shard:
            # Intermittent faults heal: the quarantined member must have
            # been caught up (and so re-admitted) at least once.
            checks["replica_caught_up"] = replication["catch_ups"] > 0
        if config.rebalance:
            checks["rebalance_completed"] = scatter["rebalances"] >= 1
            checks["rebalance_moved_rows"] = scatter["rebalance_rows_moved"] > 0
        report_extra["router"] = router_stats
        report_extra["shard_faults"] = injector.stats()
        if scenario_active:
            report_extra["scenario"] = scenario_log
    # Per-rung latency distribution (the degradation ladder: bounded,
    # result_cache, conventional, write, …) — the soak's tail-latency view,
    # read from the same recorder the serving tier reports.
    latency_rungs = {
        rung: {
            key: sample[key]
            for key in ("count", "p50_ms", "p95_ms", "p99_ms")
            if key in sample
        }
        for rung, sample in stats["serving"]["latency"].items()
    }
    return {
        "config": {
            "workload": config.workload,
            "scale": config.scale,
            "seed": config.seed,
            "shards": config.shards,
            "replicas": effective_replicas,
            "requests": config.requests,
            "faults": faults_active,
            "kill_shard": config.kill_shard,
            "flaky_shard": config.flaky_shard,
            "rebalance": config.rebalance,
            "verify": config.verify,
        },
        **report_extra,
        "outcome": {
            "reads_served": outcome.reads_served,
            "reads_verified": outcome.reads_verified,
            "reads_nonempty": outcome.reads_nonempty,
            "mismatches": outcome.mismatches[:5],
            "writes_ok": outcome.writes_ok,
            "writes_partial": outcome.writes_partial,
            "writes_rejected": outcome.writes_rejected,
            "shed_overload": outcome.shed_overload,
            "shed_deadline": outcome.shed_deadline,
            "hot_burst_served": outcome.hot_burst_served,
            "rejected_breaker": outcome.rejected_breaker,
            "failed_transient": outcome.failed_transient,
            "covered_fallbacks": outcome.covered_fallbacks,
            "other_errors": outcome.other_errors[:5],
        },
        "covered_p99_ms": covered_p99_ms,
        "latency_rungs": latency_rungs,
        "server": stats,
        "faults": {} if sharded else injector.stats(),
        "checks": checks,
        "passed": all(checks.values()),
    }
