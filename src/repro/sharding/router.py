"""Federated scatter/gather execution of bounded plans over shards.

:class:`ShardRouter` answers covered queries against data partitioned across
N heterogeneous shards (:mod:`repro.sharding.shards`) while keeping the
paper's guarantee intact: a covered query's cost is capped by
``access_bound()`` *regardless of how the data is distributed*, because only
**fetch steps** are scattered.  The soundness argument, and the reason whole
plans are *not* pushed to shards:

* For a fetch ``fetch(X ∈ keys, R, Y)``, the constraint-index content of the
  whole database is exactly the union of the per-fragment index contents
  (projection commutes with union), so fetching from every owning shard and
  unioning the partials *is* the single-database fetch.
* A join, by contrast, can pair a tuple on shard 0 with a tuple on shard 2;
  running the join per-shard and unioning would silently lose every
  cross-shard pair.  So joins, selections, projections, unions and
  differences all run **centrally** at the router, over the merged (and
  still bounded, ≤ ``access_bound()``) fetch results.

This is the decomposition of cubicweb's multi-source planner — steps
assigned to sources, results recombined — specialised to bounded plans,
where the split is trivial to place: fetches go out, algebra stays home.

When the fetch key includes the relation's partition attribute, the router
prunes the scatter to each key's single owning shard; otherwise it
broadcasts the key set to all shards.  Which of the two a fetch step is, the
key position of the partition attribute, the shards and the metrics they
report to are fixed per step, so :meth:`ShardRouter.fetcher` settles them
once, when the executor compiles the plan.  Two things are looked up on
every call instead, because they change after plans compile: each key's
owner (an online rebalance adds partition overrides) and each shard's
``fetch`` (fault injection wraps it per instance).

Merges are epoch-guarded: every shard's
:class:`~repro.storage.counters.VersionClock` is snapshotted before
execution and re-validated after (one clock read per shard each way), so a
merge never combines partials from different epochs of the same shard — a
racing write forces a bounded retry and, if the race persists, a typed
:class:`~repro.core.errors.TransientFault` (never a silently torn result).

The router is a :class:`~repro.core.engine.ServingCore` like
:class:`~repro.core.engine.BoundedEngine` — the same inherited ``prepare`` /
``execute`` / ``apply_updates`` / ``cache_stats``, differing on the write
side as on the read side by substrate hooks only (:meth:`ShardRouter.
_write` routes the batch to the shards' shared maintenance loop, and
:meth:`ShardRouter._group_of` reads a group back over all shards) — so
:class:`~repro.serving.server.BoundedServer` sits on top of a federation
unchanged.  The router keeps no clock of its own: the per-shard epochs above
are the only notion of "the data moved".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Collection, Sequence

from ..core.access import AccessConstraint, AccessSchema
from ..core.engine import ServingCore
from ..core.errors import MaintenanceError, ReproError, StorageError, TransientFault

# Unused here (``ServingCore`` fingerprints), but the layered benchmark's
# tracer wraps this module's binding by name and fails to install without it.
from ..core.fingerprint import prepared_cache_key  # noqa: F401
from ..core.plan import BoundedPlan, PlanStep
from ..core.query import Query
from ..discovery.maintenance import MaintenanceReport, Update
from ..serving.metrics import LatencyRecorder
from ..serving.policy import CircuitBreaker
from ..storage.counters import AccessCounter
from ..storage.database import Database
from ..storage.index import Fetch
from .partition import Partitioner
from .replica import ReplicaSet
from .shards import EngineShard, Shard, SQLiteShard

Row = tuple


@dataclass
class RebalanceReport:
    """Outcome of one key-range migration (:meth:`ShardRouter.rebalance`)."""

    relation: str
    lo: object
    hi: object
    src: str
    dst: str
    rows_moved: int = 0
    retries: int = 0
    #: destination-side inserts undone because the source epoch moved mid-copy
    rows_undone: int = 0
    completed: bool = False

    def snapshot(self) -> dict[str, object]:
        return {
            "relation": self.relation,
            "range": [repr(self.lo), repr(self.hi)],
            "src": self.src,
            "dst": self.dst,
            "rows_moved": self.rows_moved,
            "retries": self.retries,
            "rows_undone": self.rows_undone,
            "completed": self.completed,
        }


class RouterMetrics:
    """Scatter/gather observability: per-shard latency, merges, retries."""

    def __init__(self):
        #: federated fetch steps executed (one per FetchOp kernel run)
        self.scatters = 0
        #: per-shard fetch calls issued (≤ scatters × shard count)
        self.shard_fetches = 0
        #: scatters routed to owning shards only (partition-key pruning)
        self.routed = 0
        #: scatters sent to every shard (key does not include partition attr)
        self.broadcasts = 0
        #: merged-union sizes, aggregated
        self.merges = 0
        self.merge_rows = 0
        self.merge_rows_max = 0
        #: executions re-run because a shard epoch moved mid-merge
        self.snapshot_retries = 0
        #: executions abandoned after exhausting snapshot retries
        self.mixed_epoch_aborts = 0
        #: write batches routed through the shards
        self.write_batches = 0
        #: always zero: shards keep no partial cache; benchmarks/layered still reads them
        self.shard_cache_hits = 0
        self.shard_cache_misses = 0
        #: online key-range migrations: completed runs, rows they moved,
        #: and runs abandoned because the source epoch kept moving
        self.rebalances = 0
        self.rebalance_rows_moved = 0
        self.rebalance_aborts = 0
        self.latency = LatencyRecorder()

    def observe_merge(self, size: int) -> None:
        self.merges += 1
        self.merge_rows += size
        self.merge_rows_max = max(self.merge_rows_max, size)

    def snapshot(self) -> dict:
        """Everything, JSON-ready — joins the soak report."""
        return {
            "scatters": self.scatters,
            "shard_fetches": self.shard_fetches,
            "routed": self.routed,
            "broadcasts": self.broadcasts,
            "merges": self.merges,
            "merge_rows": self.merge_rows,
            "merge_rows_max": self.merge_rows_max,
            "merge_rows_mean": (self.merge_rows / self.merges) if self.merges else 0.0,
            "snapshot_retries": self.snapshot_retries,
            "mixed_epoch_aborts": self.mixed_epoch_aborts,
            "write_batches": self.write_batches,
            "rebalances": self.rebalances,
            "rebalance_rows_moved": self.rebalance_rows_moved,
            "rebalance_aborts": self.rebalance_aborts,
            "shard_latency": self.latency.snapshot(),
        }


class ShardRouter(ServingCore):
    """Routes covered queries and writes over a partitioned shard federation.

    The :class:`~repro.core.engine.ServingCore` over a federation: the
    router is its executor's fetch source (:meth:`fetcher` — fetch steps
    scatter to the owning shards, every other kernel runs centrally over
    the merged partials, on the same kernels as on one engine), a
    snapshot is every shard's epoch token over the plan's dependencies — so
    a cached federated result is served only while *no* shard has written a
    dependent relation, and a merge never mixes two epochs of one shard —
    and the conventional fallback evaluates over a gathered copy of the
    query's relations.  A direct shard write (bypassing the router) makes
    dependent entries ``stale`` at the next routed batch, never patched.

    ``shards`` and ``partitioner`` must agree on the shard count; the
    partitioner decides which shard owns each row (and, for pruned fetches,
    each key).

    ``write_observer``, when set, is called with every routed update batch
    after it fully applies — the seam the sharded soak uses to keep its
    single-database reference in lockstep with the federation.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        partitioner: Partitioner,
        access_schema: AccessSchema,
        *,
        plan_cache_size: int = 128,
        result_cache_size: int = 256,
        write_observer: Callable[[list], None] | None = None,
    ):
        if not shards:
            raise StorageError("a shard router needs at least one shard")
        if len(shards) != partitioner.shard_count:
            raise StorageError(
                f"partitioner is configured for {partitioner.shard_count} shards "
                f"but {len(shards)} were given"
            )
        super().__init__(
            access_schema,
            source=self,
            schema=partitioner.schema,
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
        )
        self.shards = list(shards)
        self.partitioner = partitioner
        self.write_observer = write_observer
        self.metrics = RouterMetrics()

    # -- the substrate: a federation of shards ----------------------------------------
    def _snapshot(self, relations: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(shard.snapshot(relations) for shard in self.shards)

    def _validate(
        self, relations: tuple[str, ...], snapshot: tuple[tuple[int, ...], ...]
    ) -> bool:
        return all(
            shard.validate(relations, part)
            for shard, part in zip(self.shards, snapshot)
        )

    def _tokens(self, relations: tuple[str, ...], snapshot: tuple[tuple[int, ...], ...]):
        # shard-major to relation-major: a relation's token is its version on every shard
        return zip(*snapshot)

    def _group_of(self, constraint: AccessConstraint, row: Row) -> set[Row]:
        """The union of every shard's share: a group spans shards when the
        partition attribute is not in ``X``, each share within ``N`` alone."""
        return set().union(*(shard.group_of(constraint, row) for shard in self.shards))

    def _snapshot_retried(self, *, abandoned: bool) -> None:
        if abandoned:
            self.metrics.mixed_epoch_aborts += 1
        else:
            self.metrics.snapshot_retries += 1

    def _evaluate_conventionally(self, query: Query):
        """Conventional evaluation over a gathered copy of the query's relations.

        Uncovered queries have no bounded plan to scatter, so the router
        gathers the full fragments of every relation the query mentions into
        a scratch database and evaluates there — the honest cost of an
        unbounded query over a federation.  Gathered by *base* relation:
        occurrences may be renamed, but the fragments (and the scratch
        schema) hold base relations only.
        """
        relations = tuple(dict.fromkeys(r.base for r in query.relations()))
        return self._fallback_evaluator(
            query, self._gather(relations), self.access_schema, None
        )

    def fetcher(self, plan: BoundedPlan, step: PlanStep) -> Fetch:
        """The federated fetch source: ``step``'s fetch as one scatter/gather.

        The executor's seam (see :meth:`repro.storage.index.IndexSet.fetcher`,
        the local implementation).  Fetch keys are aligned with
        ``sorted(lhs)``; when the partition attribute is part of the key,
        each key names its owning shard and the scatter is pruned to it.
        (Constraint attributes are base attribute names even for renamed
        occurrences — only relation names are actualized.)  The merged union
        is a set, the kernels' intermediate, and it is what the counter
        keeps: a broadcast tuple that two shards both hold is counted once,
        so a federated fetch counts what the one-database fetch counts.

        Settled here, once per step: routed or broadcast, the key position,
        the shards with their latency labels, the metrics.  Looked up per
        call, as they change after compile: each key's owner (rebalance
        overrides) and each shard's ``fetch`` (the fault injector wraps it on
        the instance, the layered benchmark's tracer on the class).
        """
        constraint = step.op.constraint
        base = plan.base_relation(constraint)
        lhs = sorted(constraint.lhs)
        partition_attribute = self.partitioner.attribute(base)
        partitioner, metrics, clock = self.partitioner, self.metrics, time.perf_counter
        observe = metrics.latency.observe
        # each shard with its series in ``metrics.latency``
        shards = tuple((shard, f"shard:{shard.name}") for shard in self.shards)

        # Either closure asks no shard for no keys (the SQLite empty-LHS path
        # would return its whole index table), else each asked shard in order.
        if partition_attribute not in lhs:

            def broadcast(keys: Collection[Row], counter: AccessCounter) -> set[Row]:
                metrics.scatters += 1
                merged: set[Row] = set()
                if keys:
                    metrics.broadcasts += 1
                    fetched = 0
                    for shard, label in shards:
                        started = clock()
                        partial = shard.fetch(constraint, base, keys, counter)
                        observe(label, clock() - started)
                        metrics.shard_fetches += 1
                        fetched += len(partial)
                        merged.update(partial)
                    if fetched > len(merged):
                        # a tuple two shards both hold is one tuple of D_Q
                        counter.record_fetch_many(base, 0, len(merged) - fetched)
                metrics.observe_merge(len(merged))
                return merged

            return broadcast

        position = lhs.index(partition_attribute)

        def routed(keys: Collection[Row], counter: AccessCounter) -> set[Row]:
            metrics.scatters += 1
            merged: set[Row] = set()
            if keys:
                owner_of = partitioner.shard_for_value
                groups: dict[int, list[Row]] = {}
                for key in keys:
                    groups.setdefault(owner_of(base, key[position]), []).append(key)
                metrics.routed += 1
                for owner in sorted(groups):
                    shard, label = shards[owner]
                    started = clock()
                    partial = shard.fetch(constraint, base, groups[owner], counter)
                    observe(label, clock() - started)
                    metrics.shard_fetches += 1
                    merged.update(partial)
            metrics.observe_merge(len(merged))
            return merged

        return routed

    def _gather(self, relations: tuple[str, ...]) -> Database:
        """Union the shards' fragments of ``relations`` into a scratch database."""
        for _attempt in range(self.max_snapshot_retries + 1):
            snapshot = self._snapshot(relations)
            scratch = Database(self.partitioner.schema)
            for shard in self.shards:
                for name in relations:
                    rows = shard.relation_rows(name)
                    if rows:
                        scratch.insert_many(name, rows)
            if self._validate(relations, snapshot):
                return scratch
            self._snapshot_retried(abandoned=False)
        self._snapshot_retried(abandoned=True)
        raise TransientFault(
            "federated gather abandoned: shard epochs kept moving; retry later"
        )

    # -- writes ---------------------------------------------------------------------
    def _write(self, updates: list[Update]) -> MaintenanceReport:
        """Route the batch to its owning shards and apply each portion batched.

        Updates to the same row always carry the same partition key, so they
        route to the same shard and their relative order is preserved;
        cross-row updates commute.  Each shard applies its portion through
        the shared maintenance loop (one shard-clock bump per portion).  The
        merged report's ``version`` stays ``None``: a federation has one
        epoch per shard, not a single data version.

        If a shard aborts its portion, portions already applied stay applied
        (there is no cross-shard transaction — by design: each portion is
        itself atomic-enough under the single-writer serving tier) and a
        :class:`~repro.core.errors.MaintenanceError` carrying the merged
        partial report propagates.
        """
        self.metrics.write_batches += 1
        batches: list[list[Update]] = [[] for _ in self.shards]
        for update in updates:
            owner = self.partitioner.shard_for_row(update.relation, update.row)
            batches[owner].append(update)
        merged = MaintenanceReport()
        for shard, batch in zip(self.shards, batches):
            if not batch:
                continue
            try:
                merged.absorb(shard.apply_updates(batch))
            except MaintenanceError as error:
                if error.report is not None:
                    merged.absorb(error.report)
                merged.failed = True
                merged.failed_update = getattr(error.report, "failed_update", None)
                merged.error = str(error)
                raise MaintenanceError(str(error), report=merged) from error
        if self.write_observer is not None and updates:
            # portion by portion, the order the federation applied them in
            self.write_observer([update for batch in batches for update in batch])
        return merged

    # -- rebalancing ----------------------------------------------------------------
    def rebalance(
        self, relation: str, key_range: tuple, src: int, dst: int
    ) -> RebalanceReport:
        """Migrate ``relation``'s partition keys in ``[lo, hi)`` from shard
        ``src`` to shard ``dst``, under traffic.

        Rebalancing must serve correct reads *throughout* — it is affordable
        at all because of the paper's boundedness: the rows in a key range
        of one relation are a bounded, enumerable set, not a table scan.
        The protocol mirrors a routed write batch's epoch discipline:

        1. **Copy** — the source shard's rows of the relation whose
           partition-key value falls in ``[lo, hi)`` are inserted into the
           destination through its own write path (indexes maintained).
           During this window the rows exist on both shards; that is safe
           because fetch merges are set unions (broadcast fetches dedup the
           double presence) and routed fetches still consult the
           *pre-flip* map, which sends the range's keys to the source.
        2. **Verify** — the source's epoch is re-validated against the
           snapshot taken before the copy.  If a routed write landed on the
           source mid-copy, the copied rows may be a torn mixture, so the
           copy is undone on the destination and the whole step retries;
           after ``max_snapshot_retries`` failures a
           :class:`~repro.core.errors.TransientFault` propagates (never a
           torn layout) — exactly the merge contract.
        3. **Flip** — one :meth:`Partitioner.add_override` call (the
           single-threaded serving loop makes it one operation between
           requests) redirects the range's keys to the destination for
           fetch routing *and* write routing.
        4. **Drop** — the source deletes its now-foreign copies.  Broadcast
           fetches during this tail window still union both fragments,
           which is again dedup-safe.

        A destination that fails the copy has it undone and the run aborts
        with a :class:`~repro.core.errors.TransientFault`; the flip never
        happened, so reads stay on the source.  Afterwards the result cache
        is swept over the relation: contents did not change, but a layout
        change is settled conservatively, like a routed batch with no
        derivable delta.
        """
        lo, hi = key_range
        if src == dst:
            raise StorageError("rebalance source and destination must differ")
        for index in (src, dst):
            if not (0 <= index < len(self.shards)):
                raise StorageError(
                    f"rebalance shard index {index} out of range for "
                    f"{len(self.shards)} shards"
                )
        src_shard, dst_shard = self.shards[src], self.shards[dst]
        key, metrics = self.partitioner.key, self.metrics
        report = RebalanceReport(
            relation=relation, lo=lo, hi=hi, src=src_shard.name, dst=dst_shard.name
        )

        for _attempt in range(self.max_snapshot_retries + 1):
            epoch = src_shard.snapshot((relation,))
            moving: list[Row] = []
            for row in src_shard.relation_rows(relation):
                try:
                    in_range = lo <= key(relation, row) < hi
                except TypeError:
                    continue
                if in_range:
                    moving.append(row)
            if not moving:
                # Nothing to copy: an empty range is trivially
                # epoch-consistent, so flip at once and future writes route
                # to the destination.
                self.partitioner.add_override(relation, lo, hi, src, dst)
                report.completed = True
                break
            try:
                dst_shard.apply_updates([Update.insert(relation, row) for row in moving])
            except ReproError as error:
                # A faulting destination may have applied a prefix; undo it
                # (deleting a never-copied row is a harmless skip) so no
                # stale copy can leak into a later broadcast merge.
                try:
                    dst_shard.apply_updates(
                        [Update.delete(relation, row) for row in moving]
                    )
                except ReproError:
                    pass
                metrics.rebalance_aborts += 1
                raise TransientFault(
                    f"rebalance of {relation!r} aborted: destination "
                    f"{dst_shard.name!r} failed the copy ({error})"
                ) from error
            if src_shard.validate((relation,), epoch):
                self.partitioner.add_override(relation, lo, hi, src, dst)
                src_shard.apply_updates([Update.delete(relation, row) for row in moving])
                report.rows_moved = len(moving)
                report.completed = True
                break
            # A write raced the copy; the copied rows may span epochs.  Undo
            # on the destination (fragments are disjoint, so every copied row
            # is ours to remove) and retry against the new epoch.
            dst_shard.apply_updates([Update.delete(relation, row) for row in moving])
            report.rows_undone += len(moving)
            report.retries += 1
            metrics.snapshot_retries += 1

        if not report.completed:
            metrics.rebalance_aborts += 1
            raise TransientFault(
                f"rebalance of {relation!r} {lo!r}..{hi!r} abandoned after "
                f"{report.retries} retries: source epoch kept moving; retry later"
            )
        metrics.rebalances += 1
        metrics.rebalance_rows_moved += report.rows_moved
        # Result-cache entries keyed by per-shard snapshots are already
        # unservable (the copy/drop bumped shard clocks); the sweep keeps
        # memory honest and the counters visible.
        self._settle((relation,), (), None)
        return report

    # -- reporting ------------------------------------------------------------------
    def replication_stats(self) -> dict:
        """Replica/failover counters summed over the topology's replica sets.

        Plain (unreplicated) shards contribute zeros; the soak report reads
        this one aggregate instead of re-deriving it from per-shard detail.
        """
        sets = [s for s in self.shards if isinstance(s, ReplicaSet)]
        return {
            "replica_sets": len(sets),
            "replicas": sum(len(s.replicas) for s in sets),
            "quarantined": sum(
                breaker.state != CircuitBreaker.CLOSED
                for s in sets
                for breaker in s.breakers.values()
            ),
            "failovers": sum(s.failovers for s in sets),
            "quarantines": sum(s.quarantines for s in sets),
            "catch_ups": sum(s.catch_ups for s in sets),
            "rows_resynced": sum(s.rows_resynced for s in sets),
        }

    def stats(self) -> dict:
        """Topology, scatter/gather metrics, and cache statistics, JSON-ready."""
        return {
            "shards": [shard.stats() for shard in self.shards],
            "partition_overrides": self.partitioner.override_count,
            "replication": self.replication_stats(),
            "scatter_gather": self.metrics.snapshot(),
            "caches": self.cache_stats(),
        }


def _clone_fragment(fragment: Database) -> Database:
    """An identical copy of ``fragment`` — same rows, same clock history.

    Replicas must start in lockstep: the clone performs exactly the bump
    pattern :meth:`~repro.sharding.partition.Partitioner.partition` used to
    build the fragment (one ``insert_many`` per non-empty relation, in
    schema order), so member clocks agree and the replica set's lockstep
    validation holds from the first fetch.
    """
    copy = Database(fragment.schema)
    for relation in fragment:
        if len(relation):
            copy.insert_many(relation.schema.name, relation.rows)
    return copy


def build_topology(
    database: Database,
    access_schema: AccessSchema,
    *,
    shards: int = 2,
    replicas: int = 1,
    backends: Sequence[str] | str | None = None,
    partition_keys=None,
    result_cache_size: int = 256,
    write_observer: Callable[[list], None] | None = None,
) -> ShardRouter:
    """Partition ``database`` into a heterogeneous federation and wire a router.

    ``backends`` names each shard's substrate (``"memory"`` or ``"sqlite"``),
    either per-shard or as one string for all; the default alternates
    ``memory, sqlite, memory, …`` so that any multi-shard topology exercises
    one federated plan across *both* backends.  With ``replicas > 1`` each
    logical shard becomes a :class:`~repro.sharding.replica.ReplicaSet` of
    that many members holding identical fragment copies; member substrates
    alternate within the set too, so a federated fetch can fail over from a
    memory member to its SQLite sibling.  Queries are prepared once, at the
    router.
    ``database`` itself is left untouched; the shards own disjoint fragment
    copies.
    """
    partitioner = Partitioner(database.schema, shards, partition_keys)
    if replicas < 1:
        raise StorageError(f"replicas must be >= 1, got {replicas}")
    if backends is None:
        kinds = ["memory" if i % 2 == 0 else "sqlite" for i in range(shards)]
    elif isinstance(backends, str):
        kinds = [backends] * shards
    else:
        kinds = list(backends)
        if len(kinds) != shards:
            raise StorageError(
                f"{shards} shards need {shards} backend kinds, got {len(kinds)}"
            )

    def _make(kind: str, name: str, fragment: Database) -> Shard:
        if kind == "memory":
            return EngineShard(name, fragment, access_schema)
        if kind == "sqlite":
            return SQLiteShard(name, fragment, access_schema)
        raise StorageError(
            f"unknown shard backend {kind!r}; expected 'memory' or 'sqlite'"
        )

    fragments = partitioner.partition(database)
    built: list[Shard] = []
    for index, (kind, fragment) in enumerate(zip(kinds, fragments)):
        if replicas == 1:
            built.append(_make(kind, f"shard{index}-{kind}", fragment))
            continue
        members: list[Shard] = []
        for j in range(replicas):
            member_kind = (
                kind if j % 2 == 0 else ("sqlite" if kind == "memory" else "memory")
            )
            member_fragment = fragment if j == 0 else _clone_fragment(fragment)
            members.append(
                _make(member_kind, f"shard{index}r{j}-{member_kind}", member_fragment)
            )
        built.append(ReplicaSet(f"shard{index}", members))
    return ShardRouter(
        built,
        partitioner,
        access_schema,
        result_cache_size=result_cache_size,
        write_observer=write_observer,
    )
