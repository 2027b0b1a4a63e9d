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
key position of the partition attribute, the shards, the latency windows
they report to and the step's constraint (interned, so that the shards'
per-constraint dicts match it on identity) are fixed per step, so
:meth:`ShardRouter.fetcher` settles them once, when the executor compiles
the plan.  A key's owner is a pure function of its hash
(:meth:`~repro.sharding.partition.Partitioner.route` assigns a scatter's
keys in one pass) and never changes after compile, so a step whose keys are
the query's constants has its split over the owners fixed then too.  Each
shard's ``fetch`` is looked up on every call, because that can change after
compile: fault injection wraps it per instance, the layered benchmark's
tracer per class.  A shard's
partial is a fresh set the router owns, so a one-owner fetch returns it as
it is and a broadcast unions into the first.  The access of a fetch step is
recorded once, by the router, over the merged result: the shards are asked
with no counter.

The federation is static and not fault-tolerant: each fragment lives on
exactly one shard, with no replica, and the partition never moves.  A shard
that fails a fetch fails the read — a transient shard fault reaches the
caller as the typed, retryable :class:`~repro.core.errors.TransientFault`,
never as rows — and a shard that fails its portion of a write fails the
batch with a :class:`~repro.core.errors.MaintenanceError` carrying what did
apply (:meth:`ShardRouter._write`).

Merges are epoch-guarded.  The fragments share one
:class:`~repro.storage.counters.VersionClock`
(:meth:`~repro.sharding.partition.Partitioner.partition` hands every
fragment the same one), as the shards of Percolator share one timestamp
oracle: a write on any shard, routed or straight to the shard, moves its
relation's one token.  A read snapshots that clock before execution and
re-validates it after — one clock read each way, as on one engine — so a
merge never combines partials from two epochs: a racing write forces a
bounded retry and, if the race persists, a typed
:class:`~repro.core.errors.TransientFault` (never a silently torn result).

The router is a :class:`~repro.core.engine.ServingCore` like
:class:`~repro.core.engine.BoundedEngine` — the same inherited ``prepare`` /
``execute`` / ``apply_updates`` / ``cache_stats``, differing on the write
side as on the read side by substrate hooks only (:meth:`ShardRouter.
_write` routes the batch to the shards' shared maintenance loop, and
:meth:`ShardRouter._group_of` reads a group back over all shards) — so
:class:`~repro.serving.server.BoundedServer` sits on top of a federation
unchanged.  The router's notion of "the data moved" is the shards' shared
clock, which it adopts (and refuses shards that do not share one).
"""

from __future__ import annotations

import time
from typing import Callable, Collection, Sequence

from ..core.access import AccessConstraint, AccessSchema
from ..core.engine import ServingCore
from ..core.errors import MaintenanceError, StorageError, TransientFault

# Unused here (``ServingCore`` fingerprints), but the layered benchmark's
# tracer wraps this module's binding by name and fails to install without it.
from ..core.fingerprint import prepared_cache_key  # noqa: F401
from ..core.plan import BoundedPlan, PlanStep
from ..core.query import Query
from ..discovery.maintenance import MaintenanceReport, Update
from ..serving.metrics import LatencyRecorder
from ..storage.counters import AccessCounter
from ..storage.database import Database
from ..storage.index import Fetch
from .partition import Partitioner
from .shards import EngineShard, Shard, SQLiteShard

Row = tuple


class RouterMetrics:
    """Scatter/gather observability: per-shard latency, merges, retries."""

    def __init__(self):
        #: federated fetch steps executed (one per FetchOp kernel run)
        self.scatters = 0
        #: per-shard fetch calls issued, a call that raised included
        #: (≤ scatters × shard count)
        self.shard_fetches = 0
        #: scatters routed to owning shards only (partition-key pruning)
        self.routed = 0
        #: scatters sent to every shard (key does not include partition attr)
        self.broadcasts = 0
        #: merged-union sizes, aggregated
        self.merge_rows = 0
        self.merge_rows_max = 0
        #: executions re-run because a dependency's epoch moved mid-merge
        self.snapshot_retries = 0
        #: executions abandoned after exhausting snapshot retries
        self.mixed_epoch_aborts = 0
        #: write batches routed through the shards
        self.write_batches = 0
        #: always zero: shards keep no partial cache; benchmarks/layered still reads them
        self.shard_cache_hits = 0
        self.shard_cache_misses = 0
        self.latency = LatencyRecorder()

    @property
    def merges(self) -> int:
        """Merged unions: one per scatter, a scatter of no keys included."""
        return self.scatters

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
            "shard_latency": self.latency.snapshot(),
        }


class ShardRouter(ServingCore):
    """Routes covered queries and writes over a partitioned shard federation.

    The :class:`~repro.core.engine.ServingCore` over a federation: the
    router is its executor's fetch source (:meth:`fetcher` — fetch steps
    scatter to the owning shards, every other kernel runs centrally over
    the merged partials, on the same kernels as on one engine), a
    snapshot is the shards' shared clock over the plan's dependencies — so
    a cached federated result is served only while *no* shard has written a
    dependent relation, and a merge never mixes two epochs —
    and the conventional fallback evaluates over a gathered copy of the
    query's relations.  A direct shard write (bypassing the router) moves
    the shared clock too, so a dependent entry is ``stale`` at its next
    read or routed batch, never served and never patched.

    ``shards`` and ``partitioner`` must agree on the shard count, and the
    shards' fragments must share one clock (as :meth:`Partitioner.partition
    <repro.sharding.partition.Partitioner.partition>` builds them); the
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
        clock = shards[0].database.clock
        if any(shard.database.clock is not clock for shard in shards):
            raise StorageError(
                "the shards do not share one version clock; partition the data "
                "with Partitioner.partition (build_topology does)"
            )
        super().__init__(
            access_schema,
            source=self,
            schema=partitioner.schema,
            clock=clock,
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
        )
        self.shards = list(shards)
        self.partitioner = partitioner
        self.write_observer = write_observer
        self.metrics = RouterMetrics()
        #: (constraint, base relation) -> the one equal constraint every
        #: fetch step hands the shards (:meth:`fetcher`)
        self._interned: dict[tuple[AccessConstraint, str], AccessConstraint] = {}

    # -- the substrate: a federation of shards ----------------------------------------
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

    def fetcher(
        self, plan: BoundedPlan, step: PlanStep, keys: Collection[Row] | None = None
    ) -> Fetch:
        """The federated fetch source: ``step``'s fetch as one scatter/gather.

        The executor's seam (see :meth:`repro.storage.index.IndexSet.fetcher`,
        the local implementation).  Fetch keys are aligned with
        ``sorted(lhs)``; when the partition attribute is part of the key,
        each key names its owning shard and the scatter is pruned to it.
        (Constraint attributes are base attribute names even for renamed
        occurrences — only relation names are actualized.)  The merged union
        is a set, the kernels' intermediate, and it is what the counter
        keeps: the step's access is recorded once, here, as one index probe
        per key on every shard asked and each tuple of the merged result —
        a broadcast tuple that two shards both hold is counted once, so a
        federated fetch counts what the one-database fetch counts.  The
        shards are asked with no counter.

        Settled here, once per step: routed or broadcast, the key position,
        the shards with their latency windows, the metrics, and the
        constraint itself — interned per ``(constraint, base)``, so every
        plan hands the shards the one object their per-constraint dicts
        were keyed by, and each probe matches on identity.  ``keys``, when
        given, is the step's constant key set (the executor extracts it at
        compile time): a routed step splits it over its owners here, once,
        and uses that split whenever it is handed this very set (an ``is``
        check).  Looked up per call: any other key set's owners, a hash per
        key (:meth:`Partitioner.route
        <repro.sharding.partition.Partitioner.route>`), and each shard's
        ``fetch``, which changes after compile (the fault injector wraps it
        on the instance, the layered benchmark's tracer on the class).

        A shard's partial is a fresh set the router owns (:meth:`Shard.fetch
        <repro.sharding.shards.Shard.fetch>`), so the merge is no copy: one
        owner's partial is the result as it is, and several are unioned into
        the first.  Each shard's latency is the time since the previous
        boundary, one clock read per shard.
        """
        constraint = step.op.constraint
        base = plan.base_relation(constraint)
        constraint = self._interned.setdefault((constraint, base), constraint)
        lhs = sorted(constraint.lhs)
        partition_attribute = self.partitioner.attribute(base)
        metrics, clock = self.metrics, time.perf_counter
        # each shard with the ``append`` of its window in ``metrics.latency``
        window = metrics.latency.window
        shards = tuple((shard, window(f"shard:{shard.name}").append) for shard in self.shards)

        # Either closure asks no shard for no keys (the SQLite empty-LHS path
        # would return its whole index table), else each asked shard in order.
        if partition_attribute not in lhs:
            fanout = len(shards)

            def broadcast(keys: Collection[Row], counter: AccessCounter) -> set[Row]:
                metrics.scatters += 1
                if not keys:
                    return set()
                metrics.broadcasts += 1
                metrics.shard_fetches += fanout
                rows = None
                started = clock()
                for shard, sample in shards:
                    partial = shard.fetch(constraint, base, keys)
                    now = clock()
                    sample(now - started)
                    started = now
                    if rows is None:
                        rows = partial
                    else:
                        rows.update(partial)
                size = len(rows)
                counter.record_fetch_many(base, len(keys) * fanout, size)
                metrics.merge_rows += size
                if size > metrics.merge_rows_max:
                    metrics.merge_rows_max = size
                return rows

            return broadcast

        position = lhs.index(partition_attribute)
        partitioner = self.partitioner
        constant, fixed = keys, ()
        if constant:
            split = sorted(partitioner.route(constant, position).items())
            # one owner is handed the constant set as it is
            fixed = tuple(split) if len(split) > 1 else ((split[0][0], constant),)

        def routed(keys: Collection[Row], counter: AccessCounter) -> set[Row]:
            metrics.scatters += 1
            if not keys:
                return set()
            metrics.routed += 1
            if keys is constant:
                asked = fixed
            elif len(keys) == 1:  # a point fetch: its key's owner, for the key set as it is
                (key,) = keys
                asked = ((partitioner.shard_for_value(key[position]), keys),)
            else:
                asked = sorted(partitioner.route(keys, position).items())
            metrics.shard_fetches += len(asked)
            rows = None
            started = clock()
            for owner, owned in asked:
                shard, sample = shards[owner]
                partial = shard.fetch(constraint, base, owned)
                now = clock()
                sample(now - started)
                started = now
                if rows is None:
                    rows = partial
                else:
                    rows.update(partial)
            size = len(rows)
            counter.record_fetch_many(base, len(keys), size)
            metrics.merge_rows += size
            if size > metrics.merge_rows_max:
                metrics.merge_rows_max = size
            return rows

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
            "federated gather abandoned: the epochs kept moving; retry later"
        )

    # -- writes ---------------------------------------------------------------------
    def _write(self, updates: list[Update]) -> MaintenanceReport:
        """Route the batch to its owning shards and apply each portion batched.

        Updates to the same row always carry the same partition key, so they
        route to the same shard and their relative order is preserved;
        cross-row updates commute.  Each shard applies its portion through
        the shared maintenance loop (one bump of the shared clock per
        portion).  The merged report's ``version`` stays ``None``: a batch
        over several shards is several bumps, not a single data version.

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

    # -- reporting ------------------------------------------------------------------
    def stats(self) -> dict:
        """Topology, scatter/gather metrics, and cache statistics, JSON-ready."""
        return {
            "shards": [shard.stats() for shard in self.shards],
            "scatter_gather": self.metrics.snapshot(),
            "caches": self.cache_stats(),
        }


def build_topology(
    database: Database,
    access_schema: AccessSchema,
    *,
    shards: int = 2,
    backends: Sequence[str] | str | None = None,
    partition_keys=None,
    result_cache_size: int = 256,
    write_observer: Callable[[list], None] | None = None,
) -> ShardRouter:
    """Partition ``database`` into a heterogeneous federation and wire a router.

    ``backends`` names each shard's substrate (``"memory"`` or ``"sqlite"``),
    either per-shard or as one string for all; the default alternates
    ``memory, sqlite, memory, …`` so that any multi-shard topology exercises
    one federated plan across *both* backends.  Queries are prepared once,
    at the router.  ``database`` itself is left untouched; the shards own
    disjoint fragment copies.
    """
    partitioner = Partitioner(database.schema, shards, partition_keys)
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
    built = [
        _make(kind, f"shard{index}-{kind}", fragment)
        for index, (kind, fragment) in enumerate(zip(kinds, fragments))
    ]
    return ShardRouter(
        built,
        partitioner,
        access_schema,
        result_cache_size=result_cache_size,
        write_observer=write_observer,
    )
