"""Replica groups: one logical shard served by N interchangeable backends.

A :class:`ReplicaSet` implements the :class:`~repro.sharding.shards.Shard`
protocol over N member shards that each hold a *full copy* of the logical
shard's fragment (memory and SQLite members mix freely).  The set is what
the router sees; the members are where faults happen.  Three mechanisms
make the group self-healing without ever weakening the federation's
epoch-guarantee:

**Lockstep writes + an authoritative clock.**  A routed write batch is
applied to every healthy member; the set keeps its own *authoritative*
:class:`~repro.storage.counters.VersionClock`, bumped once per batch over
the canonical report's touched relations — exactly the bump each member's
own clock performs, so a member that applied every batch satisfies
``member.validate(relations, authoritative.snapshot(relations))`` by
construction.  That equality IS the lockstep invariant; the router's
merge-time epoch guard runs against the authoritative clock, so whichever
member serves a fetch, the epoch token the router validates is the set's.

**Divergence detection, quarantine, catch-up, re-admission.**  A member
that *observably* fails a write (raises mid-batch — the torn case) is
quarantined immediately: its clock settles over the applied prefix, so
clock comparison alone cannot be trusted to catch it.  A member that
*silently* misses a batch (the lost-write case — no error, no mutation)
is caught by the lockstep check on the next fetch touching the written
relation: its per-relation version lags the authoritative one.  Either
way the member stops serving reads and receiving writes; catch-up
row-diffs it against a healthy in-lockstep sibling, applies the diff
through the member's own write path (indexes maintained), then overwrites
its clock with the authoritative one (:meth:`VersionClock.sync_to`).  Only
a member that completes catch-up is re-admitted — a diverged member is
never merged.

**Failover.**  A fetch tries members in routing order and
absorbs :class:`~repro.core.errors.TransientFault` by moving to the next
candidate — sound because injected/real shard faults fire *before* any
tuple is touched, so a failed attempt contributes nothing to access
accounting, and because every healthy candidate is in lockstep, so any of
them yields the same rows at the same authoritative epoch.  A per-member
:class:`ReplicaHealth` breaker (3 consecutive failures, then a half-open
probe every 8th selection) takes repeatedly-failing members out of the
rotation.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from ..core.errors import MaintenanceError, ReproError, StorageError, TransientFault
from ..discovery.maintenance import MaintenanceReport, Update
from ..storage.counters import AccessCounter, VersionClock
from .shards import Shard

Row = tuple

HEALTHY = "healthy"
QUARANTINED = "quarantined"


class ReplicaHealth:
    """Per-replica breaker state: consecutive failures, quarantine, probes.

    Two ways into quarantine: the breaker trips after
    :attr:`FAILURE_THRESHOLD` consecutive fetch failures (reason
    ``"unhealthy"``), or the set quarantines the replica directly on
    observed divergence (reasons ``"divergence"`` / ``"write_failed"``).
    Either way the road back is the same: :meth:`allow_probe` admits a
    half-open attempt immediately and then every :attr:`PROBE_AFTER`-th
    selection, and the set re-admits only after a successful catch-up —
    a replica that was out of rotation missed routed writes by
    definition, so "probe succeeded" alone is never enough.
    """

    #: consecutive fetch failures that quarantine a member
    FAILURE_THRESHOLD = 3
    #: a quarantined member gets a half-open probe every this many selections
    PROBE_AFTER = 8

    def __init__(self, name: str):
        self.name = name
        self.state = HEALTHY
        self.reason: str | None = None
        self.consecutive_failures = 0
        self.failures_total = 0
        self.probes = 0
        self._skipped = 0

    @property
    def quarantined(self) -> bool:
        return self.state == QUARANTINED

    def record_failure(self) -> bool:
        """Count a fetch failure; returns True when the breaker just tripped."""
        self.failures_total += 1
        self.consecutive_failures += 1
        if self.state == HEALTHY and self.consecutive_failures >= self.FAILURE_THRESHOLD:
            self.quarantine("unhealthy")
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def quarantine(self, reason: str) -> None:
        self.state = QUARANTINED
        self.reason = reason
        self._skipped = 0

    def readmit(self) -> None:
        self.state = HEALTHY
        self.reason = None
        self.consecutive_failures = 0

    def allow_probe(self) -> bool:
        """Half-open gate: first call after quarantine, then every Nth."""
        if self.state != QUARANTINED:
            return False
        self._skipped += 1
        allowed = (self._skipped - 1) % self.PROBE_AFTER == 0
        if allowed:
            self.probes += 1
        return allowed

    def snapshot(self) -> dict[str, object]:
        return {
            "state": self.state,
            "reason": self.reason,
            "consecutive_failures": self.consecutive_failures,
            "failures_total": self.failures_total,
            "probes": self.probes,
        }


class ReplicaSet(Shard):
    """N interchangeable shard backends behind one Shard protocol.

    ``replicas`` must hold identical fragment copies with identical clocks
    (the :func:`~repro.sharding.router.build_topology` contract); the
    constructor verifies the clocks agree and adopts them as the
    authoritative clock's starting state.  Each member gets a
    :class:`ReplicaHealth` breaker; its threshold and probe spacing are
    class constants there, not settings of the set.
    """

    kind = "replica-set"

    def __init__(self, name: str, replicas: Sequence[Shard]):
        if not replicas:
            raise StorageError(f"replica set {name!r} needs at least one replica")
        self.name = name
        self.replicas = list(replicas)
        self.database = None  # every Shard surface is overridden below
        self.clock = VersionClock()
        self._health = {
            replica.name: ReplicaHealth(replica.name) for replica in self.replicas
        }
        if len(self._health) != len(self.replicas):
            raise StorageError(f"replica set {name!r} has duplicate replica names")
        # Adopt the members' (identical) initial clock state: fragment
        # construction bumps per-relation counters, and lockstep validation
        # compares members against the authoritative clock from fetch #1.
        reference = self.replicas[0].database.clock
        keys = tuple(reference._per_key)
        for replica in self.replicas[1:]:
            if replica.database.clock.snapshot(keys) != reference.snapshot(keys):
                raise StorageError(
                    f"replica set {name!r}: member {replica.name!r} starts out of "
                    "lockstep; replicas must be built from identical fragment copies"
                )
        self.clock.sync_to(reference)
        # -- counters ----------------------------------------------------------
        self.failovers = 0
        self.quarantines = 0
        self.catch_ups = 0
        self.rows_resynced = 0

    # -- health plumbing ---------------------------------------------------------
    def health(self, replica_name: str) -> ReplicaHealth:
        return self._health[replica_name]

    def _quarantine(self, replica: Shard, reason: str) -> None:
        health = self._health[replica.name]
        if not health.quarantined:
            self.quarantines += 1
        health.quarantine(reason)

    def _in_lockstep(self, replica: Shard, relations: Iterable[str]) -> bool:
        keys = tuple(relations)
        return replica.database.clock.snapshot(keys) == self.clock.snapshot(keys)

    def _catch_up(self, replica: Shard) -> bool:
        """Resync ``replica`` from a healthy in-lockstep sibling; True on success.

        The diff is computed per relation as row sets (set semantics make
        this exact regardless of *how* the member diverged — lost batch,
        torn prefix, or writes missed while quarantined) and applied through
        the member's own write path, so its indexes are maintained.  The
        final clock sync makes future lockstep checks meaningful again.
        """
        all_relations = tuple(self.clock._per_key)
        source = next(
            (
                sibling
                for sibling in self.replicas
                if sibling is not replica
                and not self._health[sibling.name].quarantined
                and self._in_lockstep(sibling, all_relations)
            ),
            None,
        )
        if source is None:
            return False
        updates: list[Update] = []
        for relation in source.database.relation_names():
            want = set(source.relation_rows(relation))
            have = set(replica.relation_rows(relation))
            updates.extend(Update.insert(relation, row) for row in want - have)
            updates.extend(Update.delete(relation, row) for row in have - want)
        try:
            if updates:
                replica.apply_updates(updates)
        except ReproError:
            return False  # still broken (e.g. a dead node); stay quarantined
        # Verify the resync actually took before re-admitting: a write seam
        # that is still silently swallowing batches (the lost-write fault)
        # would otherwise fake its way back into rotation.
        for relation in source.database.relation_names():
            if set(replica.relation_rows(relation)) != set(
                source.relation_rows(relation)
            ):
                return False
        replica.database.clock.sync_to(self.clock)
        self.catch_ups += 1
        self.rows_resynced += len(updates)
        return True

    def _detect_divergence(self, relations: tuple[str, ...]) -> None:
        """Quarantine (and try to heal) members lagging on ``relations``.

        Runs over *every* in-rotation member, not just the one about to
        serve: a silently-diverged sibling must leave the write rotation at
        the first fetch touching the relation it missed, or it would keep
        compounding its lag batch after batch.
        """
        for replica in self.replicas:
            health = self._health[replica.name]
            if health.quarantined:
                continue
            if self._in_lockstep(replica, relations):
                continue
            self._quarantine(replica, "divergence")
            if self._catch_up(replica):
                health.readmit()

    def _routing_order(self) -> list[Shard]:
        """Healthy members in serving order, then probe-eligible quarantined ones."""
        healthy = [r for r in self.replicas if not self._health[r.name].quarantined]
        probes = [
            r
            for r in self.replicas
            if self._health[r.name].quarantined and self._health[r.name].allow_probe()
        ]
        return healthy + probes

    # -- reads ---------------------------------------------------------------------
    def fetch(
        self,
        constraint,
        base_relation: str,
        keys: Iterable[Sequence],
        counter: AccessCounter | None = None,
    ) -> frozenset[Row]:
        keys = list(keys)
        # The silently-diverged case: a member whose per-relation version
        # lags the authoritative clock (a lost write) is detected exactly
        # here — the first fetch touching the relation it missed —
        # quarantined, caught up synchronously, and re-admitted only if the
        # catch-up verifiably took.
        self._detect_divergence((base_relation,))
        # Half-open probes run as a healing pre-pass, decoupled from the
        # serving order: a probe-eligible quarantined member is caught up
        # and re-admitted *here*, not only when every healthy member has
        # already failed (which a healthy sibling would normally prevent
        # from ever happening).
        for replica in self.replicas:
            health = self._health[replica.name]
            if health.quarantined and health.allow_probe():
                if self._catch_up(replica):
                    health.readmit()
        candidates = self._routing_order()
        if not candidates:
            raise TransientFault(
                f"replica set {self.name!r}: no replica is healthy or probe-eligible"
            )
        last_error: TransientFault | None = None
        for position, replica in enumerate(candidates):
            health = self._health[replica.name]
            if health.quarantined:
                # A half-open probe: the member missed writes while out of
                # rotation, so it must catch up before it may serve.
                if not self._catch_up(replica):
                    continue
                health.readmit()
            try:
                rows = replica.fetch(constraint, base_relation, keys, counter)
            except TransientFault as error:
                last_error = error
                if health.record_failure():
                    self.quarantines += 1
                if position + 1 < len(candidates):
                    self.failovers += 1
                continue
            health.record_success()
            return rows
        raise TransientFault(
            f"replica set {self.name!r}: every candidate replica failed the fetch"
            + (f" (last: {last_error})" if last_error is not None else "")
        )

    def _reader(self, relation: str) -> Shard:
        """An in-rotation member in lockstep on ``relation``: what a gather reads."""
        for replica in self.replicas:
            if not self._health[replica.name].quarantined and self._in_lockstep(
                replica, (relation,)
            ):
                return replica
        raise TransientFault(
            f"replica set {self.name!r}: no in-lockstep replica to read "
            f"{relation!r} from"
        )

    def relation_rows(self, relation: str) -> tuple[Row, ...]:
        return self._reader(relation).relation_rows(relation)

    def group_of(self, constraint, row: Row) -> Collection[Row]:
        return self._reader(constraint.relation).group_of(constraint, row)

    # -- writes --------------------------------------------------------------------
    def apply_updates(self, updates: Iterable[Update]) -> MaintenanceReport:
        """Apply the batch to every healthy member; one authoritative bump.

        The canonical report is the one with the most applied updates —
        healthy members hold identical data, so their reports are identical,
        and the max rule discards only the fake empty report a lost-write
        fault fabricates.  A member that raises is quarantined (its state is
        divergent whether the batch tore or cleanly missed) and the batch
        proceeds on its siblings; only if *every* member fails does the
        routed portion itself fail, with a :class:`MaintenanceError` so the
        router settles conservatively.
        """
        updates = list(updates)
        reports: list[MaintenanceReport] = []
        first_error: ReproError | None = None
        for replica in self.replicas:
            if self._health[replica.name].quarantined:
                continue  # catches up on re-admission instead
            try:
                report = replica.apply_updates(list(updates))
            except ReproError as error:
                if first_error is None:
                    first_error = error
                self._quarantine(replica, "write_failed")
                continue
            reports.append(report)
        if not reports:
            partial = getattr(first_error, "report", None)
            merged = partial if partial is not None else MaintenanceReport()
            merged.failed = True
            merged.error = (
                f"replica set {self.name!r}: every replica failed the batch "
                f"({first_error})"
            )
            raise MaintenanceError(merged.error, report=merged)
        canonical = max(reports, key=lambda r: r.applied)
        if canonical.touched_relations:
            canonical.version = self.clock.bump(sorted(canonical.touched_relations))
        return canonical

    # -- versioning ------------------------------------------------------------------
    def snapshot(self, relations: Iterable[str]) -> tuple[int, ...]:
        return self.clock.snapshot(relations)

    def validate(self, relations: Iterable[str], snapshot: tuple[int, ...]) -> bool:
        return self.clock.snapshot(relations) == snapshot

    # -- reporting -------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        serving = next(
            (
                r
                for r in self.replicas
                if not self._health[r.name].quarantined
            ),
            self.replicas[0],
        )
        return {
            "name": self.name,
            "kind": self.kind,
            "tuples": serving.database.size,
            "version": self.clock.global_version,
            "failovers": self.failovers,
            "quarantines": self.quarantines,
            "catch_ups": self.catch_ups,
            "rows_resynced": self.rows_resynced,
            "replicas": [
                {**replica.stats(), **self._health[replica.name].snapshot()}
                for replica in self.replicas
            ],
        }
