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
relation: its per-relation version lags the authoritative one, and it is
caught up on that fetch.  Either way the member stops serving reads and
receiving writes; catch-up row-diffs it against a healthy in-lockstep
sibling, applies the diff through the member's own write path (indexes
maintained), then overwrites its clock with the authoritative one
(:meth:`VersionClock.sync_to`).  A member is re-admitted only if it
completes catch-up and then serves a fetch through its own seam — a
diverged member is never merged, and a dead one stays out.  A member that
is not re-admitted at once waits for its breaker's next probe.

**Failover.**  A fetch tries the in-rotation members in order and
absorbs :class:`~repro.core.errors.TransientFault` by moving to the next
one — sound because injected/real shard faults fire *before* any tuple is
touched, so a failed attempt contributes nothing to access accounting, and
because every in-rotation member is in lockstep, so any of them yields the
same rows at the same authoritative epoch.  Each member runs on a
:class:`~repro.serving.policy.CircuitBreaker` whose clock is the set's own
fetch count: :data:`FAILURE_THRESHOLD` consecutive failed fetches trip it,
and a quarantined member is probed every :data:`PROBE_AFTER` fetches after
its quarantine, in the healing pre-pass of :meth:`ReplicaSet.fetch` — the
one place a breaker is ticked.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from ..core.errors import MaintenanceError, ReproError, StorageError, TransientFault
from ..discovery.maintenance import MaintenanceReport, Update
from ..serving.policy import CircuitBreaker
from ..storage.counters import AccessCounter, VersionClock
from .shards import Shard

Row = tuple

#: consecutive fetch failures that quarantine a member
FAILURE_THRESHOLD = 3
#: a quarantined member is probed every this many fetches of its set
PROBE_AFTER = 8


class ReplicaSet(Shard):
    """N interchangeable shard backends behind one Shard protocol.

    ``replicas`` must hold identical fragment copies with identical clocks
    (the :func:`~repro.sharding.router.build_topology` contract); the
    constructor verifies the clocks agree and adopts them as the
    authoritative clock's starting state.  Each member gets a
    :class:`~repro.serving.policy.CircuitBreaker` in :attr:`breakers`; a
    member is in rotation while its breaker is closed.  The breakers' clock
    is :attr:`fetches`, bumped once per :meth:`fetch`, so a member
    quarantined at fetch *f* is next probed at fetch *f* +
    :data:`PROBE_AFTER`, then every :data:`PROBE_AFTER` fetches while its
    probe fails.
    """

    kind = "replica-set"

    def __init__(self, name: str, replicas: Sequence[Shard]):
        if not replicas:
            raise StorageError(f"replica set {name!r} needs at least one replica")
        self.name = name
        self.replicas = list(replicas)
        self.database = None  # every Shard surface is overridden below
        self.clock = VersionClock()
        #: fetches served or attempted: the clock every member's breaker reads
        self.fetches = 0
        self.breakers = {
            replica.name: CircuitBreaker(
                FAILURE_THRESHOLD, PROBE_AFTER, clock=lambda: self.fetches
            )
            for replica in self.replicas
        }
        if len(self.breakers) != len(self.replicas):
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
        #: fetches that moved on to another member after one failed
        self.failovers = 0
        #: in-rotation -> quarantined transitions
        self.quarantines = 0
        #: re-admissions: a catch-up whose fetch then fails counts nowhere
        self.catch_ups = 0
        #: rows resynced by the catch-ups of those re-admissions
        self.rows_resynced = 0

    # -- health plumbing ---------------------------------------------------------
    def _in_rotation(self, replica: Shard) -> bool:
        return self.breakers[replica.name].state == CircuitBreaker.CLOSED

    def _quarantine(self, replica: Shard, reason: str) -> None:
        self.quarantines += 1
        self.breakers[replica.name].trip(reason)

    def _in_lockstep(self, replica: Shard, relations: Iterable[str]) -> bool:
        keys = tuple(relations)
        return replica.database.clock.snapshot(keys) == self.clock.snapshot(keys)

    def _readmit(self, replica: Shard, constraint, base_relation: str, keys) -> None:
        """Catch a quarantined ``replica`` up, then re-admit it only if it serves.

        The one road back into rotation; its outcome goes to the member's
        breaker, which a success closes and a failure re-opens, restarting
        the cooldown.  Catch-up row-diffs the member against a healthy
        in-lockstep sibling, per relation as row sets (set semantics make
        this exact regardless of *how* the member diverged — lost batch,
        torn prefix, or writes missed while quarantined), applies the diff
        through the member's own write path, so its indexes are maintained,
        and syncs its clock.  The diff reads storage, not the fetch seam, so
        a dead member that missed no writes passes it: the fetch the set is
        serving is then sent through the member's own seam, and only if that
        succeeds is the member re-admitted.  That fetch passes no
        :class:`~repro.storage.counters.AccessCounter`: the served fetch that
        follows counts the access, once.
        """
        breaker = self.breakers[replica.name]
        resynced = self._catch_up(replica, constraint, base_relation, keys)
        if resynced is None:
            breaker.record_failure()
            return
        breaker.record_success()
        self.catch_ups += 1
        self.rows_resynced += resynced

    def _catch_up(self, replica: Shard, constraint, base_relation: str, keys) -> int | None:
        """The rows :meth:`_readmit` resynced into ``replica``, or ``None`` if it still fails."""
        all_relations = tuple(self.clock._per_key)
        source = next(
            (
                sibling
                for sibling in self.replicas
                if sibling is not replica
                and self._in_rotation(sibling)
                and self._in_lockstep(sibling, all_relations)
            ),
            None,
        )
        if source is None:
            return None
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
            return None  # still broken (e.g. a dead node); stay quarantined
        # Verify the resync actually took before re-admitting: a write seam
        # that is still silently swallowing batches (the lost-write fault)
        # would otherwise fake its way back into rotation.
        for relation in source.database.relation_names():
            if set(replica.relation_rows(relation)) != set(
                source.relation_rows(relation)
            ):
                return None
        replica.database.clock.sync_to(self.clock)
        try:
            replica.fetch(constraint, base_relation, keys)
        except TransientFault:
            return None
        return len(updates)

    def _detect_divergence(self, constraint, base_relation: str, keys) -> None:
        """Quarantine (and try to heal) members lagging on ``base_relation``.

        Runs over *every* in-rotation member, not just the one about to
        serve: a silently-diverged sibling must leave the write rotation at
        the first fetch touching the relation it missed, or it would keep
        compounding its lag batch after batch.
        """
        for replica in self.replicas:
            if self._in_rotation(replica) and not self._in_lockstep(
                replica, (base_relation,)
            ):
                self._quarantine(replica, "divergence")
                self._readmit(replica, constraint, base_relation, keys)

    # -- reads ---------------------------------------------------------------------
    def fetch(
        self,
        constraint,
        base_relation: str,
        keys: Iterable[Sequence],
        counter: AccessCounter | None = None,
    ) -> set[Row]:
        keys = list(keys)
        self.fetches += 1
        # The silently-diverged case: a member whose per-relation version
        # lags the authoritative clock (a lost write) is detected exactly
        # here — the first fetch touching the relation it missed —
        # quarantined, caught up synchronously, and re-admitted only if the
        # catch-up verifiably took and the member serves this fetch.
        self._detect_divergence(constraint, base_relation, keys)
        # The healing pre-pass: the one place a breaker is ticked.  A member
        # whose cooldown has run out is caught up here, before serving, not
        # only when every in-rotation member has already failed (which an
        # in-rotation sibling would normally prevent from ever happening).
        for replica in self.replicas:
            breaker = self.breakers[replica.name]
            if breaker.state != CircuitBreaker.CLOSED and breaker.allow():
                self._readmit(replica, constraint, base_relation, keys)
        candidates = [replica for replica in self.replicas if self._in_rotation(replica)]
        if not candidates:
            raise TransientFault(f"replica set {self.name!r}: no replica is in rotation")
        last_error: TransientFault | None = None
        for position, replica in enumerate(candidates):
            breaker = self.breakers[replica.name]
            try:
                rows = replica.fetch(constraint, base_relation, keys, counter)
            except TransientFault as error:
                last_error = error
                breaker.record_failure()
                if breaker.state != CircuitBreaker.CLOSED:
                    self.quarantines += 1
                if position + 1 < len(candidates):
                    self.failovers += 1
                continue
            breaker.record_success()
            return rows
        raise TransientFault(
            f"replica set {self.name!r}: every candidate replica failed the fetch"
            + (f" (last: {last_error})" if last_error is not None else "")
        )

    def _reader(self, relation: str) -> Shard:
        """An in-rotation member in lockstep on ``relation``: what a gather reads."""
        for replica in self.replicas:
            if self._in_rotation(replica) and self._in_lockstep(replica, (relation,)):
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
            if not self._in_rotation(replica):
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
            (r for r in self.replicas if self._in_rotation(r)), self.replicas[0]
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
                {**replica.stats(), **self.breakers[replica.name].stats()}
                for replica in self.replicas
            ],
        }
