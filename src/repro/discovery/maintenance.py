"""Incremental maintenance of an access schema's indexes (Proposition 12).

In response to a batch of updates ``ΔD`` (tuple insertions and deletions),
the indexes ``I_A`` can be maintained in ``O(N_A · |ΔD|)`` time, where
``N_A = Σ N`` over the constraints — i.e. the cost depends on the access
schema and the update size only, never on ``|D|`` or ``|I_A|``.

This module is the **only** code that mutates a (storage, index) pair.
Every substrate — a :class:`~repro.core.engine.BoundedEngine`'s database and
:class:`~repro.storage.index.IndexSet`, a memory shard's, a SQLite shard's
fragment and its :class:`~repro.backends.sqlite.SQLiteBackend` mirror —
runs the same loop over an :class:`IndexMaintainer`, so they share one
failure contract: prefix kept, storage ≡ ``I_A`` row by row, the clock
settled over the partial, a typed :class:`~repro.core.errors.
MaintenanceError` carrying the partial report.

:func:`apply_updates` reports the relations a batch actually modified and
settles the database's version clock **once per batch** — so downstream
caches pay one version bump and one settlement per batch instead of one per
row.  It maintains ``I_A`` and judges no bound: the serving core enforces
``A``.  When the data is served by a :class:`~repro.core.engine.ServingCore`,
write through its :meth:`~repro.core.engine.ServingCore.apply_updates`,
which reads back each group a batch's inserts landed in (``group_of``) and
undoes and rejects a batch that left one over its ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Literal, Protocol, Sequence

from ..core.access import AccessConstraint, AccessSchema
from ..core.errors import MaintenanceError
from ..storage.database import Database
from ..storage.relation import RelationInstance


class IndexMaintainer(Protocol):
    """What keeps ``I_A`` in step with stored rows: the seam of :func:`apply_updates`.

    Implemented by :class:`~repro.storage.index.IndexSet` (hash indexes) and
    :class:`~repro.backends.sqlite.SQLiteBackend` (base + ``ind_…`` tables).
    Both calls are told only about rows storage really gained or lost.
    """

    def apply_insert(self, relation: str, row: tuple) -> None: ...

    def apply_delete(self, relation: str, row: tuple) -> None: ...

    def group_of(self, constraint: AccessConstraint, row: tuple) -> Collection[tuple]:
        """The constraint's index rows sharing ``row``'s ``X``-value (empty without an index)."""
        ...


@dataclass(frozen=True)
class Update:
    """One tuple insertion or deletion."""

    relation: str
    row: tuple
    kind: Literal["insert", "delete"] = "insert"

    @classmethod
    def insert(cls, relation: str, row: Sequence) -> "Update":
        return cls(relation, tuple(row), "insert")

    @classmethod
    def delete(cls, relation: str, row: Sequence) -> "Update":
        return cls(relation, tuple(row), "delete")

    def inverse(self) -> "Update":
        """The update that takes this one back (an effective one, exactly)."""
        return Update(self.relation, self.row, "delete" if self.kind == "insert" else "insert")


@dataclass
class MaintenanceReport:
    """Outcome of maintaining ``⟨A, I_A⟩`` under a batch of updates."""

    applied: int = 0
    skipped: int = 0
    #: work performed, measured in index-entry touches (for the Prop. 12 benchmark)
    work_units: int = 0
    #: relations whose data the batch actually changed (skipped updates excluded)
    touched_relations: set[str] = field(default_factory=set)
    #: the updates that actually changed data, in application order — the
    #: write delta the cache-repair path derives patches from (skipped
    #: duplicates/missing rows excluded, like ``touched_relations``)
    applied_updates: list[Update] = field(default_factory=list)
    #: the database's global data version after the batch (None if nothing
    #: changed, and on a router's merged report: each shard has its own)
    version: int | None = None
    #: True when the batch aborted part-way (see :class:`MaintenanceError`)
    failed: bool = False
    #: the update being applied when the batch aborted
    failed_update: Update | None = None
    #: rendered cause of the abort (``None`` for a fully-applied batch)
    error: str | None = None

    def absorb(self, portion: "MaintenanceReport") -> None:
        """Add what ``portion`` (one shard's share of a routed batch) did."""
        self.applied += portion.applied
        self.skipped += portion.skipped
        self.work_units += portion.work_units
        self.touched_relations.update(portion.touched_relations)
        self.applied_updates.extend(portion.applied_updates)


def apply_updates(
    database: Database,
    maintainer: IndexMaintainer,
    access_schema: AccessSchema,
    updates: Iterable[Update],
) -> MaintenanceReport:
    """Apply ``ΔD`` to the database and incrementally maintain the indexes.

    Each update touches only the index entries of the constraints on its
    relation, so the total work is ``O(N_A · |ΔD|)`` — independent of ``|D|``.
    The loop judges no bound: an insertion that overfills a group is applied
    like any other, and the serving core's read-back rejects the batch.

    The whole batch costs **one** version-clock bump stamping every touched
    relation.

    **Partial failures.** If applying some update raises (bad row, storage
    fault, a maintainer that lost its backend, …), the batch aborts at that
    update: rows applied before it are kept, the failing row is applied to
    storage *and* ``I_A`` or to neither (a row the maintainer refuses is
    taken back out of storage), and a :class:`~repro.core.errors.
    MaintenanceError` is raised carrying the partial report, with the
    original exception as its ``__cause__``.  The version clock is still
    settled over the *partially*-touched relation set before the error
    propagates, so caches keyed by relation versions can never keep serving
    pre-batch rows for relations the aborted batch did mutate.
    """
    report = MaintenanceReport()
    failure: Exception | None = None
    update: Update | None = None
    # relation -> (its instance, the work an update to it is charged)
    targets: dict[str, tuple[RelationInstance, int]] = {}
    try:
        for update in updates:
            name, row = update.relation, update.row
            target = targets.get(name)
            if target is None:
                target = targets[name] = (
                    database.relation(name),
                    sum(c.bound for c in access_schema.for_relation(name)),
                )
            relation, work = target
            # Charged up front: even a duplicate insert / missing delete costs
            # the index probes needed to find out, and Proposition 12's
            # O(N_A·|ΔD|) bound is about attempted updates.
            report.work_units += work
            if update.kind == "insert":
                store, index, undo = relation.insert, maintainer.apply_insert, relation.delete
            else:
                store, index, undo = relation.delete, maintainer.apply_delete, relation.insert
            # One row through storage, then I_A; counted only once both hold it.
            if not store(row):
                report.skipped += 1
                continue
            try:
                index(name, row)
            except Exception:
                undo(row)  # storage ≡ I_A again before the batch aborts
                raise
            report.applied += 1
            report.touched_relations.add(name)
            report.applied_updates.append(update)
    except Exception as error:
        report.failed = True
        report.failed_update = update
        report.error = f"{type(error).__name__}: {error}"
        failure = error
    if report.touched_relations:
        report.version = database.clock.bump(sorted(report.touched_relations))
    if failure is not None:
        raise MaintenanceError(
            f"update batch aborted after {report.applied} applied updates "
            f"({report.error}); touched relations "
            f"{sorted(report.touched_relations)} need cache settlement",
            report=report,
        ) from failure
    return report
