"""Incremental maintenance of access schemas and their indexes (Proposition 12).

In response to a batch of updates ``ΔD`` (tuple insertions and deletions),
both the constraints ``A`` and the indexes ``I_A`` can be maintained in
``O(N_A · |ΔD|)`` time, where ``N_A = Σ N`` over the constraints — i.e. the
cost depends on the access schema and the update size only, never on ``|D|``
or ``|I_A|``.

Two flavours are provided:

* :func:`apply_updates` — maintain the *indexes* (and the stored relations)
  for a fixed access schema; constraints whose bound would be violated by an
  insertion are reported.
* :func:`maintain_constraints` — additionally *adjust* the bounds of
  policy-style constraints that the updates outgrow (e.g. Facebook raising
  the friend limit), returning a new access schema.

Both report the relations a batch actually modified and settle the
database's version clock **once per batch** — so downstream caches pay one
version bump and one targeted invalidation sweep per batch instead of one
per row.  When the database is served by a
:class:`~repro.core.engine.BoundedEngine`, route batches through
:meth:`~repro.core.engine.BoundedEngine.apply_updates` so the engine can
also sweep its plan store and result cache granularly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from ..core.access import AccessConstraint, AccessSchema
from ..core.errors import MaintenanceError
from ..storage.database import Database
from ..storage.index import IndexSet


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


@dataclass
class MaintenanceReport:
    """Outcome of maintaining ``⟨A, I_A⟩`` under a batch of updates."""

    applied: int = 0
    skipped: int = 0
    #: constraints whose bound was exceeded by some insertion (before adjustment)
    violated: list[AccessConstraint] = field(default_factory=list)
    #: old -> new constraint for bounds that were raised by maintain_constraints
    adjusted: dict[AccessConstraint, AccessConstraint] = field(default_factory=dict)
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


def apply_updates(
    database: Database,
    indexes: IndexSet,
    access_schema: AccessSchema,
    updates: Iterable[Update],
    *,
    bump_clock: bool = True,
) -> MaintenanceReport:
    """Apply ``ΔD`` to the database and incrementally maintain the indexes.

    Each update touches only the index entries of the constraints on its
    relation, so the total work is ``O(N_A · |ΔD|)`` — independent of ``|D|``.
    Insertions that would break a constraint's bound are still applied (the
    data now simply violates that constraint) but recorded in the report.

    The whole batch costs **one** version-clock bump stamping every touched
    relation (``bump_clock=False`` leaves settling the clock to the caller —
    used by :meth:`repro.core.engine.BoundedEngine.apply_updates`, which
    combines the bump with one targeted cache sweep).

    **Partial failures.** If applying some update raises (bad row, storage
    fault, …), the batch aborts at that update: rows applied before it are
    kept (each row is stored and indexed atomically, so storage and ``I_A``
    stay consistent), and a :class:`~repro.core.errors.MaintenanceError` is
    raised carrying the partial report.  The version clock is still settled
    over the *partially*-touched relation set before the error propagates
    (when ``bump_clock`` is set), so caches keyed by relation versions can
    never keep serving pre-batch rows for relations the aborted batch did
    mutate.
    """
    report = MaintenanceReport()
    try:
        _apply_update_loop(database, indexes, access_schema, updates, report)
    except Exception as error:
        report.failed = True
        report.error = f"{type(error).__name__}: {error}"
        if bump_clock and report.touched_relations:
            report.version = database.clock.bump(sorted(report.touched_relations))
        raise MaintenanceError(
            f"update batch aborted after {report.applied} applied updates "
            f"({report.error}); touched relations "
            f"{sorted(report.touched_relations)} need cache settlement",
            report=report,
        ) from error
    if bump_clock and report.touched_relations:
        report.version = database.clock.bump(sorted(report.touched_relations))
    return report


def _apply_update_loop(
    database: Database,
    indexes: IndexSet,
    access_schema: AccessSchema,
    updates: Iterable[Update],
    report: MaintenanceReport,
) -> None:
    """The per-update body of :func:`apply_updates`, mutating ``report`` in place.

    Kept separate so the partial-failure path of :func:`apply_updates` always
    sees the exact progress made: ``report`` is updated *before* each step
    that can fail, and ``failed_update`` is stamped on the way out.
    """
    update: Update | None = None
    try:
        for update in updates:
            _apply_one_update(database, indexes, access_schema, update, report)
    except Exception:
        report.failed_update = update
        raise


def _apply_one_update(
    database: Database,
    indexes: IndexSet,
    access_schema: AccessSchema,
    update: Update,
    report: MaintenanceReport,
) -> None:
    relation = database.relation(update.relation)
    constraints = access_schema.for_relation(update.relation)
    # Charge the per-update maintenance budget up front: even a duplicate
    # insert / missing delete costs the index probes needed to find out,
    # and Proposition 12's O(N_A·|ΔD|) bound is about attempted updates.
    report.work_units += sum(c.bound for c in constraints)
    if update.kind == "insert":
        if not relation.insert(update.row):
            report.skipped += 1
            return
        indexes.apply_insert(update.relation, update.row)
        report.applied += 1
        report.touched_relations.add(update.relation)
        report.applied_updates.append(update)
        for constraint in constraints:
            index = indexes.get(constraint)
            if index is None:
                continue
            key = tuple(update.row[relation.schema.position(a)] for a in sorted(constraint.lhs))
            group = index.lookup(key)
            distinct_rhs = {
                tuple(v[index.columns.index(a)] for a in sorted(constraint.rhs))
                for v in group
            }
            if len(distinct_rhs) > constraint.bound and constraint not in report.violated:
                report.violated.append(constraint)
    else:
        if not relation.delete(update.row):
            report.skipped += 1
            return
        indexes.apply_delete(update.relation, update.row, relation)
        report.applied += 1
        report.touched_relations.add(update.relation)
        report.applied_updates.append(update)


def maintain_constraints(
    database: Database,
    indexes: IndexSet,
    access_schema: AccessSchema,
    updates: Iterable[Update],
    *,
    headroom: float = 1.0,
) -> tuple[AccessSchema, MaintenanceReport]:
    """Apply updates and raise the bounds of constraints the data has outgrown.

    Returns the (possibly) adjusted access schema and the maintenance report.
    ``headroom`` multiplies the new observed bound, mirroring how policy-style
    constraints are renegotiated rather than dropped.
    """
    report = apply_updates(database, indexes, access_schema, updates)
    if not report.violated:
        return access_schema, report

    adjusted = AccessSchema(schema=access_schema.schema)
    for constraint in access_schema:
        if constraint in report.violated:
            relation = database.relation(constraint.relation)
            observed = relation.group_max_multiplicity(
                sorted(constraint.lhs), sorted(constraint.rhs)
            )
            new_bound = max(constraint.bound, int(round(observed * headroom)))
            replacement = AccessConstraint(
                constraint.relation,
                constraint.lhs,
                constraint.rhs,
                new_bound,
                constraint.name,
            )
            adjusted.add(replacement)
            report.adjusted[constraint] = replacement
        else:
            adjusted.add(constraint)
    return adjusted, report
