"""In-memory databases: collections of relation instances over a schema."""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from ..core.access import AccessConstraint, AccessSchema
from ..core.errors import StorageError
from ..core.schema import DatabaseSchema, RelationSchema
from .counters import VersionClock
from .relation import RelationInstance, Row


class Database:
    """An instance ``D`` of a database schema ``R``.

    The database carries a :class:`~repro.storage.counters.VersionClock`:
    every mutation that actually changes data advances a global version and
    stamps the touched relation, so caches (and the serving engine's result
    cache in particular) can validate entries against per-relation versions
    instead of being cleared wholesale.

    **Write-path contract**: mutations must go through this class's
    ``insert``/``delete``/``insert_many`` (no indexes to keep) or
    :func:`repro.discovery.maintenance.apply_updates` (what every serving
    core's ``apply_updates`` runs) — each of which settles the clock.
    Writing directly to a :class:`~repro.storage.relation.RelationInstance`
    bypasses both the constraint indexes *and* the clock, leaving stale
    indexes and stale cached results with no invalidation signal.
    """

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema
        self.clock = VersionClock()
        self._relations: dict[str, RelationInstance] = {
            relation.name: RelationInstance(relation) for relation in schema
        }

    # -- access ----------------------------------------------------------------
    def relation(self, name: str) -> RelationInstance:
        try:
            return self._relations[name]
        except KeyError:
            raise StorageError(f"database has no relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationInstance]:
        return iter(self._relations.values())

    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    @property
    def size(self) -> int:
        """``|D|`` — the total number of tuples in the database."""
        return sum(len(relation) for relation in self._relations.values())

    @property
    def cell_size(self) -> int:
        """Total number of value cells (tuples × arity), a byte-footprint proxy."""
        return sum(
            len(relation) * len(relation.schema) for relation in self._relations.values()
        )

    def __len__(self) -> int:
        return self.size

    # -- versioning ----------------------------------------------------------------
    @property
    def version(self) -> int:
        """The global data version: bumped once per data-changing write (or batch)."""
        return self.clock.global_version

    def relation_version(self, relation: str) -> int:
        """The global version at which ``relation`` last changed (0 if never)."""
        return self.clock.version_of(relation)

    def constraint_version(self, constraint: AccessConstraint) -> int:
        """The data version of ``constraint``: when its fetch results last changed.

        A write to a relation can change the index contents of *every*
        constraint on that relation (and of no other), so per-constraint
        versions share the counter of the constraint's relation.
        """
        return self.clock.version_of(constraint.relation)

    # -- mutation ----------------------------------------------------------------
    def insert(self, relation: str, row: Sequence | Mapping[str, object]) -> bool:
        inserted = self.relation(relation).insert(row)
        if inserted:
            self.clock.bump((relation,))
        return inserted

    def insert_many(self, relation: str, rows: Iterable[Sequence | Mapping[str, object]]) -> int:
        added = self.relation(relation).insert_many(rows)
        if added:
            self.clock.bump((relation,))
        return added

    def delete(self, relation: str, row: Sequence | Mapping[str, object]) -> bool:
        deleted = self.relation(relation).delete(row)
        if deleted:
            self.clock.bump((relation,))
        return deleted

    # -- constraints ----------------------------------------------------------------
    def satisfies(self, constraint: AccessConstraint) -> bool:
        """Whether this database satisfies the cardinality part of ``constraint``."""
        relation = self.relation(constraint.relation)
        observed = relation.group_max_multiplicity(
            sorted(constraint.lhs), sorted(constraint.rhs)
        )
        return observed <= constraint.bound

    def satisfies_schema(self, access_schema: AccessSchema) -> bool:
        """``D |= A``: every constraint's cardinality bound holds."""
        return all(self.satisfies(constraint) for constraint in access_schema)

    def violations(self, access_schema: AccessSchema) -> list[AccessConstraint]:
        """The constraints of ``access_schema`` that the data does not satisfy."""
        return [c for c in access_schema if not self.satisfies(c)]

    # -- scaling (for the |D|-varying experiments) ------------------------------------
    def scaled(self, factor: float, seed: int = 0) -> "Database":
        """A database with roughly ``factor`` of the tuples of each relation.

        Sampling is deterministic given ``seed``.  Scaling down preserves the
        cardinality constraints (dropping tuples can only lower group sizes),
        which is what the paper's ``|D|``-varying experiments rely on.
        """
        if not 0.0 < factor <= 1.0:
            raise StorageError(f"scale factor must be in (0, 1], got {factor}")
        rng = random.Random(seed)
        scaled = Database(self.schema)
        for name, relation in self._relations.items():
            rows = list(relation)
            if factor < 1.0:
                keep = max(1, int(len(rows) * factor))
                rows = rng.sample(rows, keep) if rows else []
            scaled.insert_many(name, rows)
        return scaled

    # -- persistence ---------------------------------------------------------------------
    def to_directory(self, path: str | Path) -> None:
        """Write each relation to ``<path>/<relation>.csv``."""
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        for name, relation in self._relations.items():
            relation.to_csv(directory / f"{name}.csv")

    @classmethod
    def from_directory(cls, schema: DatabaseSchema, path: str | Path) -> "Database":
        """Load a database previously written with :meth:`to_directory`."""
        directory = Path(path)
        database = cls(schema)
        for relation_schema in schema:
            csv_path = directory / f"{relation_schema.name}.csv"
            if not csv_path.exists():
                continue
            loaded = RelationInstance.from_csv(relation_schema, csv_path)
            database._relations[relation_schema.name] = loaded
        return database

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        counts = ", ".join(f"{name}={len(rel)}" for name, rel in self._relations.items())
        return f"Database({counts})"
