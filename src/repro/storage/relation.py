"""In-memory relation instances.

Tuples are stored positionally (aligned with the relation schema's attribute
order) under set semantics: inserting a duplicate row is a no-op, matching
the relational model the paper works in.
"""

from __future__ import annotations

import csv
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..core.errors import StorageError
from ..core.schema import RelationSchema

Row = tuple


def projector(positions: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[p] for p in positions)``, compiled once for ``positions``.

    One position is wrapped by hand and several are picked at C speed
    (``itemgetter`` returns a bare value for one position and takes no
    fewer).
    """
    if len(positions) == 1:
        (at,) = positions
        return lambda row: (row[at],)
    if positions:
        return itemgetter(*positions)
    return lambda row: ()


class RelationInstance:
    """An instance of a relation schema: a set of positional tuples."""

    def __init__(self, schema: RelationSchema, rows: Iterable[Sequence] = ()):
        self.schema = schema
        self._arity = len(schema)
        #: insertion-ordered and hashed at once, so membership, insert and
        #: delete are all O(1) in ``|R|`` (Proposition 12's maintenance cost)
        self._rows: dict[Row, None] = {}
        self.insert_many(rows)

    # -- mutation ---------------------------------------------------------------
    def insert(self, row: Sequence | Mapping[str, object]) -> bool:
        """Insert one tuple; returns ``True`` if the tuple was new.

        Accepts either a positional sequence (aligned with the schema) or a
        mapping from attribute names to values.
        """
        prepared = self.prepare(row)
        if prepared in self._rows:
            return False
        self._rows[prepared] = None
        return True

    def insert_many(self, rows: Iterable[Sequence | Mapping[str, object]]) -> int:
        """Insert several tuples; returns the number actually added."""
        added = 0
        for row in rows:
            if self.insert(row):
                added += 1
        return added

    def delete(self, row: Sequence | Mapping[str, object]) -> bool:
        """Delete one tuple; returns ``True`` if it was present."""
        prepared = self.prepare(row)
        if prepared not in self._rows:
            return False
        del self._rows[prepared]
        return True

    def prepare(self, row: Sequence | Mapping[str, object]) -> Row:
        """Validate ``row`` against the schema and return its positional form.

        Raises :class:`~repro.core.errors.StorageError` (a ``ReproError``) on
        arity mismatches, missing attributes, or unknown attributes — without
        mutating anything, so callers can validate *before* touching storage
        or derived indexes.
        """
        if type(row) is tuple:  # the common case: no ABC check
            prepared = row
        elif isinstance(row, Mapping):
            missing = [a for a in self.schema.attributes if a not in row]
            if missing:
                raise StorageError(
                    f"row for {self.schema.name!r} is missing attributes {missing}"
                )
            unknown = sorted(k for k in row if k not in self.schema.attributes)
            if unknown:
                raise StorageError(
                    f"row for {self.schema.name!r} has unknown attributes {unknown}; "
                    f"schema has {list(self.schema.attributes)}"
                )
            return tuple(row[a] for a in self.schema.attributes)
        else:
            prepared = tuple(row)
        if len(prepared) != self._arity:
            raise StorageError(
                f"row of arity {len(prepared)} does not match relation "
                f"{self.schema.name!r} of arity {len(self.schema)}"
            )
        return prepared

    # -- access -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence | Mapping[str, object]) -> bool:
        return self.prepare(row) in self._rows

    @property
    def rows(self) -> tuple[Row, ...]:
        return tuple(self._rows)

    # -- simple per-relation operations --------------------------------------------
    def project(self, attributes: Sequence[str]) -> set[Row]:
        """Distinct projections of the rows onto ``attributes``."""
        positions = self.schema.positions(attributes)
        return {tuple(row[p] for p in positions) for row in self._rows}

    def distinct_count(self, attributes: Sequence[str]) -> int:
        return len(self.project(attributes))

    def group_max_multiplicity(
        self, lhs: Sequence[str], rhs: Sequence[str]
    ) -> int:
        """``max over lhs-values of |distinct rhs-values|`` — the observed ``N``.

        This is the statistic access-constraint discovery computes to decide
        the bound of a candidate constraint ``R(lhs → rhs, N)``.
        """
        lhs_positions = self.schema.positions(lhs)
        rhs_positions = self.schema.positions(rhs)
        groups: dict[Row, set[Row]] = {}
        for row in self._rows:
            key = tuple(row[p] for p in lhs_positions)
            value = tuple(row[p] for p in rhs_positions)
            groups.setdefault(key, set()).add(value)
        if not groups:
            return 0
        return max(len(values) for values in groups.values())

    # -- persistence ------------------------------------------------------------------
    def to_csv(self, path: str | Path) -> None:
        """Write the relation to a CSV file with a header row."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.schema.attributes)
            writer.writerows(self._rows)

    @classmethod
    def from_csv(cls, schema: RelationSchema, path: str | Path) -> "RelationInstance":
        """Load a relation from a CSV file written by :meth:`to_csv`."""
        instance = cls(schema)
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return instance
            if tuple(header) != schema.attributes:
                raise StorageError(
                    f"CSV header {header} does not match schema {list(schema.attributes)}"
                )
            for row in reader:
                instance.insert(tuple(row))
        return instance
