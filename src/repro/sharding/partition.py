"""Which shard owns key ``k`` of relation ``R``: one :class:`Partitioner`.

A partitioner assigns every tuple of every relation to exactly one shard,
keyed on one *partition attribute* per relation (the first attribute of the
relation schema unless overridden).  The owner of a key is
``stable_hash(key) % shard_count`` — an even spread that needs no knowledge
of the data, and a pure function of the key: an owner never changes.

Hashing must be deterministic across processes (Python's ``hash`` of
strings is salted per interpreter), so keys are hashed via CRC-32 of their
``repr``.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Mapping, Sequence

from ..core.errors import StorageError
from ..core.schema import DatabaseSchema
from ..storage.counters import VersionClock
from ..storage.database import Database


def stable_hash(value: object) -> int:
    """A process-independent hash of a partition-key value."""
    return zlib.crc32(repr(value).encode("utf-8"))


class Partitioner:
    """Per-relation key attributes and a CRC-32 hash of the key's value."""

    def __init__(
        self,
        schema: DatabaseSchema,
        shard_count: int,
        keys: Mapping[str, str] | None = None,
    ):
        if shard_count < 1:
            raise StorageError(f"shard count must be >= 1, got {shard_count}")
        self.schema = schema
        self.shard_count = shard_count
        self._attributes: dict[str, str] = {}
        self._positions: dict[str, int] = {}
        chosen = dict(keys or {})
        for relation in schema:
            attribute = chosen.pop(relation.name, relation.attributes[0])
            if attribute not in relation.attributes:
                raise StorageError(
                    f"partition key {attribute!r} is not an attribute of "
                    f"relation {relation.name!r}"
                )
            self._attributes[relation.name] = attribute
            self._positions[relation.name] = relation.position(attribute)
        if chosen:
            raise StorageError(
                f"partition keys given for unknown relations {sorted(chosen)}"
            )

    # -- assignment ---------------------------------------------------------------
    def attribute(self, relation: str) -> str:
        """The partition attribute of ``relation``."""
        try:
            return self._attributes[relation]
        except KeyError:
            raise StorageError(f"no partitioning defined for relation {relation!r}") from None

    def shard_for_value(self, value: object) -> int:
        """The shard owning the rows whose partition attribute equals ``value``,
        in every relation: an owner is the value's hash alone."""
        return stable_hash(value) % self.shard_count

    def route(self, keys: Iterable[Sequence], position: int) -> dict[int, list]:
        """``keys`` grouped by the shard owning each key's value at ``position``.

        One pass, :meth:`shard_for_value` per key without its call: the hash
        once per key.
        """
        shard_count = self.shard_count
        groups: dict[int, list] = {}
        for key in keys:
            owner = stable_hash(key[position]) % shard_count
            group = groups.get(owner)
            if group is None:
                groups[owner] = [key]
            else:
                group.append(key)
        return groups

    def shard_for_row(self, relation: str, row: Sequence) -> int:
        """The shard owning ``row`` of ``relation`` (positional tuple)."""
        return self.shard_for_value(row[self._positions[relation]])

    # -- bulk splitting ---------------------------------------------------------------
    def partition(self, database: Database) -> list[Database]:
        """Split ``database`` into ``shard_count`` disjoint fragment databases.

        The input database is left untouched; each fragment holds exactly the
        rows this partitioner assigns to its shard, so the union of the
        fragments is the original data and no row appears twice.  The
        fragments share one fresh :class:`~repro.storage.counters.VersionClock`:
        a write to a relation on any fragment moves that relation's one
        token, so a federation's snapshot is a single clock read.
        """
        clock = VersionClock()
        fragments = [Database(self.schema) for _ in range(self.shard_count)]
        for fragment in fragments:
            fragment.clock = clock
        for relation in database:
            name = relation.schema.name
            buckets: list[list[tuple]] = [[] for _ in range(self.shard_count)]
            for row in relation:
                buckets[self.shard_for_row(name, row)].append(row)
            for fragment, rows in zip(fragments, buckets):
                if rows:
                    fragment.insert_many(name, rows)
        return fragments
