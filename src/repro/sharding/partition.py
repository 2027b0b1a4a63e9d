"""Which shard owns key ``k`` of relation ``R``: one :class:`Partitioner`.

A partitioner assigns every tuple of every relation to exactly one shard,
keyed on one *partition attribute* per relation (the first attribute of the
relation schema unless overridden).  The owner of a key is
``stable_hash(key) % shard_count`` — an even spread that needs no knowledge
of the data — followed by the relation's ordered rebalance overrides
(:meth:`Partitioner.add_override`), which
:meth:`~repro.sharding.router.ShardRouter.rebalance` appends as it moves a
key range between shards.

Hashing must be deterministic across processes (Python's ``hash`` of
strings is salted per interpreter), so keys are hashed via CRC-32 of their
``repr``.
"""

from __future__ import annotations

import zlib
from typing import Mapping, Sequence

from ..core.errors import StorageError
from ..core.schema import DatabaseSchema
from ..storage.database import Database


def stable_hash(value: object) -> int:
    """A process-independent hash of a partition-key value."""
    return zlib.crc32(repr(value).encode("utf-8"))


class Partitioner:
    """Per-relation key attributes, a CRC-32 hash, then rebalance overrides.

    Each override is ``(lo, hi, src, dst)`` on one relation, read as "keys
    in ``[lo, hi)`` that the map *so far* assigns to ``src`` now belong to
    ``dst``".  The ``src`` guard is what makes overrides sound under hash
    partitioning: a plain range→dst rule would also remap keys owned by
    *other* shards whose rows were never moved.  Overrides chain in
    application order, so a range moved twice follows both hops.  Keys that
    do not compare with the range bounds (mixed-type keys) are left with
    their current owner — such keys were never part of the migrated range.
    """

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
        self._overrides: dict[str, list[tuple]] = {}
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

    def key(self, relation: str, row: Sequence) -> object:
        """``row``'s value of ``relation``'s partition attribute."""
        return row[self._positions[relation]]

    def shard_for_value(self, relation: str, value: object) -> int:
        """The shard owning rows of ``relation`` whose key attribute equals ``value``."""
        owner = stable_hash(value) % self.shard_count
        for lo, hi, src, dst in self._overrides.get(relation, ()):
            if owner != src:
                continue
            try:
                moved = lo <= value < hi
            except TypeError:
                continue
            if moved:
                owner = dst
        return owner

    def shard_for_row(self, relation: str, row: Sequence) -> int:
        """The shard owning ``row`` of ``relation`` (positional tuple)."""
        return self.shard_for_value(relation, row[self._positions[relation]])

    # -- rebalance overrides -----------------------------------------------------------
    def add_override(self, relation: str, lo, hi, src: int, dst: int) -> None:
        """Append one migration rule; effective for all later assignments.

        :meth:`~repro.sharding.router.ShardRouter.rebalance`, the one caller,
        has checked that ``src`` and ``dst`` are two shards of this map.
        """
        self._overrides.setdefault(relation, []).append((lo, hi, src, dst))

    @property
    def override_count(self) -> int:
        return sum(len(rules) for rules in self._overrides.values())

    # -- bulk splitting ---------------------------------------------------------------
    def partition(self, database: Database) -> list[Database]:
        """Split ``database`` into ``shard_count`` disjoint fragment databases.

        The input database is left untouched; each fragment holds exactly the
        rows this partitioner assigns to its shard, so the union of the
        fragments is the original data and no row appears twice.
        """
        fragments = [Database(self.schema) for _ in range(self.shard_count)]
        for relation in database:
            name = relation.schema.name
            buckets: list[list[tuple]] = [[] for _ in range(self.shard_count)]
            for row in relation:
                buckets[self.shard_for_row(name, row)].append(row)
            for fragment, rows in zip(fragments, buckets):
                if rows:
                    fragment.insert_many(name, rows)
        return fragments
