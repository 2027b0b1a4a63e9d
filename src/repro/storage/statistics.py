"""Simple per-relation statistics.

Used by access-constraint discovery (to rank candidate constraints), by the
workload generators (to pick realistic constants), and by the conventional
baseline's rudimentary optimizer (to order joins by estimated size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .database import Database
from .relation import RelationInstance


@dataclass
class RelationStatistics:
    """Cardinality and per-attribute distinct-count statistics of one relation."""

    name: str
    row_count: int
    distinct_counts: Mapping[str, int]
    sample_values: Mapping[str, tuple]

    def distinct(self, attribute: str) -> int:
        return self.distinct_counts.get(attribute, 0)


@dataclass
class DatabaseStatistics:
    """Statistics of every relation of a database."""

    relations: dict[str, RelationStatistics] = field(default_factory=dict)

    @classmethod
    def collect(cls, database: Database, sample_size: int = 20) -> "DatabaseStatistics":
        stats = cls()
        for relation in database:
            stats.relations[relation.schema.name] = _collect_relation(relation, sample_size)
        return stats

    def __getitem__(self, relation: str) -> RelationStatistics:
        return self.relations[relation]

    def __contains__(self, relation: str) -> bool:
        return relation in self.relations


def _collect_relation(relation: RelationInstance, sample_size: int) -> RelationStatistics:
    distinct_counts: dict[str, int] = {}
    sample_values: dict[str, tuple] = {}
    for attribute in relation.schema.attributes:
        values = relation.project([attribute])
        distinct_counts[attribute] = len(values)
        flattened = sorted((v[0] for v in values), key=repr)
        sample_values[attribute] = tuple(flattened[:sample_size])
    return RelationStatistics(
        name=relation.schema.name,
        row_count=len(relation),
        distinct_counts=distinct_counts,
        sample_values=sample_values,
    )
