"""Shared infrastructure for the experiment workloads.

Each workload (AIRCA, TFACC, MCBM) provides the same three ingredients the
paper's experiments need: a relational schema, an access schema of published
or plausible constraints, and a synthetic data generator whose output
*satisfies* those constraints at any scale.  A :class:`WorkloadSpec` bundles
them together with the join graph the random query generator uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.access import AccessSchema
from ..core.schema import DatabaseSchema
from ..storage.database import Database

#: A join edge: ((relation, attribute), (relation, attribute)) that makes
#: semantic sense to equate in a query (a foreign-key-style relationship).
JoinEdge = tuple[tuple[str, str], tuple[str, str]]


@dataclass
class WorkloadSpec:
    """A named workload: schema, constraints, generator, and join graph."""

    name: str
    schema: DatabaseSchema
    access_schema: AccessSchema
    generate: Callable[[int, int], Database]
    join_edges: tuple[JoinEdge, ...] = ()
    description: str = ""
    default_scale: int = 200

    def database(self, scale: int | None = None, seed: int = 0) -> Database:
        """Generate a database at the given scale (entities), deterministic per seed."""
        return self.generate(scale if scale is not None else self.default_scale, seed)
