"""Shared infrastructure for the experiment workloads.

Each workload (AIRCA, TFACC, MCBM) provides the same three ingredients the
paper's experiments need: a relational schema, an access schema of published
or plausible constraints, and a synthetic data generator.  A
:class:`WorkloadSpec` bundles them together with the join graph the random
query generator uses.

The generators satisfy their constraints at the scales the repo runs (≤ a few
hundred), but not at any scale: scaling adds rows under the same districts,
years, airlines and dates, so index groups grow with scale until they break a
bound.  TFACC's ``accidents (district, year) → accident_id`` (N = 500) has a
largest group of 50 / 163 / 434 at scales 200 / 800 / 2 400 and breaks at
3 200 (543–546 ids in one group, by data seed); AIRCA's ``flights
(airline_id, flight_date) → flight_id`` (N = 60) breaks at 6 400.
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
