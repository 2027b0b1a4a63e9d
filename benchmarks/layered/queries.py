"""Witness-seeded generation of satisfiable covered queries.

``select_covered_queries`` binds 4-9 independently sampled constants, so
almost every "covered" query it returns is contradictory and answers with
0 rows.  This generator starts from a *witness*: a chain of stored rows
that join along the workload's join edges.  A query built over that chain,
whose selection binds every left-hand-side attribute of one access
constraint of the start relation to the witness's own values, is satisfied
by the witness, so its answer is never empty.

What a query costs depends on two things: its *shape* (start constraint,
join path, projection), which fixes the plan, and its *constants*, which fix
how many tuples the plan fetches.  Shapes are enumerated, in a fixed order,
and filtered by ``check_coverage`` once, and the keys of a shape are taken in
order of how typical their index group's size is.  Neither depends on the
seed: it chooses the witness rows within a key's group (the rows a write
stream then aims at), and the workloads use it to order their requests.  Two
seeds therefore run the same queries in another order, which keeps latency
quantiles comparable between seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Sequence

import repro
from repro.core.access import AccessConstraint
from repro.core.coverage import check_coverage
from repro.core.engine import prepare_query
from repro.core.optimizer import COLUMNAR_BOUND_THRESHOLD
from repro.core.query import Join, Projection, Query, Relation, Selection, conjunction, eq
from repro.storage.database import Database
from repro.workloads.base import WorkloadSpec

#: joins per query; the reference evaluator materializes every join, and with
#: three joins verifying 64 queries took 16 s instead of 1 s
MAX_JOINS = 2

#: an executable plan whose ``access_bound()`` is at most this is a point query
POINT_BOUND = 1000
#: ... and one whose bound reaches the optimizer's threshold is a wide query:
#: ``auto`` runs it on columnar kernels.  The band in between is left out (see
#: README.md, known gaps): row kernels take 9-15 ms there for one query of
#: 117 fetched tuples, and that one query decided p99 and halved the rate.
WIDE_BOUND = COLUMNAR_BOUND_THRESHOLD

#: Tagged sets draw from this many leading shapes.  Classifying a shape means
#: planning it (35 ms); the first 96 hold 53 point and 27 wide shapes, so a
#: set of 64 point queries reuses eleven shapes with other keys.
TAGGED_SHAPES = 96

POINT = "point"
WIDE = "wide"

#: where the access bounds of the shapes are kept between runs of one checkout
BOUNDS_FILE = Path(__file__).resolve().parent / ".cache" / "shape_bounds.json"

Row = tuple


@dataclass(frozen=True)
class Hop:
    """One join of a shape: relation ``anchor`` (by position) to a new relation."""

    anchor: int
    anchor_attribute: str
    relation: str
    attribute: str


@dataclass(frozen=True)
class Shape:
    """The data-independent part of a query: what is bound, joined and projected."""

    constraint: AccessConstraint
    hops: tuple[Hop, ...]
    #: (position in the chain, attribute) pairs of the projection
    projection: tuple[tuple[int, str], ...]

    @property
    def relations(self) -> tuple[str, ...]:
        return (self.constraint.relation,) + tuple(hop.relation for hop in self.hops)


@dataclass
class BenchQuery:
    """A generated query, the rows that witness it, and its static cost class."""

    query: Query
    shape: Shape
    #: one stored row per relation of the shape, joining along its hops
    witness: tuple[Row, ...]
    #: :data:`POINT` or :data:`WIDE`
    tag: str


def _constraint_attributes(spec: WorkloadSpec, relation: str) -> list[str]:
    """Attributes of ``relation`` that occur in some access constraint, schema order."""
    used: set[str] = set()
    for constraint in spec.access_schema.for_relation(relation):
        used |= constraint.lhs | constraint.rhs
    return [a for a in spec.schema[relation].attributes if a in used]


def _paths(spec: WorkloadSpec, start: str) -> Iterator[tuple[Hop, ...]]:
    """Every join path of at most :data:`MAX_JOINS` hops from ``start``, in edge order.

    A path visits a base relation once.  Joining a large relation to itself
    over a non-key attribute (two accidents of one district) multiplies the
    reference evaluator's intermediate result: one such query took 2.7 s to
    verify, more than the other 63 of its set together.
    """

    def extend(path: tuple[Hop, ...]) -> Iterator[tuple[Hop, ...]]:
        yield path
        if len(path) == MAX_JOINS:
            return
        chain = (start,) + tuple(hop.relation for hop in path)
        for position, relation in enumerate(chain):
            for left, right in spec.join_edges:
                for near, far in ((left, right), (right, left)):
                    if near[0] == relation and far[0] not in chain:
                        yield from extend(
                            path + (Hop(position, near[1], far[0], far[1]),)
                        )

    return extend(())


def enumerate_shapes(spec: WorkloadSpec) -> list[Shape]:
    """Every covered shape of ``spec``, in a fixed order that mixes start constraints.

    One shape per (constraint with a non-empty left-hand side, join path).
    The projection takes the first constraint attribute of each relation the
    shape includes, rotated by the path's index so that shapes over the same
    relations do not all project the same columns.  Shapes are interleaved
    round-robin over the start constraints: any prefix of the list covers as
    many different constraints as it can.
    """
    per_constraint: list[list[Shape]] = []
    for constraint in spec.access_schema:
        if not constraint.lhs:
            continue
        shapes: list[Shape] = []
        for index, path in enumerate(_paths(spec, constraint.relation)):
            chain = (constraint.relation,) + tuple(hop.relation for hop in path)
            projection = []
            for position, relation in enumerate(chain):
                attributes = _constraint_attributes(spec, relation)
                projection.append((position, attributes[index % len(attributes)]))
            shape = Shape(constraint, path, tuple(projection))
            probe = build_query(spec, shape, None)
            if check_coverage(probe, spec.access_schema).is_covered:
                shapes.append(shape)
        per_constraint.append(shapes)
    interleaved: list[Shape] = []
    for rank in range(max(map(len, per_constraint), default=0)):
        for shapes in per_constraint:
            if rank < len(shapes):
                interleaved.append(shapes[rank])
    return interleaved


def build_query(spec: WorkloadSpec, shape: Shape, witness: Sequence[Row] | None) -> Query:
    """The query of ``shape`` with its constraint key bound to ``witness[0]``.

    With ``witness=None`` the key is bound to placeholders: coverage depends
    on *which* attributes are bound, never on the constants.
    """
    occurrences = [
        Relation(f"{relation}_{position}", spec.schema[relation].attributes, base=relation)
        for position, relation in enumerate(shape.relations)
    ]
    query: Query = occurrences[0]
    for occurrence, hop in zip(occurrences[1:], shape.hops):
        condition = eq(occurrences[hop.anchor][hop.anchor_attribute], occurrence[hop.attribute])
        query = Join(query, occurrence, condition)
    start_schema = spec.schema[shape.constraint.relation]
    atoms = [
        eq(
            occurrences[0][attribute],
            witness[0][start_schema.position(attribute)] if witness is not None else 0,
        )
        for attribute in sorted(shape.constraint.lhs)
    ]
    query = Selection(query, conjunction(atoms))
    return Projection(query, [occurrences[p][a] for p, a in shape.projection])


def _sources_digest() -> str:
    """Digest of all that decides a shape's plan: the program's sources and this file."""
    digest = hashlib.sha256()
    for source in sorted(Path(repro.__file__).parent.rglob("*.py")) + [Path(__file__)]:
        digest.update(source.read_bytes())
    return digest.hexdigest()


class ShapeCatalog:
    """The covered shapes of one workload and the cost class of each.

    A shape's class follows from its plan, not from any database, and
    planning a shape costs tens of milliseconds: a catalog is shared by every
    set-up of a process, and the bounds it has planned are kept in
    :data:`BOUNDS_FILE` for the next process, which saves each run four
    seconds it can spend measuring.  The file is only believed while the
    sources it was planned with are unchanged.
    """

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.shapes = enumerate_shapes(spec)
        self._key = f"{spec.name}:{_sources_digest()}"
        self._bounds: dict[Shape, int] = {}
        try:
            kept = json.loads(BOUNDS_FILE.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            kept = {}
        if kept.get("key") == self._key:
            self._bounds = {self.shapes[int(i)]: b for i, b in kept["bounds"].items()}
        #: time spent planning shapes so far; a set-up's timer subtracts it
        self.planning_seconds = 0.0

    def _keep(self) -> None:
        position = {shape: index for index, shape in enumerate(self.shapes)}
        kept = {"key": self._key, "bounds": {position[s]: b for s, b in self._bounds.items()}}
        scratch = BOUNDS_FILE.with_suffix(f".{os.getpid()}.tmp")
        try:
            BOUNDS_FILE.parent.mkdir(exist_ok=True)
            scratch.write_text(json.dumps(kept), encoding="utf-8")
            scratch.replace(BOUNDS_FILE)  # atomic: two runs may share a checkout
        except OSError:
            pass  # a checkout that cannot be written to plans its shapes every time

    def access_bound(self, shape: Shape) -> int:
        """``access_bound()`` of the executable plan the engine prepares for ``shape``."""
        bound = self._bounds.get(shape)
        if bound is None:
            started = perf_counter()
            prepared = prepare_query(
                build_query(self.spec, shape, None), self.spec.access_schema
            )
            bound = self._bounds[shape] = prepared.executable.access_bound()
            self._keep()
            self.planning_seconds += perf_counter() - started
        return bound

    def tag(self, shape: Shape) -> str | None:
        """:data:`POINT`, :data:`WIDE`, or ``None`` for the band between them."""
        bound = self.access_bound(shape)
        if bound <= POINT_BOUND:
            return POINT
        return WIDE if bound >= WIDE_BOUND else None


class WitnessQueryGenerator:
    """Draws satisfiable covered queries for one database, deterministic per seed."""

    def __init__(self, catalog: ShapeCatalog, database: Database, seed: int):
        self.catalog = catalog
        self.spec = catalog.spec
        self.database = database
        self.rng = random.Random(seed)
        self._rows = {name: database.relation(name).rows for name in self.spec.schema.relation_names()}
        #: constraint -> its key groups, the one of median size first; built on first use
        self._typical_groups: dict[AccessConstraint, list[list[Row]]] = {}
        #: (relation, attribute) -> value -> rows; built on first use
        self._by_value: dict[tuple[str, str], dict[object, list[Row]]] = {}

    def _matching(self, relation: str, attribute: str, value: object) -> list[Row]:
        groups = self._by_value.get((relation, attribute))
        if groups is None:
            position = self.spec.schema[relation].position(attribute)
            groups = {}
            for row in self._rows[relation]:
                groups.setdefault(row[position], []).append(row)
            self._by_value[(relation, attribute)] = groups
        return groups.get(value, [])

    def _start_rows(self, constraint: AccessConstraint, rank: int) -> list[Row]:
        """The stored rows under the ``rank``-th most typical key of ``constraint``, shuffled.

        How much a query fetches follows the size of the group its key
        selects (the accidents of one district and year), and group sizes are
        skewed: with uniformly drawn keys one wide query cost ten times what
        it cost under the next seed, and 13 wide queries do not average that
        out.  Even among the three keys closest to the median size, what the
        joins behind the key fetch moved single wide queries by a factor of
        two, and ``read_p95_us`` of ``exec_miss`` with them.  So the key is
        not drawn: keys are ranked by how close their group's size is to the
        median, and the seed only picks the witness among the group's rows.
        """
        ranked = self._typical_groups.get(constraint)
        if ranked is None:
            positions = self.spec.schema[constraint.relation].positions(sorted(constraint.lhs))
            groups: dict[tuple, list[Row]] = {}
            for row in self._rows[constraint.relation]:
                groups.setdefault(tuple(row[p] for p in positions), []).append(row)
            by_size = sorted(groups.values(), key=lambda rows: (len(rows), rows[0]))
            middle = len(by_size) // 2
            ranked = self._typical_groups[constraint] = [
                by_size[i] for i in sorted(range(len(by_size)), key=lambda i: abs(i - middle))
            ]
        if rank >= len(ranked):
            return []
        return self.rng.sample(ranked[rank], len(ranked[rank]))

    def _witness(self, shape: Shape, rank: int) -> tuple[Row, ...] | None:
        """A row chain along ``shape``'s hops from its ``rank``-th key; ``None`` if all dead-end."""
        relations = shape.relations
        for start in self._start_rows(shape.constraint, rank):
            chain = [start]
            for hop in shape.hops:
                anchor_schema = self.spec.schema[relations[hop.anchor]]
                value = chain[hop.anchor][anchor_schema.position(hop.anchor_attribute)]
                candidates = self._matching(hop.relation, hop.attribute, value)
                if not candidates:
                    break
                chain.append(self.rng.choice(candidates))
            else:
                return tuple(chain)
        return None

    def _walk(
        self, shapes: Sequence[Shape], wanted: Callable[[Shape], bool]
    ) -> Iterator[BenchQuery]:
        """Distinct queries over those of ``shapes`` that ``wanted`` accepts, round-robin.

        Round ``n`` binds every shape to its ``n``-th most typical key, so a
        set larger than the shape list reuses shapes with other keys.  A
        dead-end witness costs one visit; 50 rounds is far more than any set
        this benchmark asks for needs.
        """
        for rank in range(50):
            for shape in shapes:
                if not wanted(shape):
                    continue
                witness = self._witness(shape, rank)
                if witness is not None:
                    query = build_query(self.spec, shape, witness)
                    yield BenchQuery(query, shape, witness, self.catalog.tag(shape))

    def tagged(self, point: int, wide: int) -> list[BenchQuery]:
        """``point`` point queries then ``wide`` wide ones, all distinct."""
        wanted = {POINT: point, WIDE: wide, None: 0}
        found: dict[str | None, list[BenchQuery]] = {POINT: [], WIDE: [], None: []}
        tag = self.catalog.tag
        shapes = self.catalog.shapes[:TAGGED_SHAPES]
        for drawn in self._walk(shapes, lambda s: len(found[tag(s)]) < wanted[tag(s)]):
            found[drawn.tag].append(drawn)
            if all(len(found[t]) == wanted[t] for t in wanted):
                return found[POINT] + found[WIDE]
        raise RuntimeError(
            f"only {len(found[POINT])} point and {len(found[WIDE])} wide queries "
            f"could be generated (asked for {point} and {wide})"
        )
