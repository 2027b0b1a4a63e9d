"""The running example of the paper (Example 1): Facebook-style Graph Search.

Three relations — ``friend(pid, fid)``, ``dine(pid, cid, month, year)`` and
``cafe(cid, city)`` — together with the access constraints ψ1–ψ4.  The data
generator produces a social graph whose fan-outs respect the constraints
(at most ``max_friends`` friends per person, at most 31 restaurants per
person per month), so that ``D |= A_0`` at every scale.
"""

from __future__ import annotations

import random

from ..core.access import AccessConstraint, AccessSchema
from ..core.query import Query, Relation, conjunction, eq
from ..core.schema import DatabaseSchema
from ..storage.database import Database
from .base import WorkloadSpec

MONTHS = (
    "jan", "feb", "mar", "apr", "may", "jun",
    "jul", "aug", "sep", "oct", "nov", "dec",
)
CITIES = ("nyc", "boston", "chicago", "seattle", "austin", "denver", "miami", "la")


def schema() -> DatabaseSchema:
    """The relational schema of Example 1."""
    return DatabaseSchema.from_dict(
        {
            "friend": ["pid", "fid"],
            "dine": ["pid", "cid", "month", "year"],
            "cafe": ["cid", "city"],
        }
    )


def access_schema(database_schema: DatabaseSchema | None = None) -> AccessSchema:
    """The access schema ``A_0 = {ψ1, ψ2, ψ3, ψ4}`` of Example 1."""
    database_schema = database_schema or schema()
    return AccessSchema(
        [
            AccessConstraint.of("friend", "pid", "fid", 5000, name="psi1"),
            AccessConstraint.of("dine", ["pid", "year", "month"], "cid", 31, name="psi2"),
            AccessConstraint.of("dine", ["pid", "cid"], ["pid", "cid"], 1, name="psi3"),
            AccessConstraint.of("cafe", "cid", "city", 1, name="psi4"),
        ],
        schema=database_schema,
    )


def generate(scale: int = 200, seed: int = 0, *, max_friends: int = 40) -> Database:
    """A synthetic social graph with ``scale`` people, satisfying ``A_0``.

    ``max_friends`` caps the friend fan-out (well below ψ1's 5000 so tests
    stay fast); each person dines at a handful of cafes per month, far below
    ψ2's limit of 31.
    """
    rng = random.Random(seed)
    database = Database(schema())

    people = [f"p{i}" for i in range(scale)]
    n_cafes = max(10, scale // 4)
    cafes = [f"c{i}" for i in range(n_cafes)]
    years = (2013, 2014, 2015)

    for cid in cafes:
        database.insert("cafe", (cid, rng.choice(CITIES)))

    for pid in people:
        friend_count = rng.randint(1, min(max_friends, max(1, scale - 1)))
        for fid in rng.sample(people, min(friend_count, len(people))):
            if fid != pid:
                database.insert("friend", (pid, fid))

    for pid in people:
        for year in years:
            for month in rng.sample(MONTHS, rng.randint(1, 4)):
                for cid in rng.sample(cafes, rng.randint(1, 3)):
                    database.insert("dine", (pid, cid, month, year))

    return database


# ---------------------------------------------------------------------------
# The queries of Example 1
# ---------------------------------------------------------------------------

def query_q1(person: str = "p0", month: str = "may", year: int = 2015, city: str = "nyc") -> Query:
    """``Q1``: restaurants in ``city`` where friends of ``person`` dined in ``month``/``year``."""
    s = schema()
    friend = Relation.from_schema(s, "friend")
    dine = Relation.from_schema(s, "dine")
    cafe = Relation.from_schema(s, "cafe")
    return (
        friend.join(dine, eq(friend["fid"], dine["pid"]))
        .select(
            conjunction(
                [eq(friend["pid"], person), eq(dine["month"], month), eq(dine["year"], year)]
            )
        )
        .join(cafe, eq(dine["cid"], cafe["cid"]))
        .select(eq(cafe["city"], city))
        .project([dine["cid"]])
    )


def query_friends_of_friends(person: str = "p0") -> Query:
    """Friends of ``person``'s friends: a self-join, covered by ψ1 alone.

    Not one of the paper's queries.  Its plan fetches the one index of ψ1 at
    several sites with different keys (``person``, then each friend), which
    is the case write settlement has to get right: what the result cache's
    reach index holds for the plan is the union of what those sites probed.
    """
    s = schema()
    near = Relation.from_schema(s, "friend")
    far = Relation("friend_far", s["friend"].attributes, base="friend")
    return (
        near.join(far, eq(near["fid"], far["pid"]))
        .select(eq(near["pid"], person))
        .project([far["fid"]])
    )


def query_q2(person: str = "p0") -> Query:
    """``Q2``: every restaurant where ``person`` has dined (not covered by ``A_0``)."""
    s = schema()
    dine = Relation("dine_q2", s["dine"].attributes, base="dine")
    return dine.select(eq(dine["pid"], person)).project([dine["cid"]])


def query_q0(person: str = "p0", month: str = "may", year: int = 2015, city: str = "nyc") -> Query:
    """``Q0 = Q1 − Q2``: the Graph Search query as originally written (not covered)."""
    return query_q1(person, month, year, city).difference(query_q2(person))


def query_q3(person: str = "p0", month: str = "may", year: int = 2015, city: str = "nyc") -> Query:
    """``Q3``: the guarded version of ``Q2`` — ``Q1``'s answers that ``person`` has visited."""
    s = schema()
    friend = Relation("friend_g", s["friend"].attributes, base="friend")
    dine = Relation("dine_g", s["dine"].attributes, base="dine")
    cafe = Relation("cafe_g", s["cafe"].attributes, base="cafe")
    check = Relation("dine_chk", s["dine"].attributes, base="dine")
    inner_q1 = (
        friend.join(dine, eq(friend["fid"], dine["pid"]))
        .select(
            conjunction(
                [eq(friend["pid"], person), eq(dine["month"], month), eq(dine["year"], year)]
            )
        )
        .join(cafe, eq(dine["cid"], cafe["cid"]))
        .select(eq(cafe["city"], city))
        .project([dine["cid"]])
    )
    return (
        inner_q1.join(check, eq(dine["cid"], check["cid"]))
        .select(eq(check["pid"], person))
        .project([dine["cid"]])
    )


def query_q0_prime(
    person: str = "p0", month: str = "may", year: int = 2015, city: str = "nyc"
) -> Query:
    """``Q0' = Q1 − Q3``: the covered, A-equivalent rewriting of ``Q0``."""
    return query_q1(person, month, year, city).difference(query_q3(person, month, year, city))


JOIN_EDGES = (
    (("friend", "fid"), ("dine", "pid")),
    (("friend", "pid"), ("dine", "pid")),
    (("dine", "cid"), ("cafe", "cid")),
)

WORKLOAD = WorkloadSpec(
    name="facebook",
    schema=schema(),
    access_schema=access_schema(),
    generate=generate,
    join_edges=JOIN_EDGES,
    description="Graph-Search running example of the paper (friend/dine/cafe)",
    default_scale=200,
)
