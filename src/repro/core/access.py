"""Access constraints and access schemas (Section 2 of the paper).

An access constraint has the form ``R(X -> Y, N)``: for every ``X``-value in
an instance of ``R`` there are at most ``N`` distinct corresponding
``Y``-values, and an index exists that retrieves those ``Y``-values by
accessing at most ``N`` tuples.  An :class:`AccessSchema` is a set of such
constraints.

The module also implements *actualization* (Lemma 1): when a query renames
relation occurrences apart, each constraint on a base relation ``R`` is copied
onto every occurrence ``S`` of ``R`` in the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import AccessConstraintError, SchemaError
from .schema import DatabaseSchema, RelationSchema


@dataclass(frozen=True)
class AccessConstraint:
    """An access constraint ``R(X -> Y, N)``.

    ``lhs`` (the ``X`` of the paper) may be empty, meaning "there are at most
    ``N`` distinct ``Y`` values in any instance of ``R``" — e.g. at most 12
    distinct months.  ``bound`` is the cardinality bound ``N``.
    """

    relation: str
    lhs: frozenset[str]
    rhs: frozenset[str]
    bound: int
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise AccessConstraintError(f"bound must be positive, got {self.bound}")
        if not self.rhs:
            raise AccessConstraintError("the right-hand side of an access constraint must be non-empty")

    @classmethod
    def of(
        cls,
        relation: str,
        lhs: Iterable[str] | str,
        rhs: Iterable[str] | str,
        bound: int,
        name: str | None = None,
    ) -> "AccessConstraint":
        """Convenience constructor accepting strings or iterables of strings.

        ``AccessConstraint.of("friend", "pid", "fid", 5000)`` builds the
        paper's ψ1.  Pass ``()`` or ``""`` for an empty left-hand side.
        """
        if isinstance(lhs, str):
            lhs = [lhs] if lhs else []
        if isinstance(rhs, str):
            rhs = [rhs] if rhs else []
        return cls(relation, frozenset(lhs), frozenset(rhs), bound, name)

    # -- structural predicates ------------------------------------------------
    @property
    def is_functional_dependency(self) -> bool:
        """True when ``N = 1`` — a classical FD with an index."""
        return self.bound == 1

    @property
    def is_indexing(self) -> bool:
        """An *indexing constraint* per Section 6.1: ``R(X -> X, 1)``."""
        return self.bound == 1 and self.lhs == self.rhs

    @property
    def is_unit(self) -> bool:
        """A *unit constraint* per Section 6.1: ``|X| = |Y| = 1``."""
        return len(self.lhs) == 1 and len(self.rhs) == 1

    @property
    def size(self) -> int:
        """The length of the constraint (contributes to ``|A|``)."""
        return len(self.lhs) + len(self.rhs) + 1

    def attributes(self) -> frozenset[str]:
        """All attributes the constraint mentions (``X ∪ Y``)."""
        return self.lhs | self.rhs

    def validate(self, schema: DatabaseSchema) -> None:
        """Check that the constraint only mentions attributes of its relation."""
        if self.relation not in schema:
            raise AccessConstraintError(f"constraint {self} refers to unknown relation {self.relation!r}")
        relation = schema[self.relation]
        for attr in self.attributes():
            if attr not in relation:
                raise AccessConstraintError(
                    f"constraint {self} uses attribute {attr!r} not in relation {self.relation!r}"
                )

    def actualize(self, occurrence: str) -> "AccessConstraint":
        """The actualized constraint of this constraint on occurrence ``occurrence``."""
        return AccessConstraint(occurrence, self.lhs, self.rhs, self.bound, self.name)

    def __str__(self) -> str:
        lhs = ",".join(sorted(self.lhs)) if self.lhs else "∅"
        rhs = ",".join(sorted(self.rhs))
        return f"{self.relation}(({lhs}) -> ({rhs}), {self.bound})"


class AccessSchema:
    """A set ``A`` of access constraints over a database schema.

    Provides the size measures used throughout the paper: ``size`` is ``|A|``
    (total length of the constraints) and ``len(A)`` is ``||A||`` (the number
    of constraints).
    """

    def __init__(
        self,
        constraints: Iterable[AccessConstraint] = (),
        schema: DatabaseSchema | None = None,
    ):
        self._constraints: list[AccessConstraint] = []
        self._members: set[AccessConstraint] = set()
        self._by_relation: dict[str, list[AccessConstraint]] = {}
        self.schema = schema
        for constraint in constraints:
            self.add(constraint)

    def add(self, constraint: AccessConstraint) -> None:
        """Add a constraint (validated against the schema; duplicates ignored)."""
        if self.schema is not None:
            constraint.validate(self.schema)
        self._append(constraint)

    def _append(self, constraint: AccessConstraint) -> None:
        if constraint in self._members:
            return
        self._members.add(constraint)
        self._constraints.append(constraint)
        self._by_relation.setdefault(constraint.relation, []).append(constraint)

    @classmethod
    def trusted(
        cls, constraints: Iterable[AccessConstraint], schema: DatabaseSchema | None = None
    ) -> "AccessSchema":
        """An access schema of constraints already validated against ``schema``.

        For derived schemas (subsets of a validated schema, actualized
        copies): same de-duplication and iteration order as the constructor,
        without re-validating every member.
        """
        derived = cls(schema=schema)
        for constraint in constraints:
            derived._append(constraint)
        return derived

    # -- protocol ------------------------------------------------------------
    def __iter__(self) -> Iterator[AccessConstraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        """``||A||`` — the number of constraints."""
        return len(self._constraints)

    def __contains__(self, constraint: AccessConstraint) -> bool:
        return constraint in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessSchema):
            return NotImplemented
        return self._members == other._members

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"AccessSchema({len(self._constraints)} constraints)"

    # -- size measures ---------------------------------------------------------
    @property
    def size(self) -> int:
        """``|A|`` — the total length of the access constraints."""
        return sum(constraint.size for constraint in self._constraints)

    @property
    def total_bound(self) -> int:
        """``N_A = Σ N`` over all constraints (used by Proposition 12 and AMP)."""
        return sum(constraint.bound for constraint in self._constraints)

    # -- lookups ---------------------------------------------------------------
    def for_relation(self, relation: str) -> tuple[AccessConstraint, ...]:
        """All constraints whose relation (occurrence) is ``relation``."""
        return tuple(self._by_relation.get(relation, ()))

    def constraints(self) -> tuple[AccessConstraint, ...]:
        """All constraints in insertion order."""
        return tuple(self._constraints)

    def restrict(self, keep: Iterable[AccessConstraint]) -> "AccessSchema":
        """A new access schema containing only the given constraints (a subset A_m)."""
        keep_set = set(keep)
        return AccessSchema.trusted(
            (c for c in self._constraints if c in keep_set), self.schema
        )

    def without(self, dropped: AccessConstraint) -> "AccessSchema":
        """A new access schema with one constraint removed."""
        return AccessSchema.trusted(
            (c for c in self._constraints if c != dropped), self.schema
        )

    def sample_fraction(self, fraction: float, seed: int = 0) -> "AccessSchema":
        """A random (but seed-deterministic) ``fraction`` of the constraints.

        The Figure 6 experiment uses random subsets so the covered percentage
        grows gradually with ``||A||`` instead of jumping when one pivotal
        constraint happens to enter the prefix.  One seeded permutation is
        drawn and its first ``round(n * fraction)`` constraints are kept (in
        insertion order), so the subsets of one seed are nested: a smaller
        fraction is always a subset of a larger one.
        """
        import random

        if not 0.0 <= fraction <= 1.0:
            raise AccessConstraintError(f"fraction must be in [0, 1], got {fraction}")
        order = list(range(len(self._constraints)))
        random.Random(seed).shuffle(order)
        kept = sorted(order[: round(len(order) * fraction)])
        return AccessSchema.trusted([self._constraints[i] for i in kept], self.schema)

    # -- actualization (Lemma 1) -----------------------------------------------
    def actualize(self, occurrences: Mapping[str, str]) -> "AccessSchema":
        """The actualized access schema of ``A`` on a normalized query.

        ``occurrences`` maps each occurrence name used in the query to the
        base relation it renames (identity for non-renamed relations).  Every
        constraint of a base relation is copied to each of its occurrences,
        which takes ``O(|Q| * |A|)`` time as stated by Lemma 1.
        """
        return AccessSchema.trusted(
            constraint.actualize(occurrence)
            for occurrence, base in occurrences.items()
            for constraint in self._by_relation.get(base, ())
        )
