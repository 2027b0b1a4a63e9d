"""Relational schemas.

A :class:`RelationSchema` is a named relation with an ordered list of
attributes.  A :class:`DatabaseSchema` is a collection of relation schemas,
the ``R`` of the paper.  Attributes are referred to either by bare name
(``"cid"``) or qualified (``"cafe.cid"``); the :class:`Attribute` value class
keeps both parts so that queries over renamed relation occurrences can talk
about ``dine'[cid]`` and ``dine''[cid]`` as distinct attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SchemaError


@dataclass(frozen=True, order=True)
class Attribute:
    """A (relation, attribute) pair, e.g. ``dine.cid``.

    ``relation`` is the *occurrence* name of the relation in a query (after
    normalization each occurrence has a distinct name), and ``name`` is the
    attribute name within that relation.
    """

    relation: str
    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.relation}.{self.name}"

    @classmethod
    def parse(cls, text: str, default_relation: str | None = None) -> "Attribute":
        """Parse ``"rel.attr"`` or ``"attr"`` (using ``default_relation``)."""
        if "." in text:
            relation, name = text.split(".", 1)
            return cls(relation, name)
        if default_relation is None:
            raise SchemaError(f"attribute {text!r} is unqualified and no default relation given")
        return cls(default_relation, text)


class RelationSchema:
    """A relation schema ``R(A1, ..., Ak)``.

    Attributes are ordered (tuples are stored positionally) but membership
    checks and lookups are O(1).
    """

    def __init__(self, name: str, attributes: Sequence[str]):
        if not name:
            raise SchemaError("relation name must be non-empty")
        if not attributes:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        seen: set[str] = set()
        for attr in attributes:
            if attr in seen:
                raise SchemaError(f"duplicate attribute {attr!r} in relation {name!r}")
            seen.add(attr)
        self.name = name
        self.attributes: tuple[str, ...] = tuple(attributes)
        self._positions: dict[str, int] = {a: i for i, a in enumerate(self.attributes)}

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._positions

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RelationSchema({self.name!r}, {list(self.attributes)!r})"

    # -- lookups ------------------------------------------------------------
    def position(self, attribute: str) -> int:
        """Return the index of ``attribute`` within the schema."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"available: {', '.join(self.attributes)}"
            ) from None

    def positions(self, attributes: Iterable[str]) -> tuple[int, ...]:
        """Return the indexes of several attributes, in the given order."""
        return tuple(self.position(a) for a in attributes)

    def qualified(self) -> tuple[Attribute, ...]:
        """All attributes of this relation as :class:`Attribute` values."""
        return tuple(Attribute(self.name, a) for a in self.attributes)

    def rename(self, new_name: str) -> "RelationSchema":
        """A copy of this schema under a new relation name (ρ of RA)."""
        return RelationSchema(new_name, self.attributes)


class DatabaseSchema:
    """A collection of relation schemas — the ``R`` over which queries are posed."""

    def __init__(self, relations: Iterable[RelationSchema] = ()):
        self._relations: dict[str, RelationSchema] = {}
        for relation in relations:
            self.add(relation)

    @classmethod
    def from_dict(cls, spec: Mapping[str, Sequence[str]]) -> "DatabaseSchema":
        """Build a schema from ``{"relation": ["attr1", ...], ...}``."""
        return cls(RelationSchema(name, attrs) for name, attrs in spec.items())

    def add(self, relation: RelationSchema) -> None:
        """Declare a relation; duplicate names raise :class:`SchemaError`."""
        if relation.name in self._relations:
            raise SchemaError(f"relation {relation.name!r} already declared")
        self._relations[relation.name] = relation

    # -- basic protocol ----------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __getitem__(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"unknown relation {name!r}; known relations: {', '.join(self._relations) or '(none)'}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DatabaseSchema({list(self._relations)})"

    # -- helpers -------------------------------------------------------------
    def relation_names(self) -> tuple[str, ...]:
        """All declared relation names, in declaration order."""
        return tuple(self._relations)

    def get(self, name: str) -> RelationSchema | None:
        """The relation schema for ``name``, or ``None`` when undeclared."""
        return self._relations.get(name)
