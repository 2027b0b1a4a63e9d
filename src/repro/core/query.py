"""Relational-algebra queries as syntax trees.

This module defines the RA query AST used throughout the library: relation
atoms, selection (σ), projection (π), Cartesian product (×), equi-join (⋈,
sugar for × followed by σ), union (∪), set difference (−) and renaming (ρ).

Attributes are always *qualified* with the relation occurrence they come from
(:class:`~repro.core.schema.Attribute`), which makes attribute provenance
explicit once a query has been normalized so that every relation occurrence
has a distinct name (Section 2 of the paper, Lemma 1).

The query size ``|Q|`` used in the paper's complexity statements is the number
of AST nodes plus the number of condition atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union as TypingUnion

from .errors import QueryError
from .schema import Attribute, DatabaseSchema


# ---------------------------------------------------------------------------
# Terms and predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """A literal constant appearing in a selection condition."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


Term = TypingUnion[Attribute, Constant]


def _as_term(value: object) -> Term:
    """Coerce a raw value into a :class:`Term` (attributes pass through)."""
    if isinstance(value, (Attribute, Constant)):
        return value
    return Constant(value)


class Predicate:
    """Base class of selection conditions."""

    def atoms(self) -> Iterator["Comparison"]:
        """All comparison atoms in this predicate (conjunctive or not)."""
        raise NotImplementedError

    def conjuncts(self) -> Iterator["Predicate"]:
        """Top-level conjuncts (a single predicate yields itself)."""
        yield self

    def attributes(self) -> set[Attribute]:
        """Every attribute referenced by any atom of this predicate."""
        return {
            term
            for atom in self.atoms()
            for term in (atom.left, atom.right)
            if isinstance(term, Attribute)
        }

    @property
    def atom_count(self) -> int:
        return sum(1 for _ in self.atoms())


@dataclass(frozen=True)
class Comparison(Predicate):
    """An atomic comparison ``left op right`` with ``op`` in ``= != < <= > >=``."""

    left: Term
    op: str
    right: Term

    _OPS: tuple[str, ...] = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise QueryError(f"unsupported comparison operator {self.op!r}")

    def atoms(self) -> Iterator["Comparison"]:
        """A comparison is its own single atom."""
        yield self

    @property
    def is_equality(self) -> bool:
        return self.op == "="

    def evaluate(self, left_value: object, right_value: object) -> bool:
        """Apply the comparison to two concrete values."""
        if self.op == "=":
            return left_value == right_value
        if self.op == "!=":
            return left_value != right_value
        if self.op == "<":
            return left_value < right_value  # type: ignore[operator]
        if self.op == "<=":
            return left_value <= right_value  # type: ignore[operator]
        if self.op == ">":
            return left_value > right_value  # type: ignore[operator]
        return left_value >= right_value  # type: ignore[operator]

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    """A conjunction of predicates."""

    parts: tuple[Predicate, ...]

    def __init__(self, parts: Iterable[Predicate]):
        object.__setattr__(self, "parts", tuple(parts))
        if not self.parts:
            raise QueryError("And() requires at least one conjunct")

    def atoms(self) -> Iterator[Comparison]:
        """Atoms of every conjunct, in order."""
        for part in self.parts:
            yield from part.atoms()

    def conjuncts(self) -> Iterator[Predicate]:
        """Flattened top-level conjuncts (nested ``And`` nodes unrolled)."""
        for part in self.parts:
            yield from part.conjuncts()

    def __str__(self) -> str:
        return " AND ".join(str(p) for p in self.parts)


def eq(left: object, right: object) -> Comparison:
    """Shorthand for an equality atom; coerces non-terms to constants."""
    return Comparison(_as_term(left), "=", _as_term(right))


def conjunction(predicates: Sequence[Predicate]) -> Predicate | None:
    """Combine predicates with AND; ``None`` when the sequence is empty."""
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(predicates)


# ---------------------------------------------------------------------------
# Query nodes
# ---------------------------------------------------------------------------

class Query:
    """Base class of RA query-tree nodes."""

    #: child sub-queries, in order
    children: tuple["Query", ...] = ()

    # -- structure -----------------------------------------------------------
    def output_attributes(self) -> tuple[Attribute, ...]:
        """The (qualified) attributes of the query's output relation."""
        raise NotImplementedError

    def arity(self) -> int:
        """The number of output attributes."""
        return len(self.output_attributes())

    def subqueries(self) -> Iterator["Query"]:
        """All nodes of the query tree, post-order (children before parents)."""
        for child in self.children:
            yield from child.subqueries()
        yield self

    def relations(self) -> Iterator["Relation"]:
        """All relation atoms in the tree, in left-to-right order."""
        for node in self.subqueries():
            if isinstance(node, Relation):
                yield node

    def relation_names(self) -> tuple[str, ...]:
        """Occurrence names of all relation atoms, in left-to-right order."""
        return tuple(r.name for r in self.relations())

    @property
    def size(self) -> int:
        """``|Q|``: the number of AST nodes plus condition atoms."""
        total = 0
        for node in self.subqueries():
            total += 1
            condition = getattr(node, "condition", None)
            if condition is not None:
                total += condition.atom_count
        return total

    def is_spc(self) -> bool:
        """True when the subtree uses only SPC operators (σ, π, ×, ⋈, ρ, atoms)."""
        return all(
            isinstance(node, (Relation, Selection, Projection, Product, Join, Rename))
            for node in self.subqueries()
        )

    # -- combinators (fluent construction) -------------------------------------
    def select(self, condition: Predicate) -> "Selection":
        """σ: filter this query's rows by ``condition``."""
        return Selection(self, condition)

    def project(self, attributes: Sequence[Attribute | str]) -> "Projection":
        """π: keep only ``attributes`` (strings resolve via :meth:`attribute`)."""
        return Projection(self, attributes)

    def product(self, other: "Query") -> "Product":
        """×: Cartesian product with ``other`` (attribute sets must not overlap)."""
        return Product(self, other)

    def join(self, other: "Query", condition: Predicate | None = None) -> "Join":
        """⋈: equi-join with ``other``; natural join when ``condition`` is None."""
        return Join(self, other, condition)

    def union(self, other: "Query") -> "Union":
        """∪: set union with a union-compatible ``other``."""
        return Union(self, other)

    def difference(self, other: "Query") -> "Difference":
        """−: set difference with a union-compatible ``other``."""
        return Difference(self, other)

    # -- misc -------------------------------------------------------------------
    def attribute(self, name: str) -> Attribute:
        """Resolve an unqualified attribute name against the output attributes.

        Raises :class:`QueryError` when the name is missing or ambiguous.
        """
        matches = [a for a in self.output_attributes() if a.name == name or str(a) == name]
        if not matches:
            raise QueryError(f"no output attribute named {name!r}")
        if len(matches) > 1:
            raise QueryError(f"attribute name {name!r} is ambiguous: {matches}")
        return matches[0]

    def __str__(self) -> str:
        return format_query(self)


class Relation(Query):
    """A relation atom.

    ``name`` is the occurrence name used in the query; ``base`` is the base
    relation in the database schema the occurrence refers to (identical to
    ``name`` unless the query has been normalized or explicitly renamed).
    """

    def __init__(self, name: str, attributes: Sequence[str], base: str | None = None):
        if not attributes:
            raise QueryError(f"relation {name!r} must have at least one attribute")
        self.name = name
        self.base = base or name
        self.attribute_names: tuple[str, ...] = tuple(attributes)
        self.children = ()

    @classmethod
    def from_schema(cls, schema: DatabaseSchema, name: str, base: str | None = None) -> "Relation":
        """A relation atom for occurrence ``name`` of base relation ``base`` in ``schema``."""
        return cls(name, schema[base or name].attributes, base=base)

    def output_attributes(self) -> tuple[Attribute, ...]:
        """Each schema attribute qualified by this occurrence's name."""
        return tuple(Attribute(self.name, a) for a in self.attribute_names)

    def __getitem__(self, attribute: str) -> Attribute:
        if attribute not in self.attribute_names:
            raise QueryError(f"relation {self.name!r} has no attribute {attribute!r}")
        return Attribute(self.name, attribute)


class Selection(Query):
    """σ_condition(child)."""

    def __init__(self, child: Query, condition: Predicate):
        if condition is None:
            raise QueryError("selection requires a condition")
        available = set(child.output_attributes())
        for attr in condition.attributes():
            if attr not in available:
                raise QueryError(f"selection condition references unknown attribute {attr}")
        self.condition = condition
        self.children = (child,)

    @property
    def child(self) -> Query:
        return self.children[0]

    def output_attributes(self) -> tuple[Attribute, ...]:
        """Selection preserves its child's output attributes."""
        return self.child.output_attributes()


class Projection(Query):
    """π_attributes(child)."""

    def __init__(self, child: Query, attributes: Sequence[Attribute | str]):
        if not attributes:
            raise QueryError("projection requires at least one attribute")
        resolved: list[Attribute] = []
        for attr in attributes:
            if isinstance(attr, Attribute):
                if attr not in child.output_attributes():
                    raise QueryError(f"projection attribute {attr} not produced by child")
                resolved.append(attr)
            else:
                resolved.append(child.attribute(attr))
        self.attributes: tuple[Attribute, ...] = tuple(resolved)
        self.children = (child,)

    @property
    def child(self) -> Query:
        return self.children[0]

    def output_attributes(self) -> tuple[Attribute, ...]:
        """Exactly the projected attributes, in projection order."""
        return self.attributes


class Product(Query):
    """Cartesian product of two sub-queries."""

    def __init__(self, left: Query, right: Query):
        overlap = set(left.output_attributes()) & set(right.output_attributes())
        if overlap:
            raise QueryError(
                f"Cartesian product operands share attributes {sorted(map(str, overlap))}; "
                "rename one side first"
            )
        self.children = (left, right)

    @property
    def left(self) -> Query:
        return self.children[0]

    @property
    def right(self) -> Query:
        return self.children[1]

    def output_attributes(self) -> tuple[Attribute, ...]:
        """Left attributes followed by right attributes."""
        return self.left.output_attributes() + self.right.output_attributes()


class Join(Query):
    """An equi-join ``left ⋈_condition right``.

    A join is SPC-expressible (product followed by selection); it exists as a
    separate node purely for readability of queries and plans.  When
    ``condition`` is ``None`` the join is a *natural join* over the attribute
    names shared by the two sides.
    """

    def __init__(self, left: Query, right: Query, condition: Predicate | None = None):
        overlap = set(left.output_attributes()) & set(right.output_attributes())
        if overlap:
            raise QueryError(
                f"join operands share qualified attributes {sorted(map(str, overlap))}; "
                "rename one side first"
            )
        if condition is None:
            shared = {a.name for a in left.output_attributes()} & {
                a.name for a in right.output_attributes()
            }
            if not shared:
                raise QueryError("natural join requires at least one shared attribute name")
            atoms = [
                eq(_find(left, name), _find(right, name)) for name in sorted(shared)
            ]
            condition = conjunction(atoms)
        assert condition is not None
        available = set(left.output_attributes()) | set(right.output_attributes())
        for attr in condition.attributes():
            if attr not in available:
                raise QueryError(f"join condition references unknown attribute {attr}")
        self.condition = condition
        self.children = (left, right)

    @property
    def left(self) -> Query:
        return self.children[0]

    @property
    def right(self) -> Query:
        return self.children[1]

    def output_attributes(self) -> tuple[Attribute, ...]:
        """Left attributes followed by right attributes (no fusion)."""
        return self.left.output_attributes() + self.right.output_attributes()


class Union(Query):
    """Set union of two union-compatible sub-queries (positional)."""

    def __init__(self, left: Query, right: Query):
        if left.arity() != right.arity():
            raise QueryError(
                f"union operands have different arities: {left.arity()} vs {right.arity()}"
            )
        self.children = (left, right)

    @property
    def left(self) -> Query:
        return self.children[0]

    @property
    def right(self) -> Query:
        return self.children[1]

    def output_attributes(self) -> tuple[Attribute, ...]:
        """The left side's attributes (union is positional)."""
        return self.left.output_attributes()


class Difference(Query):
    """Set difference ``left − right`` of two union-compatible sub-queries."""

    def __init__(self, left: Query, right: Query):
        if left.arity() != right.arity():
            raise QueryError(
                f"difference operands have different arities: {left.arity()} vs {right.arity()}"
            )
        self.children = (left, right)

    @property
    def left(self) -> Query:
        return self.children[0]

    @property
    def right(self) -> Query:
        return self.children[1]

    def output_attributes(self) -> tuple[Attribute, ...]:
        """The left side's attributes (difference is positional)."""
        return self.left.output_attributes()


class Rename(Query):
    """ρ: rename the output attributes of a sub-query to a fresh occurrence name."""

    def __init__(self, child: Query, name: str):
        if not name:
            raise QueryError("rename requires a non-empty name")
        self.name = name
        self.children = (child,)

    @property
    def child(self) -> Query:
        return self.children[0]

    def output_attributes(self) -> tuple[Attribute, ...]:
        """The child's attributes re-qualified under the new occurrence name."""
        return tuple(Attribute(self.name, a.name) for a in self.child.output_attributes())


def _find(query: Query, attribute_name: str) -> Attribute:
    for attr in query.output_attributes():
        if attr.name == attribute_name:
            return attr
    raise QueryError(f"attribute {attribute_name!r} not found")  # pragma: no cover


# ---------------------------------------------------------------------------
# Pretty printing and structural equality
# ---------------------------------------------------------------------------

def format_query(query: Query, indent: int = 0) -> str:
    """A readable multi-line rendering of the query tree."""
    pad = "  " * indent
    if isinstance(query, Relation):
        if query.base != query.name:
            return f"{pad}{query.name} (renaming of {query.base})"
        return f"{pad}{query.name}"
    if isinstance(query, Selection):
        return f"{pad}σ[{query.condition}]\n" + format_query(query.child, indent + 1)
    if isinstance(query, Projection):
        attrs = ", ".join(str(a) for a in query.attributes)
        return f"{pad}π[{attrs}]\n" + format_query(query.child, indent + 1)
    if isinstance(query, Product):
        return (
            f"{pad}×\n"
            + format_query(query.left, indent + 1)
            + "\n"
            + format_query(query.right, indent + 1)
        )
    if isinstance(query, Join):
        return (
            f"{pad}⋈[{query.condition}]\n"
            + format_query(query.left, indent + 1)
            + "\n"
            + format_query(query.right, indent + 1)
        )
    if isinstance(query, Union):
        return (
            f"{pad}∪\n"
            + format_query(query.left, indent + 1)
            + "\n"
            + format_query(query.right, indent + 1)
        )
    if isinstance(query, Difference):
        return (
            f"{pad}−\n"
            + format_query(query.left, indent + 1)
            + "\n"
            + format_query(query.right, indent + 1)
        )
    if isinstance(query, Rename):
        return f"{pad}ρ[{query.name}]\n" + format_query(query.child, indent + 1)
    raise QueryError(f"unknown query node {type(query).__name__}")  # pragma: no cover


def queries_equal(left: Query, right: Query) -> bool:
    """Structural (syntactic) equality of two query trees."""
    if type(left) is not type(right):
        return False
    if isinstance(left, Relation) and isinstance(right, Relation):
        return (
            left.name == right.name
            and left.base == right.base
            and left.attribute_names == right.attribute_names
        )
    left_condition = getattr(left, "condition", None)
    right_condition = getattr(right, "condition", None)
    if left_condition != right_condition:
        return False
    if isinstance(left, Projection) and isinstance(right, Projection):
        if left.attributes != right.attributes:
            return False
    if isinstance(left, Rename) and isinstance(right, Rename):
        if left.name != right.name:
            return False
    if len(left.children) != len(right.children):
        return False
    return all(
        queries_equal(lc, rc) for lc, rc in zip(left.children, right.children)
    )


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def relation(schema: DatabaseSchema, name: str) -> Relation:
    """Shorthand for :meth:`Relation.from_schema`."""
    return Relation.from_schema(schema, name)
