"""SPC analysis: max SPC sub-queries, equality atoms, and unification.

Covered queries (Section 3) are defined per *max SPC sub-query*: a maximal
subtree of the query tree that uses only selection, projection, product,
join and renaming.  For each such sub-query ``Qs`` the analysis needs

* ``Σ_Qs`` — the equality atoms derivable from its selection conditions by
  transitivity of equality (implemented with a union-find over terms),
* ``X_Qs`` — the attributes occurring in selection conditions or in the
  output of ``Qs`` (the attributes whose values are needed to answer it),
* ``X_Qs^C`` — the attributes made equal to a constant by ``Σ_Qs``,
* the unification function ``ρ_U`` renaming equal attributes identically, and
* the induced FDs ``Σ_{Qs,A}`` obtained from the access constraints.

These are exactly the ingredients of Lemma 4 and algorithm ``CovChk``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .access import AccessConstraint, AccessSchema
from .errors import QueryError
from .fd import FDSet, FunctionalDependency
from .query import (
    Constant,
    Difference,
    Join,
    Product,
    Projection,
    Query,
    Relation,
    Rename,
    Selection,
    Union,
)
from .schema import Attribute


# ---------------------------------------------------------------------------
# Max SPC sub-queries
# ---------------------------------------------------------------------------

_SPC_NODES = (Relation, Selection, Projection, Product, Join, Rename)


def is_spc_node(node: Query) -> bool:
    """Whether the node's operator itself is an SPC operator."""
    return isinstance(node, _SPC_NODES)


def max_spc_subqueries(query: Query) -> list[Query]:
    """All max SPC sub-queries of ``query``, in pre-order.

    A sub-query ``Qs`` is a max SPC sub-query when its whole subtree is SPC
    and it is not properly contained in another SPC sub-query — i.e. either
    it is the root, or the subtree of its parent is not entirely SPC.  The
    computation is two linear passes over the query tree.
    """
    spc_subtree: dict[int, bool] = {}

    def mark(node: Query) -> bool:
        child_results = [mark(child) for child in node.children]
        result = is_spc_node(node) and all(child_results)
        spc_subtree[id(node)] = result
        return result

    mark(query)

    result: list[Query] = []

    def collect(node: Query, parent_subtree_spc: bool) -> None:
        if spc_subtree[id(node)]:
            if not parent_subtree_spc:
                result.append(node)
            # Everything below an SPC subtree belongs to this max sub-query.
            return
        for child in node.children:
            collect(child, False)

    collect(query, False)
    return result


def is_normal_form(query: Query) -> bool:
    """Whether union/difference only appear *above* SPC operators.

    The paper's normal form pushes set difference (and union) to the top
    level over max SPC sub-queries.  Queries violating this (e.g. a join over
    a union) are treated conservatively as not covered, which preserves the
    soundness direction of Theorem 2(2).
    """
    for node in query.subqueries():
        if is_spc_node(node):
            if not all(is_spc_node(descendant) for descendant in node.subqueries()):
                return False
    return True


# ---------------------------------------------------------------------------
# Union-find over terms
# ---------------------------------------------------------------------------

class _UnionFind:
    """Union-find over hashable items with path compression."""

    def __init__(self) -> None:
        self._parent: dict[object, object] = {}

    def add(self, item: object) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: object) -> object:
        self.add(item)
        root = item
        while self._parent[root] is not root:
            root = self._parent[root]
        while self._parent[item] is not root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left: object, right: object) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root is not right_root:
            self._parent[left_root] = right_root

    def items(self) -> Iterator[object]:
        return iter(self._parent)

    def groups(self) -> dict[object, set[object]]:
        result: dict[object, set[object]] = {}
        for item in self._parent:
            result.setdefault(self.find(item), set()).add(item)
        return result


# ---------------------------------------------------------------------------
# SPC analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnsatisfiableInfo:
    """Evidence that an SPC sub-query is unsatisfiable (two distinct constants equated)."""

    attribute: Attribute | None
    constants: tuple[object, object]


class SPCAnalysis:
    """Equality and attribute analysis of a single (max) SPC sub-query.

    The analysis is purely syntactic: it never touches data, matching the
    paper's requirement that coverage checking be independent of ``|D|``.
    """

    def __init__(self, subquery: Query):
        if not subquery.is_spc():
            raise QueryError("SPCAnalysis requires an SPC query (no union / difference)")
        self.query = subquery
        self._uf = _UnionFind()
        self._condition_attributes: set[Attribute] = set()
        self._projection_attributes: set[Attribute] = set()
        self._collect()
        self._canonical: dict[Attribute, str] = {}
        self._constants: dict[object, object] = {}
        self.unsatisfiable: UnsatisfiableInfo | None = None
        self._build_unification()

    # -- construction ---------------------------------------------------------
    def _collect(self) -> None:
        for node in self.query.subqueries():
            if isinstance(node, Projection):
                # Intermediate projections are part of the attributes the
                # evaluation plan needs, so they are treated as needed too
                # (a conservative superset of the paper's X_Q, which assumes a
                # single top-level projection).
                self._projection_attributes.update(node.attributes)
                for attribute in node.attributes:
                    self._uf.add(attribute)
            condition = getattr(node, "condition", None)
            if condition is None:
                continue
            for atom in condition.atoms():
                for term in (atom.left, atom.right):
                    if isinstance(term, Attribute):
                        self._condition_attributes.add(term)
                        self._uf.add(term)
                if atom.is_equality:
                    self._uf.union(atom.left, atom.right)
        for attribute in self.query.output_attributes():
            self._uf.add(attribute)

    def _build_unification(self) -> None:
        groups = self._uf.groups()
        for root, members in groups.items():
            attributes = sorted(
                (m for m in members if isinstance(m, Attribute)),
                key=lambda a: (a.relation, a.name),
            )
            # Sorted: which of two conflicting constants an unsatisfiable class
            # keeps must not depend on the set order of ``members`` (hash seed).
            constants = sorted(
                (m.value for m in members if isinstance(m, Constant)), key=repr
            )
            if len(set(map(repr, constants))) > 1:
                first, second = sorted(set(map(repr, constants)))[:2]
                self.unsatisfiable = UnsatisfiableInfo(
                    attributes[0] if attributes else None, (first, second)
                )
            canonical = (
                f"{attributes[0].relation}.{attributes[0].name}"
                if attributes
                else f"const:{constants[0]!r}"
            )
            for member in members:
                if isinstance(member, Attribute):
                    self._canonical[member] = canonical
            if constants:
                self._constants[canonical] = constants[0]

    # -- Σ_Q --------------------------------------------------------------------
    def constant_for(self, attribute: Attribute) -> object | None:
        """The constant ``c`` with ``Σ_Q ⊢ attribute = c``, or ``None``."""
        token = self.unify(attribute)
        if token in self._constants:
            return self._constants[token]
        return None

    # -- ρ_U ---------------------------------------------------------------------
    def unify(self, attribute: Attribute) -> str:
        """``ρ_U(attribute)`` — the canonical name of the attribute's equality class."""
        if attribute in self._canonical:
            return self._canonical[attribute]
        # Attributes never mentioned in a condition are their own class.
        return f"{attribute.relation}.{attribute.name}"

    def unify_all(self, attributes: Iterable[Attribute]) -> frozenset[str]:
        """``ρ_U(X)`` for a set of attributes ``X``."""
        return frozenset(self.unify(a) for a in attributes)

    # -- attribute sets -----------------------------------------------------------
    # The analysis never changes after construction and CovChk, the
    # hypergraph and QPlan each ask for these sets repeatedly: compute once.
    @cached_property
    def relations(self) -> tuple[Relation, ...]:
        return tuple(self.query.relations())

    @property
    def output_attributes(self) -> tuple[Attribute, ...]:
        return self.query.output_attributes()

    @cached_property
    def needed_attributes(self) -> frozenset[Attribute]:
        """``X_Q``: attributes in the selection conditions or the output of ``Qs``.

        Attributes of intermediate projections are included as well so that a
        canonical plan can replay the original query tree over the fetched
        partial relations.
        """
        return (
            frozenset(self._condition_attributes)
            | frozenset(self._projection_attributes)
            | frozenset(self.query.output_attributes())
        )

    @cached_property
    def constant_attributes(self) -> frozenset[Attribute]:
        """``X_Q^C``: needed attributes whose value is fixed by a constant."""
        return frozenset(
            a for a in self.needed_attributes if self.constant_for(a) is not None
        )

    @cached_property
    def unified_needed(self) -> frozenset[str]:
        """``X̂_Q = ρ_U(X_Q)``."""
        return self.unify_all(self.needed_attributes)

    @cached_property
    def unified_constant(self) -> frozenset[str]:
        """``X̂_Q^C = ρ_U(X_Q^C)``."""
        return self.unify_all(self.constant_attributes)

    def relation_needed_attributes(self, relation: Relation | str) -> frozenset[Attribute]:
        """``X^S_Q``: attributes of relation occurrence ``S`` that are in ``X_Q``."""
        name = relation.name if isinstance(relation, Relation) else relation
        return frozenset(a for a in self.needed_attributes if a.relation == name)

    # -- induced FDs (Σ_{Q,A}) ------------------------------------------------------
    def relevant_constraints(self, access_schema: AccessSchema) -> tuple[AccessConstraint, ...]:
        """Actualized constraints whose relation occurs in this sub-query (``A_Qs``)."""
        names = {r.name for r in self.relations}
        return tuple(c for c in access_schema if c.relation in names)

    def induced_fds(self, access_schema: AccessSchema) -> FDSet:
        """``Σ_{Qs,A}``: the induced FDs of this sub-query and the access schema.

        For each actualized constraint ``S(X -> Y, N)`` on a relation ``S``
        occurring in the sub-query, the induced FD is
        ``ρ_U(S[X]) -> ρ_U(S[Y])`` over unified attribute names.
        """
        fds = FDSet()
        for constraint in self.relevant_constraints(access_schema):
            lhs = self.unify_all(Attribute(constraint.relation, a) for a in constraint.lhs)
            rhs = self.unify_all(Attribute(constraint.relation, a) for a in constraint.rhs)
            fds.add(FunctionalDependency(frozenset(lhs), frozenset(rhs)))
        return fds

    def induced_fd_for(self, constraint: AccessConstraint) -> FunctionalDependency:
        """The single induced FD of one actualized constraint."""
        lhs = self.unify_all(Attribute(constraint.relation, a) for a in constraint.lhs)
        rhs = self.unify_all(Attribute(constraint.relation, a) for a in constraint.rhs)
        return FunctionalDependency(frozenset(lhs), frozenset(rhs))
