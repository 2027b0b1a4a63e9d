"""Covered queries and algorithm ``CovChk`` (Sections 3 and 4).

An RA query ``Q`` is *covered* by an access schema ``A`` when every max SPC
sub-query ``Qs`` of ``Q`` is

* **fetchable** via ``A`` — every attribute in ``X_Qs`` can be deduced from
  the constant attributes ``X_Qs^C`` by chasing with the constraints of
  ``A``; by Lemma 4 this is equivalent to the FD implication
  ``Σ_{Qs,A} |= X̂_Qs^C → X̂_Qs`` over induced FDs; and
* **indexed** by ``A`` — every relation occurrence ``S`` in ``Qs`` has an
  actualized constraint ``S(X → Y, N)`` with ``S[X] ⊆ cov(Qs, A)`` and
  ``X^S_Qs ⊆ S[X ∪ Y]`` (so the needed attributes of ``S`` come from the
  same tuples, validated via the index).

The check is purely syntactic (``O(|Q|² + |A|)``), independent of any data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .access import AccessConstraint, AccessSchema
from .fd import FunctionalDependency, closure
from .normalize import NormalizedQuery, normalize
from .query import Query
from .schema import Attribute
from .spc import SPCAnalysis, is_normal_form, max_spc_subqueries


# ---------------------------------------------------------------------------
# cov(Q, A)
# ---------------------------------------------------------------------------

def covered_attribute_tokens(
    analysis: SPCAnalysis, access_schema: AccessSchema
) -> frozenset[str]:
    """``ρ_U(cov(Qs, A))`` — the covered attributes of an SPC sub-query.

    Computed as the FD closure of the unified constant attributes under the
    induced FDs (the chase of Section 3 coincides with this closure; see the
    proof of Lemma 4 in the paper).
    """
    fds = analysis.induced_fds(access_schema)
    return frozenset(fds.closure(analysis.unified_constant))


def covered_attributes(
    analysis: SPCAnalysis, access_schema: AccessSchema
) -> frozenset[Attribute]:
    """``cov(Qs, A)`` restricted to the attributes actually occurring in ``Qs``."""
    tokens = covered_attribute_tokens(analysis, access_schema)
    attributes: set[Attribute] = set()
    for relation in analysis.relations:
        for attribute in relation.output_attributes():
            if analysis.unify(attribute) in tokens:
                attributes.add(attribute)
    return frozenset(attributes)


# ---------------------------------------------------------------------------
# Per-sub-query and whole-query results
# ---------------------------------------------------------------------------

@dataclass
class SubqueryCoverage:
    """Coverage diagnosis of a single max SPC sub-query."""

    subquery: Query
    analysis: SPCAnalysis
    fetchable: bool
    covered_tokens: frozenset[str]
    unindexed_relations: tuple[str, ...]
    index_choices: Mapping[str, AccessConstraint] = field(default_factory=dict)

    @property
    def indexed(self) -> bool:
        return not self.unindexed_relations

    @property
    def covered(self) -> bool:
        return self.fetchable and not self.unindexed_relations

    @property
    def missing_attributes(self) -> frozenset[Attribute]:
        """The needed attributes that the chase cannot reach."""
        analysis = self.analysis
        return frozenset(
            a for a in analysis.needed_attributes
            if analysis.unify(a) not in self.covered_tokens
        )

    def explain(self) -> str:
        """A human-readable explanation of why the sub-query is (not) covered."""
        if self.covered:
            return "covered: fetchable and indexed"
        reasons = []
        if not self.fetchable:
            missing = ", ".join(sorted(map(str, self.missing_attributes))) or "(none)"
            reasons.append(f"not fetchable: cannot cover attributes {missing}")
        if not self.indexed:
            relations = ", ".join(self.unindexed_relations)
            reasons.append(f"not indexed: no suitable constraint for relations {relations}")
        return "; ".join(reasons)


@dataclass
class CoverageResult:
    """The outcome of :func:`check_coverage` for a whole RA query.

    Carries the normalized query and the actualized access schema so that
    downstream consumers (plan generation, access minimization) can reuse
    them without repeating the normalization.
    """

    query: Query
    normalized: NormalizedQuery
    access_schema: AccessSchema
    actualized: AccessSchema
    subqueries: list[SubqueryCoverage]
    normal_form: bool

    @property
    def is_fetchable(self) -> bool:
        return self.normal_form and all(s.fetchable for s in self.subqueries)

    @property
    def is_indexed(self) -> bool:
        return self.normal_form and all(s.indexed for s in self.subqueries)

    @property
    def is_covered(self) -> bool:
        return self.normal_form and all(s.covered for s in self.subqueries)

    def explain(self) -> str:
        """A multi-line report of the coverage decision."""
        lines = [f"covered: {self.is_covered}"]
        if not self.normal_form:
            lines.append(
                "query is not in normal form (union/difference below an SPC operator); "
                "treated conservatively as not covered"
            )
        for index, sub in enumerate(self.subqueries, start=1):
            lines.append(f"  max SPC sub-query #{index}: {sub.explain()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# CovChk
# ---------------------------------------------------------------------------

class _Copy(NamedTuple):
    """One constraint actualized on one relation occurrence, unified under ``ρ_U``."""

    #: index of the max SPC sub-query that holds the occurrence ``S``
    sub: int
    #: the actualized constraint ``S(X → Y, N)``
    constraint: AccessConstraint
    #: its induced FD ``ρ_U(S[X]) → ρ_U(S[Y])``
    fd: FunctionalDependency
    #: whether ``X^S_Qs ⊆ X ∪ Y`` (the constraint's index can validate ``S``)
    spans: bool


class CoverageChecker:
    """``CovChk`` of one query against many access schemas and subsets of them.

    Everything ``CovChk`` needs from the query — normalization, the max SPC
    sub-queries with their ``Σ_Qs`` / ``ρ_U`` analyses, ``X̂_Qs^C``, ``X̂_Qs``
    and the needed-attribute span ``X^S_Qs`` of every occurrence — is computed
    once here.  Everything it needs from a constraint — its actualized copies
    and their induced FDs — is computed the first time the constraint is seen
    and kept.  A check is then a closure plus the indexedness test over those
    tables; access minimization asks for hundreds of them per query.
    """

    def __init__(self, query: Query):
        self.query = query
        self.normalized = normalize(query)
        self.normal_form = is_normal_form(self.normalized.query)
        self._subqueries = max_spc_subqueries(self.normalized.query)
        self.analyses = [SPCAnalysis(sub) for sub in self._subqueries]
        #: number of :meth:`evaluate` calls so far (the unit of ``CovChk`` work)
        self.evaluations = 0
        #: per sub-query, the names of its relation occurrences
        self._relation_names = [
            tuple(relation.name for relation in analysis.relations)
            for analysis in self.analyses
        ]
        located = {
            name: index
            for index, names in enumerate(self._relation_names)
            for name in names
        }
        #: base relation -> (occurrence, sub-query index, attribute names of X^S_Qs)
        self._occurrences: dict[str, list[tuple[str, int, frozenset[str]]]] = {}
        for occurrence, base in self.normalized.occurrences.items():
            index = located[occurrence]
            needed = self.analyses[index].relation_needed_attributes(occurrence)
            self._occurrences.setdefault(base, []).append(
                (occurrence, index, frozenset(a.name for a in needed))
            )
        #: base constraint -> its copies
        self._copies: dict[AccessConstraint, tuple[_Copy, ...]] = {}
        #: actualized constraint -> the base constraint it was copied from
        self._bases: dict[AccessConstraint, AccessConstraint] = {}

    def _copies_of(self, constraint: AccessConstraint) -> tuple[_Copy, ...]:
        copies = self._copies.get(constraint)
        if copies is None:
            copies = []
            for occurrence, index, needed in self._occurrences.get(constraint.relation, ()):
                actual = constraint.actualize(occurrence)
                self._bases[actual] = constraint
                copies.append(
                    _Copy(
                        index,
                        actual,
                        self.analyses[index].induced_fd_for(actual),
                        needed <= constraint.attributes(),
                    )
                )
            copies = self._copies[constraint] = tuple(copies)
        return copies

    def relevant(self, constraints: Iterable[AccessConstraint]) -> list[AccessConstraint]:
        """The constraints on a relation of the query; no other can change ``cov(Q, ·)``."""
        return [c for c in constraints if c.relation in self._occurrences]

    def base_of(self, actualized: AccessConstraint) -> AccessConstraint | None:
        """The base constraint an actualized constraint of this query was copied from."""
        return self._bases.get(actualized)

    def actualize(self, access_schema: AccessSchema) -> AccessSchema:
        """The actualized access schema of ``access_schema`` on the query (Lemma 1)."""
        return AccessSchema.trusted(
            copy.constraint
            for occurrence, base in self.normalized.occurrences.items()
            for constraint in access_schema.for_relation(base)
            for copy in self._copies_of(constraint)
            if copy.constraint.relation == occurrence
        )

    def evaluate(self, constraints: Iterable[AccessConstraint]) -> list[SubqueryCoverage]:
        """``CovChk`` under a set of base constraints, per max SPC sub-query.

        ``constraints`` is an access schema or any subset of one; give it in
        the schema's order, which breaks ties between equal bounds in
        ``index_choices``.
        """
        self.evaluations += 1
        copies_in: list[list[_Copy]] = [[] for _ in self.analyses]
        for constraint in constraints:
            for copy in self._copies_of(constraint):
                copies_in[copy.sub].append(copy)
        verdict = []
        for subquery, analysis, names, copies in zip(
            self._subqueries, self.analyses, self._relation_names, copies_in
        ):
            # Fetchable: Σ_{Qs,A} |= X̂_Qs^C → X̂_Qs  (Lemma 4).
            covered_tokens = closure(analysis.unified_constant, [c.fd for c in copies])
            # Indexed: each relation occurrence has a constraint whose LHS is
            # covered and whose attributes span the relation's needed attributes.
            cheapest: dict[str, AccessConstraint] = {}
            for copy in copies:
                if copy.spans and copy.fd.lhs <= covered_tokens:
                    actual = copy.constraint
                    best = cheapest.get(actual.relation)
                    if best is None or actual.bound < best.bound:
                        cheapest[actual.relation] = actual
            verdict.append(
                SubqueryCoverage(
                    subquery=subquery,
                    analysis=analysis,
                    fetchable=analysis.unified_needed <= covered_tokens,
                    covered_tokens=covered_tokens,
                    unindexed_relations=tuple(n for n in names if n not in cheapest),
                    index_choices={n: cheapest[n] for n in names if n in cheapest},
                )
            )
        return verdict

    def check(self, access_schema: AccessSchema) -> CoverageResult:
        """Coverage of the cached query under ``access_schema``, as a full result."""
        return CoverageResult(
            query=self.query,
            normalized=self.normalized,
            access_schema=access_schema,
            actualized=self.actualize(access_schema),
            subqueries=self.evaluate(access_schema),
            normal_form=self.normal_form,
        )

    def is_covered(self, constraints: Iterable[AccessConstraint]) -> bool:
        """Only the verdict, for an access schema or a subset of one."""
        return self.normal_form and all(sub.covered for sub in self.evaluate(constraints))


def check_coverage(
    query: Query,
    access_schema: AccessSchema,
    *,
    checker: CoverageChecker | None = None,
) -> CoverageResult:
    """Algorithm ``CovChk``: decide whether ``query`` is covered by ``access_schema``.

    The query is first normalized (distinct relation occurrences) and the
    access schema actualized onto the occurrences (Lemma 1).  Pass the
    ``checker`` of an earlier check of the same query to reuse its
    normalization and analysis.
    """
    return (checker or CoverageChecker(query)).check(access_schema)


def is_covered(query: Query, access_schema: AccessSchema) -> bool:
    """Convenience wrapper: ``True`` iff ``query`` is covered by ``access_schema``."""
    return check_coverage(query, access_schema).is_covered


def is_fetchable(query: Query, access_schema: AccessSchema) -> bool:
    """``True`` iff every max SPC sub-query of ``query`` is fetchable via ``access_schema``."""
    return check_coverage(query, access_schema).is_fetchable


def is_indexed(query: Query, access_schema: AccessSchema) -> bool:
    """``True`` iff every max SPC sub-query of ``query`` is indexed by ``access_schema``."""
    return check_coverage(query, access_schema).is_indexed


def uncovered_attributes(query: Query, access_schema: AccessSchema) -> frozenset[Attribute]:
    """The needed attributes that no chase with ``access_schema`` can reach."""
    result = check_coverage(query, access_schema)
    missing: set[Attribute] = set()
    for sub in result.subqueries:
        missing |= sub.missing_attributes
    return frozenset(missing)
