"""Access minimization — the AMP problem (Section 6).

Given a query ``Q`` covered by an access schema ``A``, find a subset
``A_m ⊆ A`` that still covers ``Q`` and minimizes ``Σ_{R(X→Y,N) ∈ A_m} N``
(the estimated amount of data accessed through the chosen indexes).  The
problem is NP-complete and not in APX (Theorem 9), so the paper gives
heuristics with guarantees:

* :func:`minimize_access` — ``minA``: greedy removal of redundant constraints
  weighted by ``w(φ) = c1·N / (c2·(|cov(Q,A) \\ cov(Q,A∖{φ})| + 1))``; always
  returns a *minimal* covering subset (Theorem 10(1)).
* :func:`minimize_access_acyclic` — ``minADAG``: shortest hyperpaths in the
  weighted ⟨Q,A⟩-hypergraph for the acyclic case (Theorem 10(2)).
* :func:`minimize_access_elementary` — ``minAE``: reduction to a directed
  Steiner-arborescence-style shortest-path union for the elementary case
  (Theorem 10(3)).
* :func:`minimize_access_exact` — exhaustive search, usable only for small
  ``‖A‖``; provided to measure the quality of the heuristics in tests and
  ablation benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .access import AccessConstraint, AccessSchema
from .coverage import CoverageChecker, SubqueryCoverage
from .errors import NotCoveredError
from .hypergraph import ROOT, QAHypergraph, build_qa_hypergraph
from .query import Query


@dataclass
class MinimizationResult:
    """The outcome of an AMP heuristic."""

    selected: AccessSchema
    cost: int
    method: str
    iterations: int = 0
    details: Mapping[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.selected)


def schema_cost(access_schema: AccessSchema | Iterable[AccessConstraint]) -> int:
    """``Σ N`` over the constraints — the objective of AMP."""
    return sum(constraint.bound for constraint in access_schema)


# ---------------------------------------------------------------------------
# Case classification (Section 6.1)
# ---------------------------------------------------------------------------

def is_elementary_case(access_schema: AccessSchema) -> bool:
    """Whether every constraint is an indexing constraint or a unit constraint."""
    return all(c.is_indexing or c.is_unit for c in access_schema)


def is_acyclic_case(
    query: Query, access_schema: AccessSchema, *, checker: CoverageChecker | None = None
) -> bool:
    """Whether the ⟨Q,A⟩-hypergraph of the (normalized) query is acyclic."""
    checker = checker or CoverageChecker(query)
    hypergraph = build_qa_hypergraph(
        checker.normalized.query,
        checker.actualize(access_schema),
        analyses=checker.analyses,
    )
    return hypergraph.is_acyclic()


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _coverage_tokens(verdict: Iterable[SubqueryCoverage]) -> frozenset[str]:
    """All covered attribute tokens across the max SPC sub-queries."""
    tokens: set[str] = set()
    for sub in verdict:
        tokens |= sub.covered_tokens
    return frozenset(tokens)


def _covers(verdict: Iterable[SubqueryCoverage]) -> bool:
    return all(sub.covered for sub in verdict)


def _require_covered(
    query: Query, access_schema: AccessSchema, checker: CoverageChecker | None
) -> tuple[CoverageChecker, list[AccessConstraint], list[SubqueryCoverage], int]:
    """The checker, the constraints that can matter to ``query``, and ``CovChk`` under them.

    A constraint on a relation that does not occur in the query is never
    actualized, so it changes neither ``cov(Q, ·)`` nor indexedness: every
    heuristic searches only the rest, in the schema's order.  The last item
    is the checker's evaluation count on entry, for ``coverage_checks``.
    """
    checker = checker or CoverageChecker(query)
    checks_before = checker.evaluations
    relevant = checker.relevant(access_schema)
    verdict = checker.evaluate(relevant)
    if not (checker.normal_form and _covers(verdict)):
        raise NotCoveredError(
            "access minimization is only defined for covered queries:\n"
            + checker.check(access_schema).explain()
        )
    return checker, relevant, verdict, checks_before


def _result(
    access_schema: AccessSchema,
    selected: Iterable[AccessConstraint],
    method: str,
    checker: CoverageChecker,
    checks_before: int,
    iterations: int = 0,
    **details: object,
) -> MinimizationResult:
    result_schema = access_schema.restrict(selected)
    details["coverage_checks"] = checker.evaluations - checks_before
    return MinimizationResult(
        selected=result_schema,
        cost=schema_cost(result_schema),
        method=method,
        iterations=iterations,
        details=details,
    )


def _hyperpath_constraints(
    hypergraph: QAHypergraph,
    checker: CoverageChecker,
    *,
    required: bool,
) -> tuple[list[AccessConstraint], int]:
    """Base constraints on the shortest hyperpaths from ``r`` to ``X̂_Q ∖ X̂_Q^C``, and their weight."""
    selected: list[AccessConstraint] = []
    total_weight = 0
    for analysis in checker.analyses:
        for token in sorted(analysis.unified_needed - analysis.unified_constant):
            path = hypergraph.graph.shortest_hyperpath({ROOT}, token)
            if path is None:
                if required:  # pragma: no cover - guarded by coverage
                    raise NotCoveredError(f"attribute token {token!r} unreachable from r")
                continue
            total_weight += path.weight
            for constraint in path.constraints():
                base = checker.base_of(constraint)
                if base is not None and base not in selected:
                    selected.append(base)
    return selected, total_weight


def _ensure_indexing(
    checker: CoverageChecker,
    relevant: list[AccessConstraint],
    full: list[SubqueryCoverage],
    selected: list[AccessConstraint],
) -> list[AccessConstraint]:
    """Add cheapest constraints until every relation of the query is indexed.

    Used by ``minADAG`` / ``minAE`` after the hyperpath phase: the shortest
    hyperpaths guarantee fetchability, and this pass restores the indexing
    condition at minimal extra cost, preferring constraints already selected.
    ``full`` is ``CovChk`` under all of ``relevant``.
    """
    candidates = sorted(relevant, key=lambda c: c.bound)
    for _ in range(len(candidates) + 1):
        now = checker.evaluate([c for c in relevant if c in selected])
        if _covers(now):
            return selected
        # Find which relations are not indexed and add the cheapest applicable
        # constraint (as judged against the full schema's coverage).
        added = False
        for sub_full, sub_now in zip(full, now):
            for relation in sub_now.unindexed_relations:
                choice = sub_full.index_choices.get(relation)
                if choice is None:
                    continue
                base = checker.base_of(choice)
                if base is not None and base not in selected:
                    selected.append(base)
                    added = True
            if not sub_now.fetchable:
                # Fall back: add cheapest constraints contributing to coverage.
                for constraint in candidates:
                    if constraint not in selected:
                        selected.append(constraint)
                        added = True
                        break
        if not added:
            for constraint in candidates:
                if constraint not in selected:
                    selected.append(constraint)
                    added = True
                    break
        if not added:  # pragma: no cover - exhausted all constraints
            break
    return selected


# ---------------------------------------------------------------------------
# minA — the general greedy heuristic (Theorem 10(1))
# ---------------------------------------------------------------------------

def minimize_access(
    query: Query,
    access_schema: AccessSchema,
    *,
    c1: float = 1.0,
    c2: float = 1.0,
    checker: CoverageChecker | None = None,
) -> MinimizationResult:
    """``minA``: greedily drop redundant constraints, largest ``w(φ)`` first.

    The returned subset is *minimal*: removing any further constraint would
    leave the query uncovered.  ``c1`` and ``c2`` are the user-tunable
    normalization coefficients of the paper's weight function.  ``iterations``
    counts one round per dropped constraint plus the round that finds nothing
    left to drop; constraints on relations outside the query are each dropped
    in a round of their own without a coverage check, since nothing depends
    on them.
    """
    checker, selected, verdict, checks_before = _require_covered(query, access_schema, checker)
    iterations = len(access_schema) - len(selected)
    current_tokens = _coverage_tokens(verdict)

    while True:
        iterations += 1
        best: int | None = None
        best_weight = float("-inf")
        best_tokens = current_tokens
        for position, constraint in enumerate(selected):
            reduced = checker.evaluate(selected[:position] + selected[position + 1 :])
            if not _covers(reduced):
                continue
            reduced_tokens = _coverage_tokens(reduced)
            lost = len(current_tokens - reduced_tokens)
            weight = (c1 * constraint.bound) / (c2 * (lost + 1))
            if weight > best_weight:
                best_weight = weight
                best = position
                best_tokens = reduced_tokens
        if best is None:
            break
        del selected[best]
        current_tokens = best_tokens

    return _result(access_schema, selected, "minA", checker, checks_before, iterations)


# ---------------------------------------------------------------------------
# minADAG — acyclic case (Theorem 10(2))
# ---------------------------------------------------------------------------

def minimize_access_acyclic(
    query: Query, access_schema: AccessSchema, *, checker: CoverageChecker | None = None
) -> MinimizationResult:
    """``minADAG``: shortest weighted hyperpaths from ``r`` to every needed attribute.

    Selects the constraints appearing on the shortest hyperpaths to the nodes
    of ``X̂_Q ∖ X̂_Q^C``, then adds indexing constraints for the relations of
    the query.  Intended for the acyclic case but safe (still correct, just
    without the approximation bound) on cyclic instances.
    """
    checker, relevant, full, checks_before = _require_covered(query, access_schema, checker)
    hypergraph = build_qa_hypergraph(
        checker.normalized.query,
        checker.actualize(access_schema),
        weighted=True,
        analyses=checker.analyses,
    )
    selected, total_path_weight = _hyperpath_constraints(hypergraph, checker, required=True)
    selected = _ensure_indexing(checker, relevant, full, selected)
    return _result(
        access_schema,
        selected,
        "minADAG",
        checker,
        checks_before,
        total_path_weight=total_path_weight,
        acyclic=hypergraph.is_acyclic(),
    )


# ---------------------------------------------------------------------------
# minAE — elementary case (Theorem 10(3))
# ---------------------------------------------------------------------------

def minimize_access_elementary(
    query: Query, access_schema: AccessSchema, *, checker: CoverageChecker | None = None
) -> MinimizationResult:
    """``minAE``: Steiner-style selection for indexing + unit constraints.

    The unit constraints form an ordinary weighted digraph over attribute
    tokens; the heuristic takes the union of cheapest paths from ``r`` to the
    terminals ``X̂_Q ∖ X̂_Q^C`` (a classical ``O(|V_T|)``-approximation of the
    directed Steiner arborescence), then adds indexing constraints.
    """
    checker, relevant, full, checks_before = _require_covered(query, access_schema, checker)
    # Build the weighted hypergraph restricted to A_ni (unit constraints);
    # since |X| = |Y| = 1 it degenerates to a weighted digraph rooted at r.
    unit_constraints = AccessSchema.trusted(
        c for c in relevant if c.is_unit and not c.is_indexing
    )
    hypergraph = build_qa_hypergraph(
        checker.normalized.query,
        checker.actualize(unit_constraints),
        weighted=True,
        analyses=checker.analyses,
    )
    # A token not reachable via unit constraints alone is left to the indexing
    # pass below, which may use non-unit constraints.
    selected, arborescence_weight = _hyperpath_constraints(hypergraph, checker, required=False)
    selected = _ensure_indexing(checker, relevant, full, selected)
    return _result(
        access_schema,
        selected,
        "minAE",
        checker,
        checks_before,
        arborescence_weight=arborescence_weight,
        elementary=is_elementary_case(access_schema),
    )


# ---------------------------------------------------------------------------
# Exact search (for evaluation of the heuristics) and auto dispatch
# ---------------------------------------------------------------------------

def minimize_access_exact(
    query: Query,
    access_schema: AccessSchema,
    *,
    max_constraints: int = 16,
    checker: CoverageChecker | None = None,
) -> MinimizationResult:
    """Exhaustive AMP solver for small instances.

    Exponential in the number of constraints on the query's relations, so
    only usable when there are at most ``max_constraints`` of them; used by
    tests and ablation benchmarks to measure how far the heuristics are from
    the optimum.
    """
    checker, constraints, _, checks_before = _require_covered(query, access_schema, checker)
    if len(constraints) > max_constraints:
        raise ValueError(
            f"exact search limited to {max_constraints} constraints, got {len(constraints)}"
        )
    best_subset: tuple[AccessConstraint, ...] | None = None
    best_cost = schema_cost(constraints) + 1
    for size in range(len(constraints) + 1):
        for subset in itertools.combinations(constraints, size):
            cost = schema_cost(subset)
            if cost >= best_cost:
                continue
            if checker.is_covered(subset):
                best_subset = subset
                best_cost = cost
    assert best_subset is not None  # the full schema always covers
    return _result(access_schema, best_subset, "exact", checker, checks_before)


def minimize_auto(
    query: Query, access_schema: AccessSchema, *, checker: CoverageChecker | None = None
) -> MinimizationResult:
    """Dispatch to the specialised heuristic when its case applies, else ``minA``.

    Pass the ``checker`` of an earlier ``CovChk`` of the same query to reuse
    its normalization, analysis and constraint tables.
    """
    checker = checker or CoverageChecker(query)
    if is_elementary_case(access_schema):
        return minimize_access_elementary(query, access_schema, checker=checker)
    if is_acyclic_case(query, access_schema, checker=checker):
        return minimize_access_acyclic(query, access_schema, checker=checker)
    return minimize_access(query, access_schema, checker=checker)
