"""Approximate answers for queries that are not boundedly evaluable.

The paper's conclusion lists, as future work, computing *approximate* answers
with accuracy guarantees for queries that are not boundedly evaluable, while
still accessing only a small fraction of the data.  This module implements a
first version of that idea on top of covered queries:

every max SPC sub-query of ``Q`` that is covered is answered exactly by its
bounded plan; uncovered sub-queries are treated as *unknown* and the
union/difference skeleton above them is evaluated with interval semantics —
each node carries a set of **certain** answers (a lower bound of ``Q(D)``)
and, when known, a set of **possible** answers (an upper bound):

* covered SPC sub-query: ``certain = possible =`` its bounded answer;
* uncovered SPC sub-query: ``certain = ∅``, ``possible`` unknown;
* ``L ∪ R``: certain = certainL ∪ certainR; possible known iff both are;
* ``L − R``: certain = certainL − possibleR (∅ if possibleR unknown);
  possible = possibleL − certainR (unknown if possibleL is).

The result is sound: ``certain ⊆ Q(D)`` and, when the upper bound is known,
``Q(D) ⊆ possible`` — on every database satisfying the access schema.  The
engine tries exact bounded evaluation (including A-equivalent rewrites) first
and only then falls back to this approximation, so the answer degrades
gracefully instead of forcing a full scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..evaluator.algebra import ResultSet
from ..evaluator.executor import PlanExecutor
from ..storage.counters import AccessCounter
from ..storage.database import Database
from ..storage.index import IndexSet
from .access import AccessSchema
from .coverage import CoverageResult, check_coverage
from .errors import PlanError
from .normalize import normalize
from .planner import generate_plan
from .query import Difference, Query, Union
from .rewrite import find_covered_rewrite
from .spc import max_spc_subqueries


@dataclass
class ApproximateResult:
    """A two-sided approximation of ``Q(D)`` computed with bounded access.

    ``certain`` is always a subset of the true answer.  ``possible`` is a
    superset when ``upper_known`` is true, and ``None`` otherwise (some
    positive part of the query could not be bounded at all).  ``exact`` is
    true when the two coincide, i.e. the query was answered exactly.
    """

    certain: frozenset[tuple]
    possible: frozenset[tuple] | None
    exact: bool
    counter: AccessCounter
    columns: tuple[str, ...] = ()
    subquery_status: Mapping[int, bool] | None = None

    @property
    def upper_known(self) -> bool:
        return self.possible is not None

    def precision_interval(self) -> tuple[int, int | None]:
        """(|certain|, |possible| or None) — the size envelope of the true answer."""
        return len(self.certain), None if self.possible is None else len(self.possible)


@dataclass
class _Interval:
    certain: frozenset[tuple]
    possible: frozenset[tuple] | None  # None = unknown / unbounded


def _combine_union(left: _Interval, right: _Interval) -> _Interval:
    possible = (
        left.possible | right.possible
        if left.possible is not None and right.possible is not None
        else None
    )
    return _Interval(left.certain | right.certain, possible)


def _combine_difference(left: _Interval, right: _Interval) -> _Interval:
    certain = (
        left.certain - right.possible if right.possible is not None else frozenset()
    )
    possible = left.possible - right.certain if left.possible is not None else None
    return _Interval(certain, possible)


class ApproximateEvaluator:
    """Evaluates non-covered queries approximately, accessing data via indexes only."""

    def __init__(self, database: Database, access_schema: AccessSchema, indexes: IndexSet):
        self.database = database
        self.access_schema = access_schema
        self.indexes = indexes
        self._executor = PlanExecutor(indexes)

    def evaluate(self, query: Query, *, allow_rewrite: bool = True) -> ApproximateResult:
        """Approximate ``Q(D)`` with bounded data access.

        If the query (or an A-equivalent rewrite of it) is covered, the exact
        bounded answer is returned with ``exact=True``.
        """
        counter = AccessCounter()

        target = query
        coverage = check_coverage(query, self.access_schema)
        if not coverage.is_covered and allow_rewrite:
            verdict = find_covered_rewrite(query, self.access_schema)
            if verdict.bounded and verdict.witness is not None:
                target = verdict.witness
                coverage = check_coverage(target, self.access_schema)

        if coverage.is_covered:
            plan = generate_plan(coverage)
            execution = self._executor.execute(plan, counter)
            return ApproximateResult(
                certain=execution.rows,
                possible=execution.rows,
                exact=True,
                counter=counter,
                columns=execution.columns,
            )

        normalized = normalize(target)
        statuses: dict[int, bool] = {}
        interval = self._approximate(normalized.query, counter, statuses)
        exact = (
            interval.possible is not None and interval.possible == interval.certain
        )
        columns = tuple(str(a) for a in normalized.query.output_attributes())
        return ApproximateResult(
            certain=interval.certain,
            possible=interval.possible,
            exact=exact,
            counter=counter,
            columns=columns,
            subquery_status=statuses,
        )

    # ------------------------------------------------------------------
    def _approximate(
        self, node: Query, counter: AccessCounter, statuses: dict[int, bool]
    ) -> _Interval:
        if isinstance(node, Union):
            left = self._approximate(node.left, counter, statuses)
            right = self._approximate(node.right, counter, statuses)
            return _combine_union(left, right)
        if isinstance(node, Difference):
            left = self._approximate(node.left, counter, statuses)
            right = self._approximate(node.right, counter, statuses)
            return _combine_difference(left, right)
        # An SPC subtree (or a non-normal-form construct treated as a unit).
        return self._spc_interval(node, counter, statuses)

    def _spc_interval(
        self, node: Query, counter: AccessCounter, statuses: dict[int, bool]
    ) -> _Interval:
        coverage = check_coverage(node, self.access_schema)
        statuses[id(node)] = coverage.is_covered
        if not coverage.is_covered:
            return _Interval(frozenset(), None)
        try:
            plan = generate_plan(coverage)
            execution = self._executor.execute(plan, counter)
        except PlanError:
            return _Interval(frozenset(), None)
        return _Interval(execution.rows, execution.rows)


def approximate_answer(
    query: Query,
    database: Database,
    access_schema: AccessSchema,
    indexes: IndexSet | None = None,
) -> ApproximateResult:
    """Convenience wrapper around :class:`ApproximateEvaluator`."""
    if indexes is None:
        indexes = IndexSet.build(database, access_schema, check=False)
    return ApproximateEvaluator(database, access_schema, indexes).evaluate(query)
