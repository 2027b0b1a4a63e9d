"""Reference relational-algebra evaluation over in-memory databases.

This is the "ground truth" evaluator: it computes ``Q(D)`` by straightforward
bottom-up evaluation of the query tree under set semantics.  It also serves as
the core of the conventional-DBMS baseline (:mod:`repro.evaluator.baseline`),
which layers a simple index-aware scan strategy and access accounting on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from ..core.errors import QueryError
from ..core.query import (
    Comparison,
    Constant,
    Difference,
    Join,
    Predicate,
    Product,
    Projection,
    Query,
    Relation,
    Rename,
    Selection,
    Union,
)
from ..core.schema import Attribute
from ..storage.counters import AccessCounter
from ..storage.database import Database

Row = tuple


@dataclass(frozen=True)
class ResultSet:
    """A named intermediate or final result: ordered columns plus a set of rows."""

    columns: tuple[str, ...]
    rows: frozenset[Row]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column_position(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise QueryError(
                f"result has no column {column!r}; columns: {list(self.columns)}"
            ) from None

    def values(self, column: str) -> frozenset:
        position = self.column_position(column)
        return frozenset(row[position] for row in self.rows)


def _predicate_matcher(
    condition: Predicate, columns: Sequence[str]
) -> Callable[[Row], bool]:
    """Compile a query predicate into a row filter over named columns."""
    compiled: list[tuple[int, str, object, int | None]] = []
    positions: dict[str, int] = {}
    for index, column in enumerate(columns):
        positions.setdefault(column, index)
    for atom in condition.atoms():
        if not isinstance(atom, Comparison):  # pragma: no cover - defensive
            raise QueryError(f"unsupported predicate {atom}")
        left, op, right = atom.left, atom.op, atom.right
        if isinstance(left, Constant) and isinstance(right, Attribute):
            left, right = right, left
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        if not isinstance(left, Attribute):
            raise QueryError(f"predicate {atom} compares two constants")
        try:
            left_pos = positions[str(left)]
            if isinstance(right, Attribute):
                compiled.append((left_pos, op, None, positions[str(right)]))
            else:
                compiled.append((left_pos, op, right.value, None))
        except KeyError as missing:
            raise QueryError(
                f"predicate {atom} references missing column {missing.args[0]!r}"
            ) from None

    def matches(row: Row) -> bool:
        for left_pos, op, constant, right_pos in compiled:
            left_value = row[left_pos]
            right_value = row[right_pos] if right_pos is not None else constant
            if not _compare(left_value, op, right_value):
                return False
        return True

    return matches


def _compare(left: object, op: str, right: object) -> bool:
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        return left >= right  # type: ignore[operator]
    except TypeError:
        # Incomparable types under an ordering operator: treat as non-matching.
        return False


class AlgebraEvaluator:
    """Bottom-up RA evaluation.  ``relation_source`` lets subclasses replace scans."""

    def __init__(self, database: Database, counter: AccessCounter | None = None):
        self.database = database
        self.counter = counter if counter is not None else AccessCounter()

    # -- relation access (overridden by the baseline evaluator) ---------------------
    def scan_relation(self, node: Relation, context: Query) -> ResultSet:
        relation = self.database.relation(node.base)
        columns = tuple(str(a) for a in node.output_attributes())
        self.counter.record_scan(node.base, len(relation))
        return ResultSet(columns=columns, rows=frozenset(relation.rows))

    # -- evaluation --------------------------------------------------------------------
    def evaluate(self, query: Query) -> ResultSet:
        return self._evaluate(query, query)

    def _evaluate(self, node: Query, context: Query) -> ResultSet:
        if isinstance(node, Relation):
            return self.scan_relation(node, context)
        if isinstance(node, Selection):
            child = self._evaluate(node.child, context)
            matcher = _predicate_matcher(node.condition, child.columns)
            return ResultSet(child.columns, frozenset(r for r in child.rows if matcher(r)))
        if isinstance(node, Projection):
            child = self._evaluate(node.child, context)
            positions = [child.column_position(str(a)) for a in node.attributes]
            columns = tuple(str(a) for a in node.attributes)
            rows = frozenset(tuple(row[p] for p in positions) for row in child.rows)
            return ResultSet(columns, rows)
        if isinstance(node, Product):
            left = self._evaluate(node.left, context)
            right = self._evaluate(node.right, context)
            return _cross(left, right)
        if isinstance(node, Join):
            left = self._evaluate(node.left, context)
            right = self._evaluate(node.right, context)
            return _join(left, right, node.condition)
        if isinstance(node, Union):
            left = self._evaluate(node.left, context)
            right = self._evaluate(node.right, context)
            _check_arity(left, right, "union")
            return ResultSet(left.columns, left.rows | right.rows)
        if isinstance(node, Difference):
            left = self._evaluate(node.left, context)
            right = self._evaluate(node.right, context)
            _check_arity(left, right, "difference")
            return ResultSet(left.columns, left.rows - right.rows)
        if isinstance(node, Rename):
            child = self._evaluate(node.child, context)
            columns = tuple(str(a) for a in node.output_attributes())
            return ResultSet(columns, child.rows)
        raise QueryError(f"cannot evaluate query node {type(node).__name__}")


def _check_arity(left: ResultSet, right: ResultSet, operation: str) -> None:
    if len(left.columns) != len(right.columns):
        raise QueryError(
            f"{operation} operands have different arities: "
            f"{len(left.columns)} vs {len(right.columns)}"
        )


def _cross(left: ResultSet, right: ResultSet) -> ResultSet:
    columns = left.columns + right.columns
    rows = frozenset(l + r for l in left.rows for r in right.rows)
    return ResultSet(columns, rows)


def _join(left: ResultSet, right: ResultSet, condition: Predicate) -> ResultSet:
    """Hash-join on the equality atoms that span both sides; filter the rest."""
    columns = left.columns + right.columns
    left_cols, right_cols = set(left.columns), set(right.columns)
    hash_pairs: list[tuple[int, int]] = []
    residual: list[Comparison] = []
    for atom in condition.atoms():
        if (
            isinstance(atom, Comparison)
            and atom.is_equality
            and isinstance(atom.left, Attribute)
            and isinstance(atom.right, Attribute)
        ):
            l, r = str(atom.left), str(atom.right)
            if l in left_cols and r in right_cols:
                hash_pairs.append((left.columns.index(l), right.columns.index(r)))
                continue
            if r in left_cols and l in right_cols:
                hash_pairs.append((left.columns.index(r), right.columns.index(l)))
                continue
        residual.append(atom)  # type: ignore[arg-type]

    if hash_pairs:
        buckets: dict[tuple, list[Row]] = {}
        for row in right.rows:
            key = tuple(row[rp] for _, rp in hash_pairs)
            buckets.setdefault(key, []).append(row)
        joined = set()
        for row in left.rows:
            key = tuple(row[lp] for lp, _ in hash_pairs)
            for match in buckets.get(key, ()):
                joined.add(row + match)
        rows: frozenset[Row] = frozenset(joined)
    else:
        rows = frozenset(l + r for l in left.rows for r in right.rows)

    if residual:
        from ..core.query import conjunction

        matcher = _predicate_matcher(conjunction(residual), columns)  # type: ignore[arg-type]
        rows = frozenset(r for r in rows if matcher(r))
    return ResultSet(columns, rows)


def evaluate(query: Query, database: Database, counter: AccessCounter | None = None) -> ResultSet:
    """Evaluate ``query`` over ``database`` (reference semantics)."""
    return AlgebraEvaluator(database, counter).evaluate(query)
