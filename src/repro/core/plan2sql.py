"""``Plan2SQL``: interpret bounded plans (and RA queries) as SQL (Section 7).

The paper integrates bounded evaluation into a DBMS by translating a bounded
plan ``ξ`` into an SQL query ``Q_ξ`` posed over the *index relations* of the
access schema, so that the DBMS executes it while touching only the data the
plan would have fetched.  This module produces that SQL:

* :func:`plan_to_sql` — a bounded plan becomes a ``WITH``-query whose CTEs
  mirror the plan steps, reading only from index tables ``ind_…``;
* :func:`query_to_sql` — an RA query becomes plain SQL over the base tables
  (used for the ``evalDBMS`` baseline on a real SQL engine);
* :func:`index_table_name` / :func:`index_table_ddl` — naming and DDL of the
  index relations ``T_XY = π_XY(D_R)`` with an index on ``X``.

The emitted SQL is standard enough for SQLite, which
:mod:`repro.backends.sqlite` uses to run both sides end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .access import AccessConstraint, AccessSchema
from .errors import PlanError, QueryError
from .plan import (
    BoundedPlan,
    ColumnPredicate,
    ColumnRef,
    ConstOp,
    DifferenceOp,
    FetchOp,
    HashJoinOp,
    IntersectOp,
    ProductOp,
    ProjectOp,
    RenameOp,
    SelectOp,
    UnionOp,
    UnitOp,
)
from .query import (
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
from .schema import Attribute


# ---------------------------------------------------------------------------
# Identifier / literal helpers
# ---------------------------------------------------------------------------

def quote_identifier(name: str) -> str:
    """Quote an SQL identifier (column or table name)."""
    return '"' + name.replace('"', '""') + '"'


def sql_literal(value: object) -> str:
    """Render a Python value as an SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    return "'" + str(value).replace("'", "''") + "'"


def index_table_name(constraint: AccessConstraint, base_relation: str | None = None) -> str:
    """The name of the index relation of a constraint, e.g. ``ind_friend_pid__fid``."""
    relation = base_relation if base_relation is not None else constraint.relation
    lhs = "_".join(sorted(constraint.lhs)) or "all"
    rhs = "_".join(sorted(constraint.rhs))
    return f"ind_{relation}_{lhs}__{rhs}"


def index_table_ddl(constraint: AccessConstraint, base_relation: str | None = None) -> list[str]:
    """DDL statements creating the index relation and its hash/B-tree index."""
    relation = base_relation if base_relation is not None else constraint.relation
    table = index_table_name(constraint, relation)
    columns = sorted(constraint.lhs | constraint.rhs)
    column_list = ", ".join(quote_identifier(c) for c in columns)
    statements = [
        f"CREATE TABLE {quote_identifier(table)} AS "
        f"SELECT DISTINCT {column_list} FROM {quote_identifier(relation)}"
    ]
    if constraint.lhs:
        key_list = ", ".join(quote_identifier(c) for c in sorted(constraint.lhs))
        statements.append(
            f"CREATE INDEX {quote_identifier('ix_' + table)} "
            f"ON {quote_identifier(table)} ({key_list})"
        )
    return statements


# ---------------------------------------------------------------------------
# Plan → SQL
# ---------------------------------------------------------------------------

@dataclass
class SQLTranslation:
    """The result of translating a bounded plan or RA query to SQL."""

    sql: str
    index_tables: Mapping[str, AccessConstraint] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.sql


def plan_to_sql(plan: BoundedPlan) -> SQLTranslation:
    """Translate a bounded plan into one SQL query over its index relations.

    Every plan step becomes a CTE named ``t<i>``; the final ``SELECT`` reads
    the output step.  Only index tables (``ind_…``) appear in ``FROM``
    clauses, mirroring the paper's example translation for ``Q1``.
    """
    ctes: list[str] = []
    index_tables: dict[str, AccessConstraint] = {}

    for step in plan.steps:
        body = _step_sql(plan, step, index_tables)
        ctes.append(f"t{step.id} AS (\n  {body}\n)")

    sql = "WITH " + ",\n".join(ctes) + f"\nSELECT DISTINCT * FROM t{plan.output}"
    return SQLTranslation(sql=sql, index_tables=index_tables)


def _step_sql(
    plan: BoundedPlan, step, index_tables: dict[str, AccessConstraint]
) -> str:
    op = step.op
    if isinstance(op, ConstOp):
        return f"SELECT {sql_literal(op.value)} AS {quote_identifier(op.column)}"
    if isinstance(op, UnitOp):
        return 'SELECT 1 AS "__unit"'
    if isinstance(op, FetchOp):
        return _fetch_sql(plan, step, op, index_tables)
    if isinstance(op, ProjectOp):
        names = op.output_names if op.output_names is not None else op.columns
        select_list = ", ".join(
            f"{quote_identifier(col)} AS {quote_identifier(name)}"
            for col, name in zip(op.columns, names)
        )
        return f"SELECT DISTINCT {select_list} FROM t{op.inputs[0]}"
    if isinstance(op, SelectOp):
        condition = " AND ".join(_predicate_sql(p) for p in op.predicates) or "1=1"
        return f"SELECT DISTINCT * FROM t{op.inputs[0]} WHERE {condition}"
    if isinstance(op, RenameOp):
        source_columns = plan.step(op.inputs[0]).columns
        select_list = ", ".join(
            f"{quote_identifier(col)} AS {quote_identifier(op.mapping.get(col, col))}"
            for col in source_columns
        )
        return f"SELECT DISTINCT {select_list} FROM t{op.inputs[0]}"
    if isinstance(op, ProductOp):
        left_cols = plan.step(op.inputs[0]).columns
        right_cols = plan.step(op.inputs[1]).columns
        select_list = ", ".join(
            [f"a.{quote_identifier(c)} AS {quote_identifier(c)}" for c in left_cols]
            + [f"b.{quote_identifier(c)} AS {quote_identifier(c)}" for c in right_cols]
        ) or "1"
        return (
            f"SELECT DISTINCT {select_list} FROM t{op.inputs[0]} a CROSS JOIN t{op.inputs[1]} b"
        )
    if isinstance(op, HashJoinOp):
        left_cols = plan.step(op.inputs[0]).columns
        right_cols = plan.step(op.inputs[1]).columns
        select_list = ", ".join(
            [f"a.{quote_identifier(c)} AS {quote_identifier(c)}" for c in left_cols]
            + [f"b.{quote_identifier(c)} AS {quote_identifier(c)}" for c in right_cols]
        ) or "1"
        conditions = [
            f"a.{quote_identifier(l)} = b.{quote_identifier(r)}" for l, r in op.pairs
        ] + [_predicate_sql(p) for p in op.residual]
        on_clause = " AND ".join(conditions) or "1=1"
        return (
            f"SELECT DISTINCT {select_list} FROM t{op.inputs[0]} a "
            f"JOIN t{op.inputs[1]} b ON {on_clause}"
        )
    if isinstance(op, UnionOp):
        return f"SELECT * FROM t{op.inputs[0]} UNION SELECT * FROM t{op.inputs[1]}"
    if isinstance(op, DifferenceOp):
        return f"SELECT * FROM t{op.inputs[0]} EXCEPT SELECT * FROM t{op.inputs[1]}"
    if isinstance(op, IntersectOp):
        return f"SELECT * FROM t{op.inputs[0]} INTERSECT SELECT * FROM t{op.inputs[1]}"
    raise PlanError(f"cannot translate plan operator {type(op).__name__} to SQL")


def _fetch_sql(
    plan: BoundedPlan, step, op: FetchOp, index_tables: dict[str, AccessConstraint]
) -> str:
    base = plan.base_relation(op.constraint)
    table = index_table_name(op.constraint, base)
    index_tables[table] = op.constraint
    attributes = sorted(op.constraint.lhs | op.constraint.rhs)
    select_list = ", ".join(
        f"i.{quote_identifier(attr)} AS {quote_identifier(col)}"
        for attr, col in zip(attributes, step.columns)
    )
    if not op.constraint.lhs:
        return f"SELECT DISTINCT {select_list} FROM {quote_identifier(table)} i"
    join_conditions = " AND ".join(
        f"i.{quote_identifier(attr)} = k.{quote_identifier(key)}"
        for attr, key in zip(sorted(op.constraint.lhs), op.key_columns)
    )
    return (
        f"SELECT DISTINCT {select_list} FROM {quote_identifier(table)} i "
        f"JOIN (SELECT DISTINCT "
        + ", ".join(quote_identifier(k) for k in dict.fromkeys(op.key_columns))
        + f" FROM t{op.inputs[0]}) k ON {join_conditions}"
    )


def _predicate_sql(predicate: ColumnPredicate) -> str:
    left = quote_identifier(predicate.left)
    if isinstance(predicate.right, ColumnRef):
        right = quote_identifier(predicate.right.column)
    else:
        right = sql_literal(predicate.right)
    op = "<>" if predicate.op == "!=" else predicate.op
    return f"{left} {op} {right}"


# ---------------------------------------------------------------------------
# RA query → SQL (used by the DBMS baseline)
# ---------------------------------------------------------------------------

def query_to_sql(query: Query) -> str:
    """Translate an RA query into a (nested) SQL query over the base tables."""
    return _query_sql(query)


def _query_sql(node: Query) -> str:
    if isinstance(node, Relation):
        select_list = ", ".join(
            f"{quote_identifier(a)} AS {quote_identifier(f'{node.name}.{a}')}"
            for a in node.attribute_names
        )
        return f"SELECT DISTINCT {select_list} FROM {quote_identifier(node.base)}"
    if isinstance(node, Selection):
        condition = _condition_sql(node.condition)
        return f"SELECT DISTINCT * FROM ({_query_sql(node.child)}) WHERE {condition}"
    if isinstance(node, Projection):
        select_list = ", ".join(quote_identifier(str(a)) for a in node.attributes)
        return f"SELECT DISTINCT {select_list} FROM ({_query_sql(node.child)})"
    if isinstance(node, Product):
        return (
            f"SELECT DISTINCT * FROM ({_query_sql(node.left)}) AS a "
            f"CROSS JOIN ({_query_sql(node.right)}) AS b"
        )
    if isinstance(node, Join):
        condition = _condition_sql(node.condition)
        return (
            f"SELECT DISTINCT * FROM ({_query_sql(node.left)}) AS a "
            f"JOIN ({_query_sql(node.right)}) AS b ON {condition}"
        )
    if isinstance(node, Union):
        return f"{_query_sql(node.left)} UNION {_query_sql(node.right)}"
    if isinstance(node, Difference):
        return f"{_query_sql(node.left)} EXCEPT {_query_sql(node.right)}"
    if isinstance(node, Rename):
        child_attrs = node.child.output_attributes()
        select_list = ", ".join(
            f"{quote_identifier(str(old))} AS {quote_identifier(f'{node.name}.{old.name}')}"
            for old in child_attrs
        )
        return f"SELECT DISTINCT {select_list} FROM ({_query_sql(node.child)})"
    raise QueryError(f"cannot translate query node {type(node).__name__} to SQL")


def _condition_sql(condition: Predicate) -> str:
    parts = []
    for atom in condition.atoms():
        if not isinstance(atom, Comparison):  # pragma: no cover - defensive
            raise QueryError(f"unsupported predicate {atom}")
        parts.append(
            f"{_term_sql(atom.left)} {'<>' if atom.op == '!=' else atom.op} {_term_sql(atom.right)}"
        )
    return " AND ".join(parts) if parts else "1=1"


def _term_sql(term: object) -> str:
    if isinstance(term, Attribute):
        return quote_identifier(str(term))
    if isinstance(term, Constant):
        return sql_literal(term.value)
    return sql_literal(term)  # pragma: no cover - defensive
