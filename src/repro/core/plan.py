"""Bounded query plans (Section 2 and Section 5.1).

A query plan under an access schema is a sequence of steps ``T1 = δ1, ...,
Tn = δn`` where each ``δi`` is a constant singleton, a ``fetch`` via an
access constraint, or a relational operation over earlier steps.  A plan is
*boundedly evaluable* when every fetch is backed by a constraint of the
access schema and the plan length depends only on ``|Q|`` and ``|A|``.

The module defines the plan operators, the :class:`BoundedPlan` container
(with static access-bound estimation in the spirit of Example 1's
"at most 470 000 tuples" arithmetic), and plan validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .access import AccessConstraint, AccessSchema
from .errors import PlanError


# ---------------------------------------------------------------------------
# Column-level predicates (used by Select steps)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnRef:
    """A reference to a column of the step being filtered."""

    column: str

    def __str__(self) -> str:
        return self.column


@dataclass(frozen=True)
class ColumnPredicate:
    """An atomic comparison between a column and a column or constant."""

    left: str
    op: str
    right: object

    _OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise PlanError(f"unsupported comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


# ---------------------------------------------------------------------------
# Plan operators
# ---------------------------------------------------------------------------

class PlanOp:
    """Base class of plan-step operators."""

    #: ids of the steps this operator reads from, in order
    inputs: tuple[int, ...] = ()

    def describe(self) -> str:
        """A one-line human-readable rendering of this operator."""
        raise NotImplementedError


@dataclass
class ConstOp(PlanOp):
    """``T = {c}``: a single-row, single-column constant relation."""

    value: object
    column: str
    inputs: tuple[int, ...] = ()

    def describe(self) -> str:
        """Render as ``{value} as (column)``."""
        return f"{{{self.value!r}}} as ({self.column})"


@dataclass
class UnitOp(PlanOp):
    """A single empty tuple, used as the driver of fetches with an empty LHS."""

    inputs: tuple[int, ...] = ()

    def describe(self) -> str:
        """Render the unit relation."""
        return "{()}"


@dataclass
class FetchOp(PlanOp):
    """``fetch(X ∈ T, R, Y)`` backed by an access constraint ``R(X → Y, N)``.

    ``key_columns`` names, for each attribute of the constraint's LHS (in
    sorted order), the column of the input step holding its value.  The
    output columns are the qualified ``X ∪ Y`` attributes of the relation.
    """

    constraint: AccessConstraint
    key_columns: tuple[str, ...]
    inputs: tuple[int, ...]

    def describe(self) -> str:
        """Render the fetch with its driving constraint and key columns."""
        keys = ", ".join(self.key_columns) or "()"
        return f"fetch(X∈T{self.inputs[0]} via {self.constraint}; keys=({keys}))"


@dataclass
class ProjectOp(PlanOp):
    """``π_columns(T)`` with optional output renaming."""

    columns: tuple[str, ...]
    inputs: tuple[int, ...]
    output_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.output_names is not None and len(self.output_names) != len(self.columns):
            raise PlanError("output_names must align with columns")

    def describe(self) -> str:
        """Render the projection, showing renames only when they differ."""
        cols = ", ".join(self.columns)
        if self.output_names and tuple(self.output_names) != tuple(self.columns):
            cols += " as " + ", ".join(self.output_names)
        return f"π[{cols}](T{self.inputs[0]})"


@dataclass
class SelectOp(PlanOp):
    """``σ_condition(T)`` where the condition is a conjunction of column predicates."""

    predicates: tuple[ColumnPredicate, ...]
    inputs: tuple[int, ...]

    def describe(self) -> str:
        """Render the selection with its conjunctive condition."""
        condition = " AND ".join(str(p) for p in self.predicates)
        return f"σ[{condition}](T{self.inputs[0]})"


@dataclass
class RenameOp(PlanOp):
    """Rename the columns of a step (positional mapping preserved)."""

    mapping: Mapping[str, str]
    inputs: tuple[int, ...]

    def describe(self) -> str:
        """Render the rename as ``old→new`` pairs."""
        pairs = ", ".join(f"{old}→{new}" for old, new in self.mapping.items())
        return f"ρ[{pairs}](T{self.inputs[0]})"


@dataclass
class ProductOp(PlanOp):
    """Cartesian product of two steps (columns must be disjoint)."""

    inputs: tuple[int, ...]

    def describe(self) -> str:
        """Render the product of the two input steps."""
        return f"T{self.inputs[0]} × T{self.inputs[1]}"


@dataclass
class HashJoinOp(PlanOp):
    """A fused ``σ(T × T')`` evaluated as a hash join (columns must be disjoint).

    ``pairs`` lists ``(left_column, right_column)`` equality conditions that
    drive the hash lookup; ``residual`` holds the remaining predicates,
    evaluated over the concatenated columns of both inputs.  The operator is
    never produced by the planner — only by the peephole optimizer
    (:mod:`repro.core.optimizer`) — and is semantically identical to the
    select-over-product it replaces.
    """

    pairs: tuple[tuple[str, str], ...]
    residual: tuple[ColumnPredicate, ...]
    inputs: tuple[int, ...]

    def describe(self) -> str:
        """Render the join with equality pairs and residual predicates."""
        condition = " AND ".join(
            [f"{l} = {r}" for l, r in self.pairs] + [str(p) for p in self.residual]
        )
        return f"T{self.inputs[0]} ⋈[{condition}] T{self.inputs[1]}"


@dataclass
class UnionOp(PlanOp):
    """Set union (positional) of two steps with equal arity."""

    inputs: tuple[int, ...]

    def describe(self) -> str:
        """Render the union of the two input steps."""
        return f"T{self.inputs[0]} ∪ T{self.inputs[1]}"


@dataclass
class DifferenceOp(PlanOp):
    """Set difference (positional) of two steps with equal arity."""

    inputs: tuple[int, ...]

    def describe(self) -> str:
        """Render the difference of the two input steps."""
        return f"T{self.inputs[0]} − T{self.inputs[1]}"


@dataclass
class IntersectOp(PlanOp):
    """Set intersection (positional) of two steps with equal arity."""

    inputs: tuple[int, ...]

    def describe(self) -> str:
        """Render the intersection of the two input steps."""
        return f"T{self.inputs[0]} ∩ T{self.inputs[1]}"


# ---------------------------------------------------------------------------
# Plan steps and the plan container
# ---------------------------------------------------------------------------

@dataclass
class PlanStep:
    """One ``Ti = δi`` entry of a bounded query plan."""

    id: int
    op: PlanOp
    columns: tuple[str, ...]
    comment: str = ""

    def __str__(self) -> str:
        note = f"    -- {self.comment}" if self.comment else ""
        return f"T{self.id} = {self.op.describe()}{note}"


def column_positions(columns: Sequence[str]) -> dict[str, int]:
    """Column name → first position: how every consumer of a step resolves names."""
    positions: dict[str, int] = {}
    for index, column in enumerate(columns):
        positions.setdefault(column, index)
    return positions


def position_of(positions: Mapping[str, int], column: str, step: PlanStep) -> int:
    """``positions[column]``, or a :class:`PlanError` naming the offending ``step``."""
    try:
        return positions[column]
    except KeyError:
        raise PlanError(
            f"step T{step.id} references missing column {column!r}; "
            f"available: {sorted(positions)}"
        ) from None


def step_bounds(
    op: PlanOp,
    columns: Sequence[str],
    column_bounds: Mapping[int, Mapping[str, int]] | Sequence[Mapping[str, int]],
    row_bounds: Mapping[int, int] | Sequence[int],
) -> tuple[dict[str, int], int]:
    """One step's static bounds, from those of the steps it reads.

    Returns ``(per-column bounds on distinct values, bound on rows)`` for a
    step computing ``op`` with output ``columns``; ``column_bounds`` and
    ``row_bounds`` hold the same pair for every input of ``op``, indexed by
    step id (a dict or a list).
    :meth:`BoundedPlan.column_bounds` folds it over a plan; the optimizer
    folds it over the steps it emits, to ask whether a projection can shrink
    its input.
    """
    if isinstance(op, ConstOp):
        return {op.column: 1}, 1
    if isinstance(op, UnitOp):
        return {}, 1
    source, source_rows = column_bounds[op.inputs[0]], row_bounds[op.inputs[0]]
    if isinstance(op, FetchOp):
        keys = 1
        for column in op.key_columns:
            keys *= max(1, source.get(column, source_rows))
        keys = min(keys, source_rows)
        produced = keys * op.constraint.bound
        bounds: dict[str, int] = {}
        for attr, key_column in zip(sorted(op.constraint.lhs), op.key_columns):
            bounds[f"{op.constraint.relation}.{attr}"] = max(1, source.get(key_column, keys))
        for column in columns:
            bounds.setdefault(column, produced)
        return bounds, produced
    if isinstance(op, ProjectOp):
        names = op.output_names if op.output_names is not None else op.columns
        bounds = {}
        product = 1
        for column, name in zip(op.columns, names):
            bound = source.get(column, source_rows)
            bounds[name] = bound
            product *= max(1, bound)
        return bounds, min(source_rows, product)
    if isinstance(op, (SelectOp, DifferenceOp, IntersectOp)):
        return dict(source), source_rows
    if isinstance(op, RenameOp):
        return {op.mapping.get(c, c): bound for c, bound in source.items()}, source_rows
    other, other_rows = column_bounds[op.inputs[1]], row_bounds[op.inputs[1]]
    if isinstance(op, (ProductOp, HashJoinOp)):
        return {**source, **other}, source_rows * other_rows
    if isinstance(op, UnionOp):
        bounds = {
            column: bound + other_bound
            for (column, bound), other_bound in zip(source.items(), other.values())
        }
        return bounds, source_rows + other_rows
    raise PlanError(f"unknown operator {type(op).__name__}")  # pragma: no cover - future operators


@dataclass
class BoundedPlan:
    """A bounded query plan: an ordered list of steps plus bookkeeping.

    ``fetch_plans`` maps unified attribute tokens to the step computing their
    unit fetching plan; ``surrogates`` maps relation occurrence names to the
    step holding the indexed partial relation used by the evaluation plan —
    the fetch step of the indexing constraint itself when nothing is left to
    test (its comment then names both roles).
    """

    steps: list[PlanStep]
    output: int
    access_schema: AccessSchema
    fetch_plans: Mapping[str, int] = field(default_factory=dict)
    surrogates: Mapping[str, int] = field(default_factory=dict)
    #: occurrence name -> base relation name (needed to map actualized
    #: constraints back to the physical indexes built on base relations)
    occurrences: Mapping[str, str] = field(default_factory=dict)
    #: the run schedule an executor lowered this plan to, kept with the plan
    #: (:meth:`PlanExecutor.compile <repro.evaluator.executor.PlanExecutor.compile>`)
    compiled: object | None = field(default=None, init=False, repr=False, compare=False)

    # -- structure ---------------------------------------------------------------
    @property
    def length(self) -> int:
        """The length of the plan (number of steps) — ``O(|Q||A|)`` per Lemma 8."""
        return len(self.steps)

    def __iter__(self) -> Iterator[PlanStep]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def step(self, step_id: int) -> PlanStep:
        """The step with id ``step_id``; raises :class:`PlanError` when absent."""
        try:
            return self.steps[step_id]
        except IndexError:
            raise PlanError(f"plan has no step T{step_id}") from None

    def fetch_steps(self) -> tuple[PlanStep, ...]:
        """All fetch steps in plan order — the only steps that touch data."""
        return tuple(s for s in self.steps if isinstance(s.op, FetchOp))

    def constraints_used(self) -> tuple[AccessConstraint, ...]:
        """The distinct access constraints used by fetch steps, in first-use order."""
        seen: list[AccessConstraint] = []
        for step in self.fetch_steps():
            constraint = step.op.constraint  # type: ignore[union-attr]
            if constraint not in seen:
                seen.append(constraint)
        return tuple(seen)

    def base_relation(self, constraint: AccessConstraint) -> str:
        """The physical relation behind a (possibly actualized) fetch constraint."""
        return self.occurrences.get(constraint.relation, constraint.relation)

    def dependency_relations(self) -> tuple[str, ...]:
        """The base relations whose data this plan reads, sorted and deduplicated.

        A bounded plan touches data only through its fetch steps, and each
        fetch reads the index of one constraint; actualized constraints are
        mapped back to their base relation via :attr:`occurrences`.  This is
        the dependency set used for constraint-granular cache invalidation:
        a write to any other relation cannot change this plan's result.
        """
        bases = {self.base_relation(constraint) for constraint in self.constraints_used()}
        return tuple(sorted(bases))

    # -- validation ----------------------------------------------------------------
    def validate(self) -> None:
        """Check referential integrity and that every fetch uses a schema constraint."""
        for step in self.steps:
            for input_id in step.op.inputs:
                if input_id >= step.id:
                    raise PlanError(
                        f"step T{step.id} references later or same step T{input_id}"
                    )
                if input_id < 0 or input_id >= len(self.steps):
                    raise PlanError(f"step T{step.id} references missing step T{input_id}")
            if isinstance(step.op, FetchOp) and step.op.constraint not in self.access_schema:
                raise PlanError(
                    f"fetch in step T{step.id} uses constraint {step.op.constraint} "
                    "that is not in the access schema"
                )
        if self.output < 0 or self.output >= len(self.steps):
            raise PlanError(f"output step T{self.output} does not exist")

    @property
    def is_bounded(self) -> bool:
        """Every fetch is backed by the access schema (condition (1) of Section 2)."""
        try:
            self.validate()
        except PlanError:
            return False
        return True

    # -- static access estimation ------------------------------------------------------
    @cached_property
    def _static_bounds(self) -> tuple[dict[int, dict[str, int]], dict[int, int]]:
        """``(column bounds, row bounds)`` of every step, computed once.

        A plan is not mutated after :meth:`validate`, and every reader of the
        static arithmetic — :meth:`access_bound` on each admitted request, the
        optimizer's executor-mode choice — wants the same two maps.
        """
        per_step: dict[int, dict[str, int]] = {}
        rows: dict[int, int] = {}
        for step in self.steps:
            per_step[step.id], rows[step.id] = step_bounds(
                step.op, step.columns, per_step, rows
            )
        return per_step, rows

    def column_bounds(self) -> Mapping[int, Mapping[str, int]]:
        """Per-step, per-column upper bounds on the number of distinct values.

        Derived purely from the access constraints: a constant column holds one
        value, a fetch keyed on columns with bounds ``b1..bk`` under a
        constraint with bound ``N`` yields at most ``b1·…·bk`` distinct keys
        and ``b1·…·bk·N`` distinct values in its RHS columns, and so on
        (:func:`step_bounds`).  This is the arithmetic of Example 1 ("at most
        5000 + 5000·31·2 tuples").  The mapping is the plan's own memo: read it,
        do not write to it.
        """
        return self._static_bounds[0]

    def cardinality_bounds(self) -> dict[int, int]:
        """A per-step upper bound on output cardinality implied by the constraints."""
        return dict(self._static_bounds[1])

    def access_bound(self) -> int:
        """An upper bound on the number of tuples the plan can access.

        Each ``fetch(X ∈ T, R, Y)`` issues at most one index probe per distinct
        key of its input and retrieves at most ``N`` tuples per probe — the
        fetch step's own row bound.  The bound is the sum over all fetch
        steps, computed from the constraints alone — independent of any
        dataset, as required by bounded evaluability.
        """
        rows = self._static_bounds[1]
        return sum(rows[step.id] for step in self.fetch_steps())

    # -- rendering ------------------------------------------------------------------
    def __str__(self) -> str:
        lines = [str(step) for step in self.steps]
        lines.append(f"-- result: T{self.output}")
        return "\n".join(lines)


class PlanBuilder:
    """Incremental construction of a :class:`BoundedPlan`."""

    def __init__(self, access_schema: AccessSchema, occurrences: Mapping[str, str] | None = None):
        self.access_schema = access_schema
        self.occurrences: Mapping[str, str] = dict(occurrences or {})
        self.steps: list[PlanStep] = []
        self.fetch_plans: dict[str, int] = {}
        self.surrogates: dict[str, int] = {}

    def add(self, op: PlanOp, columns: Sequence[str], comment: str = "") -> int:
        """Append a step computing ``op`` with ``columns``; returns its id."""
        step = PlanStep(id=len(self.steps), op=op, columns=tuple(columns), comment=comment)
        self.steps.append(step)
        return step.id

    def columns(self, step_id: int) -> tuple[str, ...]:
        """The output columns of an already-added step."""
        return self.steps[step_id].columns

    def build(self, output: int) -> BoundedPlan:
        """Finalize into a validated :class:`BoundedPlan` with ``output`` as result."""
        plan = BoundedPlan(
            steps=self.steps,
            output=output,
            access_schema=self.access_schema,
            fetch_plans=dict(self.fetch_plans),
            surrogates=dict(self.surrogates),
            occurrences=dict(self.occurrences),
        )
        plan.validate()
        return plan
