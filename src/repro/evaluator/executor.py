"""Execution of bounded query plans (``evalQP``).

The executor runs a :class:`~repro.core.plan.BoundedPlan` over a **fetch
source**.  Data is accessed **only** through ``fetch`` steps, and a fetch
step is the only place substrates differ: at compile time the source turns
``(plan, step)`` into ``fetch(distinct keys, counter) -> rows`` — lookups on
one constraint index for a local :class:`~repro.storage.index.IndexSet`,
scatter/gather over the owning shards for a
:class:`~repro.sharding.router.ShardRouter`.  The kernels consume that one
seam, so every substrate runs the same kernels; every access is
recorded on an :class:`~repro.storage.counters.AccessCounter`, so the
measured ``|D_Q|`` of the experiments is exact.

Plans are executed in two phases.  ``compile`` lowers every step to a small
kernel closure with all name-to-position resolution, predicate compilation
and index lookup done once up front; ``execute`` then pipelines the kernels
over the step environment, freezing only the output step into the returned
:class:`~repro.evaluator.algebra.ResultSet`.  Compiled plans are memoized
per plan object (the hot path of :class:`~repro.core.engine.BoundedEngine`
executes the same cached plan over and over), so a warm execution does no
per-step interpretation work beyond running the kernels.

There is one kernel family: tuple-at-a-time kernels over set
intermediates.  A bounded plan fetches at most ``access_bound()`` tuples
and in practice far fewer (16–421 on the layered benchmark's widest plans),
so batch kernels have nothing to amortize: a columnar family ran beside
this one until row kernels beat it on 12 or 13 of the benchmark's 13 wide
plans (per run) and on all 12 plans with bounds of 1 201–2 300, with the
same rows and fetches either way (the per-plan tables are in
``benchmarks/history/``).

A kernel does per-row work only; whatever can be settled per step is
settled at compile time.  A fetch hands its distinct keys to the source's
gather, which records the step on the counter once.  A hash join's
residual predicates are sorted by the side their columns resolve to in the
joined row (first occurrence winning, as everywhere): a one-sided predicate
filters that side before the build or the probe, and only mixed ones are
checked on joined rows.  A lone ``column = constant`` compiles to one
comparison; every other predicate goes through
:func:`~repro.evaluator.algebra._compare`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from operator import itemgetter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..core.errors import PlanError
from ..core.plan import (
    BoundedPlan,
    ColumnPredicate,
    ColumnRef,
    ConstOp,
    DifferenceOp,
    FetchOp,
    HashJoinOp,
    IntersectOp,
    PlanStep,
    ProductOp,
    ProjectOp,
    RenameOp,
    SelectOp,
    UnionOp,
    UnitOp,
    column_positions,
    position_of,
)
from ..storage.counters import AccessCounter
from .algebra import ResultSet, _compare

Row = tuple

#: a compiled plan step: (environment of prior step results, counter) -> rows
Kernel = Callable[[list, AccessCounter], "set[Row] | frozenset[Row]"]

#: how many compiled plans each executor keeps around
_COMPILED_CACHE_SIZE = 64



@dataclass
class ExecutionResult:
    """The outcome of executing a bounded plan.

    ``kernel_batches`` counts kernel invocations and ``rows_processed`` the
    total rows emitted across all steps.  ``executor_mode`` is always
    ``"row"``: the layered benchmark's tracer still files executions by it,
    and it goes when the harness stops reading it (ROADMAP item 1).

    ``env`` is the frozen per-step row environment, captured only when the
    caller asked for it (``capture_env=True``) — it is the
    memoized-intermediates handle the delta-maintenance path
    (:mod:`repro.core.deltas`) repairs cached results from.  A
    caller-supplied ``env_rows_budget`` skips capture for executions whose
    total intermediate volume would make freezing (and caching) a bad trade.
    """

    result: ResultSet
    counter: AccessCounter
    elapsed: float
    executor_mode: str = "row"
    kernel_batches: int = 0
    rows_processed: int = 0
    env: tuple[frozenset[Row], ...] | None = None

    @property
    def rows(self) -> frozenset[Row]:
        return self.result.rows

    @property
    def columns(self) -> tuple[str, ...]:
        return self.result.columns

    def access_ratio(self, database_size: int) -> float:
        """``P(D_Q)`` — fraction of the database accessed by this execution."""
        return self.counter.ratio(database_size)


@dataclass
class CompiledPlan:
    """A bounded plan lowered to per-step kernels, ready for repeated runs.

    The kernels exchange sets of row tuples through the environment; the
    freeze of the output step happens in :meth:`PlanExecutor.execute`.
    """

    plan: BoundedPlan
    kernels: tuple[Kernel, ...]
    columns: tuple[tuple[str, ...], ...]
    output: int
    #: the plan's :class:`~repro.core.deltas.RepairProgram`, attached by the
    #: first write settlement that reaches the plan (``None`` until then)
    repair: object | None = None


class PlanExecutor:
    """Executes bounded plans over a fetch source.

    ``source`` answers the plans' fetch steps: anything with
    ``fetcher(plan, step) -> fetch(distinct keys, counter)`` — an
    :class:`~repro.storage.index.IndexSet` or a
    :class:`~repro.sharding.router.ShardRouter`.  A fetch returns the
    distinct index rows of its keys as a ``set``, the kernels' intermediate.
    """

    def __init__(self, source):
        self.source = source
        self._compiled: OrderedDict[int, CompiledPlan] = OrderedDict()

    def execute(
        self,
        plan: BoundedPlan,
        counter: AccessCounter | None = None,
        *,
        capture_env: bool = False,
        env_rows_budget: int | None = None,
    ) -> ExecutionResult:
        """Run ``plan`` and return its result with exact access accounting.

        ``capture_env`` freezes every step's row set into
        :attr:`ExecutionResult.env` so the caller can cache the
        intermediates for delta repair; when ``env_rows_budget`` is given,
        capture is skipped (``env=None``) if the summed step cardinalities
        exceed it.
        """
        counter = counter if counter is not None else AccessCounter()
        compiled = self.compile(plan)
        started = time.perf_counter()
        env: list = [None] * len(compiled.kernels)
        for step_id, kernel in enumerate(compiled.kernels):
            env[step_id] = kernel(env, counter)
        result = ResultSet(
            columns=compiled.columns[compiled.output],
            rows=frozenset(env[compiled.output]),
        )
        rows_processed = sum(map(len, env))
        captured: tuple[frozenset[Row], ...] | None = None
        if capture_env and (env_rows_budget is None or rows_processed <= env_rows_budget):
            captured = tuple(
                step if isinstance(step, frozenset) else frozenset(step) for step in env
            )
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            result=result,
            counter=counter,
            elapsed=elapsed,
            kernel_batches=len(compiled.kernels),
            rows_processed=rows_processed,
            env=captured,
        )

    # ------------------------------------------------------------------
    def compile(self, plan: BoundedPlan) -> CompiledPlan:
        """Lower ``plan`` to kernels, memoized per plan object."""
        cached = self._compiled.get(id(plan))
        if cached is not None and cached.plan is plan:
            self._compiled.move_to_end(id(plan))
            return cached
        compiled = self._compile(plan)
        self._compiled[id(plan)] = compiled
        if len(self._compiled) > _COMPILED_CACHE_SIZE:
            self._compiled.popitem(last=False)
        return compiled

    def discard(self, plan: BoundedPlan) -> None:
        """Release the compiled kernels of ``plan``, if memoized.

        Called by the engine when a plan-store entry is displaced, so the
        executor does not pin kernels (and their closed-over index lookups)
        for plans that will never run again.
        """
        cached = self._compiled.get(id(plan))
        if cached is not None and cached.plan is plan:
            del self._compiled[id(plan)]

    def _compile(self, plan: BoundedPlan) -> CompiledPlan:
        kernels: list[Kernel] = []
        columns: list[tuple[str, ...]] = []
        for position, step in enumerate(plan.steps):
            if step.id != position:
                raise PlanError(
                    f"plan steps are not densely numbered: T{step.id} at position {position}"
                )
            kernel, step_columns = self._compile_step(plan, step, columns)
            kernels.append(kernel)
            columns.append(step_columns)
        if plan.output < 0 or plan.output >= len(kernels):
            raise PlanError(f"output step T{plan.output} does not exist")
        return CompiledPlan(
            plan=plan, kernels=tuple(kernels), columns=tuple(columns), output=plan.output
        )

    def _compile_step(
        self, plan: BoundedPlan, step: PlanStep, columns: list[tuple[str, ...]]
    ) -> tuple[Kernel, tuple[str, ...]]:
        op = step.op
        if isinstance(op, ConstOp):
            rows = frozenset({(op.value,)})
            return (lambda env, counter, _rows=rows: _rows), (op.column,)
        if isinstance(op, UnitOp):
            rows = frozenset({()})
            return (lambda env, counter, _rows=rows: _rows), ()
        if isinstance(op, FetchOp):
            return self._compile_fetch(plan, step, columns[op.inputs[0]])
        if isinstance(op, ProjectOp):
            return self._compile_project(step, columns[op.inputs[0]])
        if isinstance(op, SelectOp):
            source = op.inputs[0]
            matcher = _compile_predicates(op.predicates, columns[source])

            def select_kernel(env, counter, _src=source, _match=matcher):
                return {row for row in env[_src] if _match(row)}

            return select_kernel, columns[source]
        if isinstance(op, RenameOp):
            source = op.inputs[0]
            renamed = tuple(op.mapping.get(c, c) for c in columns[source])
            return (lambda env, counter, _src=source: env[_src]), renamed
        if isinstance(op, ProductOp):
            left, right = op.inputs

            def product_kernel(env, counter, _l=left, _r=right):
                right_rows = env[_r]
                return {lr + rr for lr in env[_l] for rr in right_rows}

            return product_kernel, columns[left] + columns[right]
        if isinstance(op, HashJoinOp):
            return self._compile_hash_join(step, columns)
        if isinstance(op, (UnionOp, DifferenceOp, IntersectOp)):
            left, right = op.inputs
            if len(columns[left]) != len(columns[right]):
                raise PlanError(
                    f"step T{step.id}: operands have arities {len(columns[left])} "
                    f"and {len(columns[right])}"
                )
            if isinstance(op, UnionOp):
                kernel: Kernel = lambda env, counter, _l=left, _r=right: env[_l] | env[_r]
            elif isinstance(op, DifferenceOp):
                kernel = lambda env, counter, _l=left, _r=right: env[_l] - env[_r]
            else:
                kernel = lambda env, counter, _l=left, _r=right: env[_l] & env[_r]
            return kernel, columns[left]
        raise PlanError(f"unknown plan operator {type(op).__name__} in step T{step.id}")

    def _compile_fetch(
        self, plan: BoundedPlan, step: PlanStep, source_columns: tuple[str, ...]
    ) -> tuple[Kernel, tuple[str, ...]]:
        op: FetchOp = step.op  # type: ignore[assignment]
        positions = column_positions(source_columns)
        key_positions = tuple(position_of(positions, c, step) for c in op.key_columns)
        source = op.inputs[0]
        fetch = self.source.fetcher(plan, step)
        # Fetch keys are tuples, however many positions: one key column is
        # wrapped by hand, several are picked at C speed.
        if len(key_positions) == 1:

            def fetch_kernel(env, counter, _src=source, _p=key_positions[0], _fetch=fetch):
                return _fetch({(row[_p],) for row in env[_src]}, counter)

        elif key_positions:

            def fetch_kernel(env, counter, _src=source, _key=itemgetter(*key_positions), _fetch=fetch):
                return _fetch(set(map(_key, env[_src])), counter)

        else:

            def fetch_kernel(env, counter, _src=source, _fetch=fetch):
                return _fetch({() for _ in env[_src]}, counter)

        # Index tuples are aligned with sorted(lhs | rhs); so are the step's columns.
        return fetch_kernel, step.columns

    def _compile_project(
        self, step: PlanStep, source_columns: tuple[str, ...]
    ) -> tuple[Kernel, tuple[str, ...]]:
        op: ProjectOp = step.op  # type: ignore[assignment]
        positions_by_name = column_positions(source_columns)
        positions = tuple(
            position_of(positions_by_name, c, step) for c in op.columns
        )
        names = op.output_names if op.output_names is not None else op.columns
        source = op.inputs[0]
        if positions == tuple(range(len(source_columns))):
            # Width-preserving projection: rows pass through untouched.
            return (lambda env, counter, _src=source: env[_src]), tuple(names)
        if len(positions) == 1:
            single = positions[0]

            def project_one(env, counter, _src=source, _p=single):
                return {(row[_p],) for row in env[_src]}

            return project_one, tuple(names)

        def project_kernel(env, counter, _src=source, _pick=itemgetter(*positions)):
            return set(map(_pick, env[_src]))

        return project_kernel, tuple(names)

    def _compile_hash_join(
        self, step: PlanStep, columns: list[tuple[str, ...]]
    ) -> tuple[Kernel, tuple[str, ...]]:
        op: HashJoinOp = step.op  # type: ignore[assignment]
        left, right = op.inputs
        left_columns, right_columns = columns[left], columns[right]
        left_positions = column_positions(left_columns)
        right_positions = column_positions(right_columns)
        build_positions = tuple(
            position_of(right_positions, r, step) for _, r in op.pairs
        )
        probe_positions = tuple(
            position_of(left_positions, l, step) for l, _ in op.pairs
        )
        combined = left_columns + right_columns
        # Residuals resolve against the joined row, first occurrence winning;
        # a predicate that reads one side only filters that side's input.
        width = len(left_columns)
        left_only, right_only, mixed = [], [], []
        for left_pos, operator, constant, right_pos in _resolve_predicates(
            op.residual, column_positions(combined)
        ):
            read = (left_pos,) if right_pos is None else (left_pos, right_pos)
            if max(read) < width:
                left_only.append((left_pos, operator, constant, right_pos))
            elif min(read) >= width:
                shifted = None if right_pos is None else right_pos - width
                right_only.append((left_pos - width, operator, constant, shifted))
            else:
                mixed.append((left_pos, operator, constant, right_pos))
        left_filter, right_filter, matcher = (
            _matcher(resolved) if resolved else None
            for resolved in (left_only, right_only, mixed)
        )

        # Both sides key alike: a scalar for one pair, a tuple for several.
        def join_kernel(
            env,
            counter,
            _l=left,
            _r=right,
            _probe=itemgetter(*probe_positions),
            _build=itemgetter(*build_positions),
            _left=left_filter,
            _right=right_filter,
            _match=matcher,
        ):
            buckets: dict = {}
            for row in env[_r] if _right is None else filter(_right, env[_r]):
                buckets.setdefault(_build(row), []).append(row)
            joined: set[Row] = set()
            if not buckets:
                return joined
            for row in env[_l] if _left is None else filter(_left, env[_l]):
                matches = buckets.get(_probe(row))
                if not matches:
                    continue
                if _match is None:
                    for other in matches:
                        joined.add(row + other)
                else:
                    for other in matches:
                        combined_row = row + other
                        if _match(combined_row):
                            joined.add(combined_row)
            return joined

        return join_kernel, combined


#: a predicate resolved to positions: (left, operator, constant, right or None)
Resolved = tuple[int, str, object, int | None]


def _resolve_predicates(
    predicates: Sequence[ColumnPredicate], positions: Mapping[str, int]
) -> list[Resolved]:
    resolved: list[Resolved] = []
    for predicate in predicates:
        try:
            left = positions[predicate.left]
            if isinstance(predicate.right, ColumnRef):
                resolved.append((left, predicate.op, None, positions[predicate.right.column]))
            else:
                resolved.append((left, predicate.op, predicate.right, None))
        except KeyError as missing:
            raise PlanError(
                f"predicate {predicate} references missing column {missing.args[0]!r}"
            ) from None
    return resolved


def _matcher(resolved: Sequence[Resolved]) -> Callable[[Row], bool]:
    """The conjunction of ``resolved`` as a row test.

    A lone ``column = constant`` is one comparison; everything else goes
    through :func:`~repro.evaluator.algebra._compare`, whose ordering
    operators match nothing over incomparable types.
    """
    if len(resolved) == 1:
        left_pos, operator, constant, right_pos = resolved[0]
        if operator == "=" and right_pos is None:
            return lambda row: row[left_pos] == constant

    def matches(row: Row) -> bool:
        for left_pos, operator, constant, right_pos in resolved:
            right_value = row[right_pos] if right_pos is not None else constant
            if not _compare(row[left_pos], operator, right_value):
                return False
        return True

    return matches


def _compile_predicates(
    predicates: Sequence[ColumnPredicate], columns: Sequence[str]
) -> Callable[[Row], bool]:
    return _matcher(_resolve_predicates(predicates, column_positions(columns)))


def execute_plan(
    plan: BoundedPlan,
    source,
    counter: AccessCounter | None = None,
) -> ExecutionResult:
    """Convenience wrapper around :class:`PlanExecutor`."""
    return PlanExecutor(source).execute(plan, counter)
