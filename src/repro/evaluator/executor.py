"""Execution of bounded query plans (``evalQP``).

The executor runs a :class:`~repro.core.plan.BoundedPlan` over a **fetch
source**.  Data is accessed **only** through ``fetch`` steps, and a fetch
step is the only place substrates differ: at compile time the source turns
``(plan, step)`` into ``fetch(distinct keys, counter) -> rows`` — lookups on
one constraint index for a local :class:`~repro.storage.index.IndexSet`,
scatter/gather over the owning shards for a
:class:`~repro.sharding.router.ShardRouter`.  Both kernel families consume
that one seam, so every substrate runs the same kernels; every access is
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

Two execution modes share the :class:`CompiledPlan` seam:

* **row** — the original tuple-at-a-time kernels over mutable-set
  intermediates (best for tiny/point plans, where batch setup would
  dominate);
* **columnar** — the batch-wise kernels of :mod:`repro.evaluator.columnar`
  over :class:`~repro.evaluator.columnar.ColumnBatch` intermediates (the
  cold-path fast mode: vectorized selection, columnar hash joins, zero-copy
  projection, dictionary-encoded string columns).

The executor's ``mode`` is ``"row"``, ``"columnar"``, or ``"auto"``, in
which case :func:`repro.core.optimizer.choose_executor_mode` picks per plan
from its static bounds.  Both modes produce identical frozen row sets — a
property pinned by the randomized equivalence tests.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from operator import itemgetter
from dataclasses import dataclass, field
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
from .columnar import ColumnarCompiler, FetchEncoder

Row = tuple

#: a compiled plan step: (environment of prior step results, counter) -> rows
Kernel = Callable[[list, AccessCounter], "set[Row] | frozenset[Row]"]

#: how many compiled plans each executor keeps around
_COMPILED_CACHE_SIZE = 64

#: valid executor modes ("auto" resolves per plan at compile time)
EXECUTOR_MODES = ("auto", "row", "columnar")


@dataclass
class ExecutionResult:
    """The outcome of executing a bounded plan.

    ``executor_mode`` names the kernel family that ran (``"row"`` or
    ``"columnar"``); ``kernel_batches`` counts kernel invocations and
    ``rows_processed`` the total rows emitted across all steps, so the
    optimizer's row-vs-columnar choices are auditable per execution.
    ``step_cardinalities`` breaks ``rows_processed`` down per step.

    ``env`` is the frozen per-step row environment, captured only when the
    caller asked for it (``capture_env=True``) — it is the
    memoized-intermediates handle the delta-maintenance path
    (:mod:`repro.core.deltas`) repairs cached results from.  Columnar
    intermediates are frozen back to row sets (``to_frozenset``), which both
    kernel families produce identically per step; a caller-supplied
    ``env_rows_budget`` skips capture for executions whose total
    intermediate volume would make freezing (and caching) a bad trade —
    notably virtual cross-products the columnar executor never materializes.
    """

    result: ResultSet
    counter: AccessCounter
    elapsed: float
    step_cardinalities: Mapping[int, int] = field(default_factory=dict)
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

    ``mode`` records which kernel family the plan was lowered to: ``"row"``
    kernels exchange sets of row tuples through the environment,
    ``"columnar"`` kernels exchange :class:`~repro.evaluator.columnar.
    ColumnBatch` instances.  The freeze back to the row-set contract happens
    in :meth:`PlanExecutor.execute`, so every consumer downstream of the
    executor sees identical results either way.
    """

    plan: BoundedPlan
    kernels: tuple[Kernel, ...]
    columns: tuple[tuple[str, ...], ...]
    output: int
    mode: str = "row"
    #: the plan's :class:`~repro.core.deltas.RepairProgram`, attached by the
    #: first write settlement that reaches the plan (``None`` until then)
    repair: object | None = None


class PlanExecutor:
    """Executes bounded plans over a fetch source.

    ``source`` answers the plans' fetch steps: anything with
    ``fetcher(plan, step, *, batched) -> fetch(distinct keys, counter)`` —
    an :class:`~repro.storage.index.IndexSet` or a
    :class:`~repro.sharding.router.ShardRouter`.  A fetch returns the distinct
    index rows of its keys: a ``set`` (the row kernels' intermediate) unless
    ``batched``, when any sized collection will do.  ``mode`` selects the kernel
    family plans are lowered to: ``"row"``, ``"columnar"``, or ``"auto"``
    (per-plan cost-based choice via
    :func:`repro.core.optimizer.choose_executor_mode`).
    """

    def __init__(self, source, *, mode: str = "row"):
        if mode not in EXECUTOR_MODES:
            raise PlanError(
                f"unknown executor mode {mode!r}; expected one of {EXECUTOR_MODES}"
            )
        self.source = source
        self.mode = mode
        self._compiled: OrderedDict[int, CompiledPlan] = OrderedDict()
        #: (base relation, lhs, rhs) -> {column position -> Dictionary}: the
        #: persistent dictionaries of columnar fetches, one set per physical
        #: index however many occurrences or plans fetch through it
        self._fetch_dictionaries: dict[tuple, dict] = {}
        self._counters = {
            "row_executions": 0,
            "columnar_executions": 0,
            "kernel_batches": 0,
            "rows_processed": 0,
            "auto_row_choices": 0,
            "auto_columnar_choices": 0,
        }

    def stats(self) -> dict[str, int]:
        """Cumulative executor observability: executions by mode, kernel
        batches run, rows processed, and how ``auto`` resolved per compile."""
        return dict(self._counters)

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
        cardinalities: dict[int, int] = {}
        for step_id, kernel in enumerate(compiled.kernels):
            rows = kernel(env, counter)
            env[step_id] = rows
            cardinalities[step_id] = len(rows)
        output = env[compiled.output]
        result = ResultSet(
            columns=compiled.columns[compiled.output],
            rows=output.to_frozenset()
            if compiled.mode == "columnar"
            else frozenset(output),
        )
        rows_processed = sum(cardinalities.values())
        captured: tuple[frozenset[Row], ...] | None = None
        if capture_env and (env_rows_budget is None or rows_processed <= env_rows_budget):
            captured = tuple(
                step.to_frozenset()
                if compiled.mode == "columnar"
                else (step if isinstance(step, frozenset) else frozenset(step))
                for step in env
            )
        elapsed = time.perf_counter() - started
        self._counters[f"{compiled.mode}_executions"] += 1
        self._counters["kernel_batches"] += len(compiled.kernels)
        self._counters["rows_processed"] += rows_processed
        return ExecutionResult(
            result=result,
            counter=counter,
            elapsed=elapsed,
            step_cardinalities=cardinalities,
            executor_mode=compiled.mode,
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

        Called by the engine when a plan-store entry is invalidated, so the
        executor does not pin kernels (and their closed-over index lookups)
        for plans that will never run again.
        """
        cached = self._compiled.get(id(plan))
        if cached is not None and cached.plan is plan:
            del self._compiled[id(plan)]

    def _resolve_mode(self, plan: BoundedPlan) -> str:
        """The kernel family for ``plan``: forced, or cost-chosen for auto."""
        if self.mode != "auto":
            return self.mode
        from ..core.optimizer import choose_executor_mode  # lazy: avoids a cycle

        mode = choose_executor_mode(plan)
        self._counters[f"auto_{mode}_choices"] += 1
        return mode

    def _encoder_for(self, plan: BoundedPlan, step: PlanStep) -> FetchEncoder:
        constraint = step.op.constraint
        shape = (plan.base_relation(constraint), constraint.lhs, constraint.rhs)
        return FetchEncoder(self._fetch_dictionaries.setdefault(shape, {}))

    def _compile(self, plan: BoundedPlan) -> CompiledPlan:
        mode = self._resolve_mode(plan)
        if mode == "columnar":
            compiler = ColumnarCompiler(plan, self.source, self._encoder_for)
            kernels, columns = compiler.compile()
            return CompiledPlan(
                plan=plan,
                kernels=kernels,
                columns=columns,
                output=plan.output,
                mode="columnar",
            )
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
        fetch = self.source.fetcher(plan, step, batched=False)
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
        matcher = _compile_predicates(op.residual, combined) if op.residual else None

        # Both sides key alike: a scalar for one pair, a tuple for several.
        def join_kernel(
            env,
            counter,
            _l=left,
            _r=right,
            _probe=itemgetter(*probe_positions),
            _build=itemgetter(*build_positions),
            _match=matcher,
        ):
            buckets: dict = {}
            for row in env[_r]:
                buckets.setdefault(_build(row), []).append(row)
            joined: set[Row] = set()
            for row in env[_l]:
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


def _compile_predicates(
    predicates: Sequence[ColumnPredicate], columns: Sequence[str]
):
    positions = column_positions(columns)
    compiled: list[tuple[int, str, object, int | None]] = []
    for predicate in predicates:
        try:
            left = positions[predicate.left]
            if isinstance(predicate.right, ColumnRef):
                compiled.append((left, predicate.op, None, positions[predicate.right.column]))
            else:
                compiled.append((left, predicate.op, predicate.right, None))
        except KeyError as missing:
            raise PlanError(
                f"predicate {predicate} references missing column {missing.args[0]!r}"
            ) from None

    def matches(row: Row) -> bool:
        for left_pos, op, constant, right_pos in compiled:
            right_value = row[right_pos] if right_pos is not None else constant
            if not _compare(row[left_pos], op, right_value):
                return False
        return True

    return matches


def execute_plan(
    plan: BoundedPlan,
    source,
    counter: AccessCounter | None = None,
    *,
    mode: str = "row",
) -> ExecutionResult:
    """Convenience wrapper around :class:`PlanExecutor`."""
    return PlanExecutor(source, mode=mode).execute(plan, counter)
