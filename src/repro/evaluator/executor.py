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

Plans are executed in two phases.  ``compile`` lowers a plan to a **run
schedule** — one kernel closure per step that does work, with all
name-to-position resolution, predicate compilation and index lookup done
once up front — and ``execute`` runs the schedule over a copy of the plan's
environment template, freezing only the output step into the returned
:class:`~repro.evaluator.algebra.ResultSet`.  A compiled plan is kept on
the plan object it was lowered from (:attr:`BoundedPlan.compiled
<repro.core.plan.BoundedPlan.compiled>`), for the executor that lowered it:
the hot path of :class:`~repro.core.engine.BoundedEngine` executes the same
stored plan over and over, so a warm execution does no per-step
interpretation work beyond running the kernels, and the kernels live
exactly as long as whatever holds the plan.

The schedule fuses the glue between fetches.  A bounded plan touches data
only in its fetch steps, and about half of its other steps are constants
and projections, so a step-per-kernel run paid a call, a slot and a fresh
set for each of them:

* a step that is not a fetch and whose inputs are all template slots runs
  once, at compile time, and its rows are prefilled in the environment
  template: a ``ConstOp`` or ``UnitOp`` (no inputs), and whatever is
  computed from constants alone, such as a projection of a ``ConstOp``;
* a ``ProjectOp`` whose only consumer is a fetch is that fetch's key
  extraction: the fetch reads the projection's input through the composed
  positions, so it probes the same distinct keys;
* a fetch whose keys are read off a template slot (a point plan's first
  fetch, keyed by the query's constants) has its distinct keys extracted at
  compile time, into a frozenset its kernel hands the source on every run
  (and the source is told, so a federation routes them once); the fetch
  itself still runs per read;
* a ``HashJoinOp`` whose only consumer is a ``ProjectOp`` (the output step
  included) is run by the projection's kernel, which emits projected rows.

**The environment contract.**  An environment has one slot per plan step.
Every fetch keeps its own kernel and slot, holding the distinct index rows
it fetched, which is what write settlement (:mod:`repro.core.deltas`) reads
and re-runs.  A fused-away step's slot stays ``None``; a ``CompiledPlan``
says where each fetch's keys are read from (:attr:`CompiledPlan.keys`).
Template slots are frozensets shared by every run of the plan, so no kernel
may mutate an input: each builds a new set or hands its input on as it is.

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


@dataclass
class ExecutionResult:
    """The outcome of executing a bounded plan.

    ``kernel_batches`` counts the scheduled kernels the run invoked (one per
    step that is neither prefilled nor fused away) and ``rows_processed``
    the rows held by the environment's filled slots: the template's and the
    scheduled kernels'.  ``executor_mode`` is always ``"row"``: the layered
    benchmark's tracer still files executions by it, and it goes when the
    harness stops reading it (ROADMAP item 1).

    ``env`` is the frozen per-step row environment, captured only when the
    caller asked for it (``capture_env=True``) — it is the
    memoized-intermediates handle the delta-maintenance path
    (:mod:`repro.core.deltas`) repairs cached results from.  It has a slot
    per plan step; a fused-away step's is ``None`` (the module docstring's
    environment contract).  A caller-supplied ``env_rows_budget`` skips
    capture for executions whose total intermediate volume would make
    freezing (and caching) a bad trade.
    """

    result: ResultSet
    counter: AccessCounter
    elapsed: float
    executor_mode: str = "row"
    kernel_batches: int = 0
    rows_processed: int = 0
    env: tuple[frozenset[Row] | None, ...] | None = None

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
    """A bounded plan lowered to a run schedule, ready for repeated runs.

    A run copies ``template`` (the slots computed at compile time, ``None``
    elsewhere) and runs ``schedule`` in order: each ``(slot, kernel)`` fills
    ``env[slot]`` from the slots in the matching entry of ``reads``.  The
    freeze of the output step happens in :meth:`PlanExecutor.execute`.
    ``plan`` and ``executor`` are what it was lowered from and by: the
    kernels read that executor's fetch source.
    """

    plan: BoundedPlan
    executor: "PlanExecutor"
    schedule: tuple[tuple[int, Kernel], ...]
    #: per scheduled kernel, the slots it reads (a fused step's inputs included)
    reads: tuple[tuple[int, ...], ...]
    template: tuple[frozenset[Row] | None, ...]
    columns: tuple[tuple[str, ...], ...]
    output: int
    #: per fetch step, ``(the slot its keys are read off, their positions in
    #: that slot's rows)``: its input's, or where a projection fused into the
    #: fetch, that projection's input's
    keys: Mapping[int, tuple[int, tuple[int, ...]]]
    #: the plan's :class:`~repro.core.deltas.RepairProgram`, attached by the
    #: first write settlement that reaches the plan (``None`` until then)
    repair: object | None = None


class PlanExecutor:
    """Executes bounded plans over a fetch source.

    ``source`` answers the plans' fetch steps: anything with
    ``fetcher(plan, step, keys) -> fetch(distinct keys, counter)`` — an
    :class:`~repro.storage.index.IndexSet` or a
    :class:`~repro.sharding.router.ShardRouter`.  ``keys`` is the step's
    constant key set when its keys are fixed at compile time (the kernel
    then hands ``fetch`` that very set on every run), else ``None``.  A
    fetch returns the distinct index rows of its keys as a ``set``, the
    kernels' intermediate.
    """

    def __init__(self, source):
        self.source = source

    def execute(
        self,
        plan: BoundedPlan,
        counter: AccessCounter | None = None,
        *,
        capture_env: bool = False,
        env_rows_budget: int | None = None,
    ) -> ExecutionResult:
        """Run ``plan`` and return its result with exact access accounting.

        ``capture_env`` freezes every filled slot's row set into
        :attr:`ExecutionResult.env` so the caller can cache the
        intermediates for delta repair; when ``env_rows_budget`` is given,
        capture is skipped (``env=None``) if the filled slots' rows exceed
        it.
        """
        counter = counter if counter is not None else AccessCounter()
        compiled = self.compile(plan)
        started = time.perf_counter()
        env = list(compiled.template)
        for slot, kernel in compiled.schedule:
            env[slot] = kernel(env, counter)
        result = ResultSet(
            columns=compiled.columns[compiled.output],
            rows=frozenset(env[compiled.output]),
        )
        # (an empty set adds nothing, so dropping it with the None slots is free)
        rows_processed = sum(map(len, filter(None, env)))
        captured: tuple[frozenset[Row] | None, ...] | None = None
        if capture_env and (env_rows_budget is None or rows_processed <= env_rows_budget):
            captured = tuple(
                step if step is None or isinstance(step, frozenset) else frozenset(step)
                for step in env
            )
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            result=result,
            counter=counter,
            elapsed=elapsed,
            kernel_batches=len(compiled.schedule),
            rows_processed=rows_processed,
            env=captured,
        )

    # ------------------------------------------------------------------
    def compile(self, plan: BoundedPlan) -> CompiledPlan:
        """Lower ``plan`` to its run schedule, kept on the plan.

        The schedule on the plan is reused when this executor lowered it from
        this very plan object (a copy of a plan carries its original's);
        otherwise the plan is lowered again and keeps the new one.
        """
        compiled = plan.compiled
        if compiled is None or compiled.executor is not self or compiled.plan is not plan:
            compiled = plan.compiled = self._compile(plan)
        return compiled

    def _compile(self, plan: BoundedPlan) -> CompiledPlan:
        steps = plan.steps
        consumers: list[list[int]] = [[] for _ in steps]
        for position, step in enumerate(steps):
            if step.id != position:
                raise PlanError(
                    f"plan steps are not densely numbered: T{step.id} at position {position}"
                )
            for source in step.op.inputs:  # earlier steps: ``BoundedPlan.validate``
                consumers[source].append(position)
        if plan.output < 0 or plan.output >= len(steps):
            raise PlanError(f"output step T{plan.output} does not exist")
        consumers[plan.output].append(-1)  # the caller reads the output
        # A step is fused into its consumer when that consumer is its only
        # reader: a join into a projection, a projection of anything but a
        # fused join into a fetch's key extraction.
        fused: set[int] = set()
        for step, readers in zip(steps, consumers):
            if len(readers) != 1 or readers[0] < 0:
                continue
            consumer = steps[readers[0]].op
            if isinstance(step.op, HashJoinOp) and isinstance(consumer, ProjectOp):
                fused.add(step.id)
            elif (
                isinstance(step.op, ProjectOp)
                and isinstance(consumer, FetchOp)
                and step.op.inputs[0] not in fused
            ):
                fused.add(step.id)

        template: list[frozenset[Row] | None] = [None] * len(steps)
        columns: list[tuple[str, ...]] = []
        schedule: list[tuple[int, Kernel]] = []
        reads: list[tuple[int, ...]] = []
        keys: dict[int, tuple[int, tuple[int, ...]]] = {}
        for step in steps:
            op = step.op
            if step.id in fused:
                columns.append(_fused_columns(step, columns))
                continue
            if isinstance(op, FetchOp):
                kernel, keys[step.id] = self._compile_fetch(plan, step, columns, fused, template)
                read = (keys[step.id][0],)
                step_columns = step.columns
            elif isinstance(op, ProjectOp) and op.inputs[0] in fused:
                join = steps[op.inputs[0]]
                positions, step_columns = _projection(step, columns[join.id])
                kernel = _compile_hash_join(join, columns, positions)
                read = join.op.inputs
            else:
                kernel, step_columns = _compile_step(step, columns)
                read = op.inputs
            columns.append(step_columns)
            if not isinstance(op, FetchOp) and all(template[r] is not None for r in read):
                # Computed from constants alone: the rows are fixed, so the
                # kernel runs here, once (a fetch reads data, and runs per read).
                template[step.id] = frozenset(kernel(template, None))
                continue
            schedule.append((step.id, kernel))
            reads.append(read)
        return CompiledPlan(
            plan=plan,
            executor=self,
            schedule=tuple(schedule),
            reads=tuple(reads),
            template=tuple(template),
            columns=tuple(columns),
            output=plan.output,
            keys=keys,
        )

    def _compile_fetch(
        self,
        plan: BoundedPlan,
        step: PlanStep,
        columns: list[tuple[str, ...]],
        fused: set[int],
        template: list[frozenset[Row] | None],
    ) -> tuple[Kernel, tuple[int, tuple[int, ...]]]:
        op: FetchOp = step.op  # type: ignore[assignment]
        source = op.inputs[0]
        positions = column_positions(columns[source])
        key_positions = tuple(position_of(positions, c, step) for c in op.key_columns)
        if source in fused:
            # The projection feeding only this fetch: pick the keys straight
            # off its input.  A projection is a function of the row, so the
            # distinct keys are the ones the projected rows would give.
            project = plan.steps[source]
            source = project.op.inputs[0]
            picked, _ = _projection(project, columns[source])
            key_positions = tuple(picked[p] for p in key_positions)
        # Keys read off a template slot are fixed: extract them here, once,
        # and tell the source, which may settle more of the fetch for them.
        constant = None
        if template[source] is not None:
            constant = frozenset(map(_picker(key_positions), template[source]))
        fetch = self.source.fetcher(plan, step, constant)
        # Fetch keys are tuples, however many positions: one key column is
        # wrapped by hand, several are picked at C speed.
        if constant is not None:

            def fetch_kernel(env, counter, _keys=constant, _fetch=fetch):
                return _fetch(_keys, counter)

        elif len(key_positions) == 1:

            def fetch_kernel(env, counter, _src=source, _p=key_positions[0], _fetch=fetch):
                return _fetch({(row[_p],) for row in env[_src]}, counter)

        elif key_positions:

            def fetch_kernel(env, counter, _src=source, _key=itemgetter(*key_positions), _fetch=fetch):
                return _fetch(set(map(_key, env[_src])), counter)

        else:

            def fetch_kernel(env, counter, _src=source, _fetch=fetch):
                return _fetch({() for _ in env[_src]}, counter)

        # Index tuples are aligned with sorted(lhs | rhs); so are the step's columns.
        return fetch_kernel, (source, key_positions)


def _projection(step: PlanStep, source_columns: tuple[str, ...]) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """A ``ProjectOp`` step's positions in its input's rows, and its output names."""
    op: ProjectOp = step.op  # type: ignore[assignment]
    by_name = column_positions(source_columns)
    positions = tuple(position_of(by_name, c, step) for c in op.columns)
    return positions, tuple(op.output_names if op.output_names is not None else op.columns)


def _fused_columns(step: PlanStep, columns: list[tuple[str, ...]]) -> tuple[str, ...]:
    """The columns of a step its consumer computes: a projection's or a join's."""
    op = step.op
    if isinstance(op, ProjectOp):
        return _projection(step, columns[op.inputs[0]])[1]
    left, right = op.inputs
    return columns[left] + columns[right]


def _compile_step(step: PlanStep, columns: list[tuple[str, ...]]) -> tuple[Kernel, tuple[str, ...]]:
    """The kernel of a step that reads only materialized slots, and its columns."""
    op = step.op
    if isinstance(op, ConstOp):
        return (lambda env, counter: {(op.value,)}), (op.column,)
    if isinstance(op, UnitOp):
        return (lambda env, counter: {()}), ()
    if isinstance(op, ProjectOp):
        source = op.inputs[0]
        positions, names = _projection(step, columns[source])
        if positions == tuple(range(len(columns[source]))):
            # Width-preserving projection: rows pass through untouched.
            return (lambda env, counter, _src=source: env[_src]), names
        if len(positions) == 1:

            def project_one(env, counter, _src=source, _p=positions[0]):
                return {(row[_p],) for row in env[_src]}

            return project_one, names

        def project_kernel(env, counter, _src=source, _pick=_picker(positions)):
            return set(map(_pick, env[_src]))

        return project_kernel, names
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
        left, right = op.inputs
        return _compile_hash_join(step, columns), columns[left] + columns[right]
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


def _picker(positions: tuple[int, ...]) -> Callable[[Row], Row]:
    """``row -> the tuple of its values at positions``, however many there are."""
    if len(positions) == 1:
        single = positions[0]
        return lambda row: (row[single],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _compile_hash_join(
    step: PlanStep, columns: list[tuple[str, ...]], project: tuple[int, ...] | None = None
) -> Kernel:
    """A ``HashJoinOp`` step's kernel; with ``project``, that of π∘⋈, emitting
    each joined row's values at those positions."""
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
    if project == tuple(range(len(combined))):
        project = None  # width-preserving: the joined rows as they are
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
        _pick=None if project is None else _picker(project),
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
                if _pick is None:
                    for other in matches:
                        joined.add(row + other)
                else:
                    for other in matches:
                        joined.add(_pick(row + other))
            else:
                for other in matches:
                    combined_row = row + other
                    if _match(combined_row):
                        joined.add(combined_row if _pick is None else _pick(combined_row))
        return joined

    return join_kernel


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
