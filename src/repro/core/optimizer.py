"""Peephole optimization of bounded plans.

``QPlan`` emits deliberately naive canonical plans: every join is a Cartesian
product followed by a selection, every indexed surrogate carries all the
columns of its fetch, unit fetching plans are materialized even when nothing
consumes them, and the same fetch/project combination can appear several
times.  :func:`optimize_plan` rewrites such a plan into a cheaper but
semantically identical one.  One backward pass finds, for every step, the
columns something downstream reads; one forward pass emits the steps again,
applying:

* **hash-join fusion** — ``σ(T × T')`` whose condition equates columns across
  the two sides becomes a :class:`~repro.core.plan.HashJoinOp`, turning the
  ``O(|T|·|T'|)`` product into a hash lookup;
* **selection fusion** — stacked selections collapse into one predicate list;
* **projection composition** — stacked projections compose into a single
  projection, projections over renames are rewritten to project directly from
  the pre-rename step, and identity projections/renames disappear;
* **column pruning** — a step is *needed* for the columns its consumers read:
  a selection or join reads its predicate columns and whatever is needed of
  it, a projection or rename the sources of its needed columns, a fetch all
  of its input, the answer every column of the output step.  Every projection
  but the output keeps only its needed columns (in its own order), and each
  input of a join or product is routed through a projection onto the columns
  read of it — *only when the static bounds prove that projection can have
  fewer rows than its input*: the product of the kept columns' distinct-value
  bounds is below the input's row bound (:func:`~repro.core.plan.step_bounds`,
  Example 1's arithmetic).  Plans are sets of rows, so a projection
  deduplicates: ``π[region, year](districts ⋈ accidents)`` joins at most 27
  ``(district, year)`` pairs instead of 13 500 accidents.  A point plan, whose
  fetches all return one row, provably cannot shrink and keeps its steps.
  Set operators pair columns by position and a duplicated column name hides
  all but its first position, so both keep every column; nothing is dropped
  from a fetch or from the steps its keys come from, so ``fetch_steps()``,
  ``dependency_relations()`` and ``access_bound()`` are those of the
  canonical plan;
* **common-subplan deduplication** — structurally identical steps are
  hash-consed so shared work executes once;
* **dead-step elimination** — steps unreachable from the output are dropped.

Every rewrite is purely structural; the optimized plan stays a valid
:class:`~repro.core.plan.BoundedPlan` (``validate()`` is re-run on the
result), keeps the same access schema and occurrence mapping, and computes
row-for-row the same output as the input plan.
"""

from __future__ import annotations

from dataclasses import replace

from .plan import (
    BoundedPlan,
    ColumnPredicate,
    ColumnRef,
    ConstOp,
    DifferenceOp,
    FetchOp,
    HashJoinOp,
    IntersectOp,
    PlanOp,
    PlanStep,
    ProductOp,
    ProjectOp,
    RenameOp,
    SelectOp,
    UnionOp,
    UnitOp,
    step_bounds,
)


def _op_key(op: PlanOp):
    """A hashable structural key for hash-consing, or ``None`` if unavailable."""
    if isinstance(op, ConstOp):
        return ("const", op.value, op.column)
    if isinstance(op, UnitOp):
        return ("unit",)
    if isinstance(op, FetchOp):
        return ("fetch", op.constraint, op.key_columns, op.inputs)
    if isinstance(op, ProjectOp):
        return ("proj", op.columns, op.output_names, op.inputs)
    if isinstance(op, SelectOp):
        return ("sel", op.predicates, op.inputs)
    if isinstance(op, RenameOp):
        return ("ren", tuple(sorted(op.mapping.items())), op.inputs)
    if isinstance(op, HashJoinOp):
        return ("hjoin", op.pairs, op.residual, op.inputs)
    if isinstance(op, ProductOp):
        return ("prod", op.inputs)
    if isinstance(op, UnionOp):
        return ("union", op.inputs)
    if isinstance(op, DifferenceOp):
        return ("diff", op.inputs)
    if isinstance(op, IntersectOp):
        return ("isect", op.inputs)
    return None  # pragma: no cover - future operators


def _predicate_columns(predicates: tuple[ColumnPredicate, ...]) -> set[str]:
    """Every column a conjunction of predicates compares."""
    columns = {p.left for p in predicates}
    columns.update(p.right.column for p in predicates if isinstance(p.right, ColumnRef))
    return columns


class _PeepholeRewriter:
    """Backward column analysis, forward emission with hash-consing, dead-step sweep.

    ``needed`` maps every step the output depends on to the columns of it that
    some consumer reads (:meth:`_needed_columns`); emission skips the steps it
    leaves out.  An emitted step's columns are always a subsequence of its
    canonical step's columns that includes everything needed of it, so the
    names the canonical consumers use still resolve, and to the same values.
    ``bounds`` / ``rows`` are the static bounds of the emitted steps
    (:func:`~repro.core.plan.step_bounds`), which is what a projection
    inserted below a join is judged against.
    """

    def __init__(self, plan: BoundedPlan):
        self.plan = plan
        #: per canonical step: no column name occurs twice, a name is one position
        self._distinct = [len(set(step.columns)) == len(step.columns) for step in plan.steps]
        self.needed = self._needed_columns()
        self.ops: list[PlanOp] = []
        self.columns: list[tuple[str, ...]] = []
        self.comments: list[str] = []
        self.bounds: list[dict[str, int]] = []
        self.rows: list[int] = []
        self._cse: dict = {}

    # -- columns needed downstream --------------------------------------------
    def _prunable(self, step: PlanStep) -> bool:
        """Whether every column of ``step`` and of its inputs can be told apart by name.

        Among duplicated names only the first is reachable by name, while a
        positional consumer downstream may still read the others: such a step
        keeps every column.
        """
        return self._distinct[step.id] and all(self._distinct[i] for i in step.op.inputs)

    def _kept(self, step: PlanStep, needed: set[str]) -> list[tuple[str, str]]:
        """The ``(source column, output name)`` pairs projection ``step`` keeps.

        In the step's own order; one column stays when none is read, because
        whether the step has a row at all still decides what a product
        with it returns.
        """
        op: ProjectOp = step.op  # type: ignore[assignment]
        names = op.output_names if op.output_names is not None else op.columns
        pairs = list(zip(op.columns, names))
        if not self._prunable(step):
            return pairs
        return [pair for pair in pairs if pair[1] in needed] or pairs[:1]

    def _reads(self, step: PlanStep, needed: set[str]) -> tuple:
        """The columns ``step`` reads of each input when ``needed`` of its own are read."""
        op = step.op
        if isinstance(op, ProjectOp):
            return ([column for column, _ in self._kept(step, needed)],)
        if self._prunable(step):
            if isinstance(op, SelectOp):
                return (needed | _predicate_columns(op.predicates),)
            if isinstance(op, RenameOp):
                source = self.plan.steps[op.inputs[0]].columns
                return ([c for c in source if op.mapping.get(c, c) in needed],)
            if isinstance(op, ProductOp):
                return (needed, needed)
            if isinstance(op, HashJoinOp):
                read = needed | _predicate_columns(op.residual)
                read.update(column for pair in op.pairs for column in pair)
                return (read, read)
        # a set operator pairs columns by position, a fetch keeps its key source as
        # it is, ambiguous names are not pruned: all of every input
        return tuple(self.plan.steps[i].columns for i in op.inputs)

    def _needed_columns(self) -> dict[int, set[str]]:
        """Backward pass: step id -> the columns of it read downstream.

        Only steps the output depends on get an entry, and the answer reads
        every column of the output step.
        """
        steps = self.plan.steps
        needed = {self.plan.output: set(steps[self.plan.output].columns)}
        for step in reversed(steps):
            if step.id in needed:
                for input_id, read in zip(step.op.inputs, self._reads(step, needed[step.id])):
                    needed.setdefault(input_id, set()).update(read)
        return needed

    # -- emission -------------------------------------------------------------
    def _emit(self, op: PlanOp, columns: tuple[str, ...], comment: str) -> int:
        key = _op_key(op)
        if key is not None:
            try:
                cached = self._cse.get(key)
            except TypeError:  # unhashable constant somewhere in the op
                key = None
            else:
                if cached is not None:
                    return cached
        step_id = len(self.ops)
        bounds, rows = step_bounds(op, columns, self.bounds, self.rows)
        self.ops.append(op)
        self.columns.append(tuple(columns))
        self.comments.append(comment)
        self.bounds.append(bounds)
        self.rows.append(rows)
        if key is not None:
            self._cse[key] = step_id
        return step_id

    def _emit_select(
        self, predicates: tuple[ColumnPredicate, ...], source: int, comment: str
    ) -> int:
        if not predicates:
            return source
        inner = self.ops[source]
        if isinstance(inner, SelectOp):
            return self._emit_select(inner.predicates + predicates, inner.inputs[0], comment)
        if isinstance(inner, ProductOp):
            fused = self._fuse_product(inner, predicates, comment)
            if fused is not None:
                return fused
        if isinstance(inner, HashJoinOp):
            merged = self._merge_into_join(inner, predicates, comment)
            if merged is not None:
                return merged
        return self._emit(
            SelectOp(predicates=predicates, inputs=(source,)), self.columns[source], comment
        )

    def _emit_join(self, op: ProductOp | HashJoinOp, comment: str) -> int:
        left, right = op.inputs
        return self._emit(op, self.columns[left] + self.columns[right], comment)

    def _pruned_input(self, source: int, read: set[str], join: PlanStep) -> int:
        """``source``, or its projection onto the columns ``join`` and its consumers read.

        The projection is inserted only when the static bounds prove it can
        have fewer rows than ``source``: the product of the kept columns'
        distinct-value bounds is below the row bound (the ``ProjectOp``
        arithmetic of :func:`~repro.core.plan.step_bounds`).  Otherwise it
        could only copy its input, and the unread columns ride along.
        """
        columns = self.columns[source]
        kept = tuple(c for c in columns if c in read) or columns[:1]
        if kept == columns:
            return source
        projection = ProjectOp(columns=kept, inputs=(source,))
        if step_bounds(projection, kept, self.bounds, self.rows)[1] >= self.rows[source]:
            return source
        return self._emit_project(
            kept, kept, source, f"pruned for {join.comment or join.op.describe()}"
        )

    def _split_join_condition(
        self,
        predicates: tuple[ColumnPredicate, ...],
        left_columns: tuple[str, ...],
        right_columns: tuple[str, ...],
    ) -> tuple[list[tuple[str, str]], list[ColumnPredicate]] | None:
        """Partition predicates into cross-side equality pairs and a residual.

        Returns ``None`` when a column name appears on both sides, in which
        case name-based classification would be ambiguous and fusion is
        skipped.
        """
        left_set, right_set = set(left_columns), set(right_columns)
        if left_set & right_set:
            return None
        pairs: list[tuple[str, str]] = []
        residual: list[ColumnPredicate] = []
        for predicate in predicates:
            if predicate.op == "=" and isinstance(predicate.right, ColumnRef):
                left, right = predicate.left, predicate.right.column
                if left in left_set and right in right_set:
                    pairs.append((left, right))
                    continue
                if left in right_set and right in left_set:
                    pairs.append((right, left))
                    continue
            residual.append(predicate)
        return pairs, residual

    def _fuse_product(
        self, product: ProductOp, predicates: tuple[ColumnPredicate, ...], comment: str
    ) -> int | None:
        left, right = product.inputs
        split = self._split_join_condition(
            predicates, self.columns[left], self.columns[right]
        )
        if split is None:
            return None
        pairs, residual = split
        if not pairs:
            return None
        op = HashJoinOp(
            pairs=tuple(pairs), residual=tuple(residual), inputs=(left, right)
        )
        return self._emit_join(op, comment or "fused hash join")

    def _merge_into_join(
        self, join: HashJoinOp, predicates: tuple[ColumnPredicate, ...], comment: str
    ) -> int | None:
        left, right = join.inputs
        split = self._split_join_condition(
            predicates, self.columns[left], self.columns[right]
        )
        if split is None:  # pragma: no cover - joins are only fused when unambiguous
            return None
        pairs, residual = split
        op = HashJoinOp(
            pairs=join.pairs + tuple(pairs),
            residual=join.residual + tuple(residual),
            inputs=join.inputs,
        )
        return self._emit_join(op, comment or "fused hash join")

    def _emit_project(
        self,
        columns: tuple[str, ...],
        output_names: tuple[str, ...],
        source: int,
        comment: str,
    ) -> int:
        inner = self.ops[source]
        source_columns = self.columns[source]
        if isinstance(inner, ProjectOp):
            inner_names = (
                inner.output_names if inner.output_names is not None else inner.columns
            )
            origin: dict[str, str] = {}
            for name, col in zip(inner_names, inner.columns):
                origin.setdefault(name, col)
            if all(c in origin for c in columns):
                return self._emit_project(
                    tuple(origin[c] for c in columns),
                    output_names,
                    inner.inputs[0],
                    comment,
                )
        if isinstance(inner, RenameOp):
            # Push the projection below the rename only when every post-rename
            # column name is unique: the executor resolves names positionally
            # (first match wins), so a rename target colliding with a
            # pass-through column (or duplicated source names) would make the
            # name-based inverse pick a different column than execution would.
            pre_rename = self.columns[inner.inputs[0]]
            post_rename = tuple(inner.mapping.get(c, c) for c in pre_rename)
            if len(set(post_rename)) == len(post_rename) and all(
                c in post_rename for c in columns
            ):
                inverse = {new: old for new, old in zip(post_rename, pre_rename)}
                return self._emit_project(
                    tuple(inverse[c] for c in columns),
                    output_names,
                    inner.inputs[0],
                    comment,
                )
        if (
            columns == source_columns
            and output_names == source_columns
            and len(set(source_columns)) == len(source_columns)
        ):
            return source  # identity projection (unambiguous names only)
        names = None if output_names == columns else output_names
        return self._emit(
            ProjectOp(columns=columns, inputs=(source,), output_names=names),
            output_names,
            comment,
        )

    # -- the pass -------------------------------------------------------------
    def rewrite(self) -> tuple[dict[int, int], int]:
        remap: dict[int, int] = {}
        for step in self.plan.steps:
            needed = self.needed.get(step.id)
            if needed is None:
                continue  # nothing the output depends on reads this step
            op = step.op
            inputs = tuple(remap[i] for i in op.inputs)
            if isinstance(op, SelectOp):
                remap[step.id] = self._emit_select(op.predicates, inputs[0], step.comment)
            elif isinstance(op, ProjectOp):
                kept = self._kept(step, needed)
                remap[step.id] = self._emit_project(
                    tuple(column for column, _ in kept),
                    tuple(name for _, name in kept),
                    inputs[0],
                    step.comment,
                )
            elif isinstance(op, RenameOp):
                source_columns = self.columns[inputs[0]]
                mapping = {o: n for o, n in op.mapping.items() if o in source_columns}
                if all(old == new for old, new in mapping.items()):
                    remap[step.id] = inputs[0]
                else:
                    remap[step.id] = self._emit(
                        RenameOp(mapping=mapping, inputs=inputs),
                        tuple(mapping.get(c, c) for c in source_columns),
                        step.comment,
                    )
            elif isinstance(op, (ProductOp, HashJoinOp)):
                if self._prunable(step):
                    read = self._reads(step, needed)[0]
                    inputs = tuple(self._pruned_input(i, read, step) for i in inputs)
                remap[step.id] = self._emit_join(replace(op, inputs=inputs), step.comment)
            else:
                remap[step.id] = self._emit(
                    replace(op, inputs=inputs), step.columns, step.comment
                )
        return remap, remap[self.plan.output]

    def sweep(self, output: int) -> tuple[list[PlanStep], dict[int, int], int]:
        """Drop steps unreachable from ``output`` and renumber the survivors."""
        reachable: set[int] = set()
        stack = [output]
        while stack:
            node = stack.pop()
            if node in reachable:
                continue
            reachable.add(node)
            stack.extend(self.ops[node].inputs)
        final: dict[int, int] = {}
        steps: list[PlanStep] = []
        for old_id in sorted(reachable):
            new_id = len(steps)
            final[old_id] = new_id
            op = self.ops[old_id]
            steps.append(
                PlanStep(
                    id=new_id,
                    op=replace(op, inputs=tuple(final[i] for i in op.inputs)),
                    columns=self.columns[old_id],
                    comment=self.comments[old_id],
                )
            )
        return steps, final, final[output]


#: Read by nothing in ``src/``: the layered benchmark imports it as the
#: access bound from which a shape counts as wide.  It picked the columnar
#: kernel family until that family was deleted, and goes when the harness
#: classes shapes by something else (ROADMAP item 1).
COLUMNAR_BOUND_THRESHOLD = 4000


def optimize_plan(plan: BoundedPlan) -> BoundedPlan:
    """Return an optimized, semantically equivalent copy of ``plan``."""
    rewriter = _PeepholeRewriter(plan)
    remap, output = rewriter.rewrite()
    steps, final, new_output = rewriter.sweep(output)

    def _surviving(mapping) -> dict[str, int]:
        return {
            key: final[remap[step_id]]
            for key, step_id in mapping.items()
            if remap.get(step_id) in final
        }

    optimized = BoundedPlan(
        steps=steps,
        output=new_output,
        access_schema=plan.access_schema,
        fetch_plans=_surviving(plan.fetch_plans),
        surrogates=_surviving(plan.surrogates),
        occurrences=dict(plan.occurrences),
    )
    optimized.validate()
    return optimized
