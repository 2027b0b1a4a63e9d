"""Vectorized columnar execution of bounded plans (the cold-path executor).

The row executor (:mod:`repro.evaluator.executor`) interprets every step
tuple-at-a-time over set intermediates: each fetched row is hashed into a
set, each selection calls a compiled matcher per row, each projection builds
a fresh tuple per row.  That is the dominant cost of a *cold* execution —
a result-cache miss that has to actually run the plan.

This module lowers the same plans to **batch-wise kernels** over a columnar
intermediate, :class:`ColumnBatch`:

* **Column arrays** — a step's output is a tuple of per-column Python lists
  plus an explicit row count, so projection and rename are column slicing
  (zero row copies) and transposition happens at C speed via ``zip``.
* **Set semantics without per-row set building** — batches whose
  construction guarantees distinctness (fetches: distinct keys yield
  disjoint distinct index tuples; selections and joins of distinct
  inputs) carry ``distinct=True`` and skip dedup entirely.  Only the
  duplicate-*creating* ops — narrowing projections and unions — dedup,
  with one C-speed ``zip`` transpose into ``dict.fromkeys`` instead of
  the row executor's per-row tuple hashing, keeping every intermediate
  exactly as large as the row executor's.
* **Vectorized selection** — predicates evaluate column-at-a-time into
  boolean masks combined with :func:`itertools.compress`; no per-row dict
  or tuple construction, no per-row matcher call.
* **Columnar hash join** — build/probe keys are materialized with one
  ``zip`` per side, the probe emits row *indices*, and output columns are
  gathered once per column.
* **Dictionary encoding** — string columns of fetch results are encoded as
  integer codes against per-index persistent :class:`Dictionary` instances
  (amortized across the repeated executions of a serving tier).  Equality
  selections then compare small ints — and a constant absent from the
  dictionary short-circuits to an empty batch without scanning — while
  joins whose two key columns share a dictionary probe on codes directly.
  Kernels that need real values (ordering comparisons, the final freeze)
  decode lazily.

The compiler mirrors :meth:`PlanExecutor._compile` step for step and is
invoked through the same :class:`~repro.evaluator.executor.CompiledPlan`
seam; the executor chooses the mode per plan (see
:func:`repro.core.optimizer.choose_executor_mode`).
"""

from __future__ import annotations

import operator
from itertools import chain, compress, product as iter_product, repeat
from typing import Callable, Collection, Sequence

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
from .algebra import _compare

Row = tuple

#: sentinel returned by a mask builder when no row can possibly match
_NO_MATCH = object()


class Dictionary:
    """An append-only value ↔ code mapping for one string column.

    Codes are dense ints assigned in first-seen order, so decoding is a list
    index.  Dictionaries are *persistent*: the executor keeps one per
    (constraint index, column) pair, so repeated executions re-encode against
    an already-populated table and the amortized cost per cell is one dict
    probe.  Encoding is injective, hence code equality is value equality —
    the property the equality-select and code-join kernels rely on.
    """

    __slots__ = ("codes", "values", "_translations")

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}
        self.values: list[str] = []
        #: id(other Dictionary) -> (code table, len(self) and len(other) at build)
        self._translations: dict[int, tuple[list, int, int]] = {}

    def __len__(self) -> int:
        return len(self.values)

    def encode_column(self, column: Sequence) -> list[int] | None:
        """Encode a column of strings, growing the dictionary as needed.

        Returns ``None`` (leaving the column unencoded) when a non-string
        value shows up — mixed-type columns stay plain.
        """
        codes = self.codes
        values = self.values
        # Steady-state fast path: every value already has a code, so the
        # whole encode is one C-level map.  (None is never a stored value —
        # only str columns are encoded — so it reliably marks misses.)
        out = list(map(codes.get, column))
        if None not in out:
            return out
        for position, code in enumerate(out):
            if code is None:
                value = column[position]
                code = codes.get(value)
                if code is None:
                    if not isinstance(value, str):
                        return None
                    code = len(values)
                    codes[value] = code
                    values.append(value)
                out[position] = code
        return out

    def decode_column(self, column: Sequence[int]) -> list[str]:
        # map(list.__getitem__) runs the decode loop in C.
        return list(map(self.values.__getitem__, column))

    def translate_column(self, column: Sequence[int], other: "Dictionary") -> list:
        """Re-encode codes of this dictionary into ``other``'s code space.

        Codes absent from ``other`` map to ``None`` (never a valid code, so
        a translated key can only match real ``other`` codes).  The
        translation table is cached per target dictionary and rebuilt only
        after either dictionary has grown — amortized over the serving
        tier's repeated executions, translation is one C-level ``map``.
        """
        cached = self._translations.get(id(other))
        if cached is None or cached[1] != len(self.values) or cached[2] != len(other.values):
            other_codes = other.codes
            table = [other_codes.get(value) for value in self.values]
            self._translations[id(other)] = (table, len(self.values), len(other.values))
        else:
            table = cached[0]
        return list(map(table.__getitem__, column))


class ColumnBatch:
    """A step result as per-column arrays: the columnar intermediate.

    ``data`` holds one list per column, all of ``length`` elements; a column
    with an entry in ``encodings`` stores :class:`Dictionary` codes instead
    of raw values.  ``distinct`` records whether the rows are known to be
    duplicate-free (construction-time knowledge, e.g. fetch output), letting
    set-operation kernels skip redundant dedups.  Column lists are treated
    as immutable — kernels share them freely across batches and never
    mutate one in place.
    """

    __slots__ = ("columns", "data", "encodings", "length", "distinct")

    def __init__(
        self,
        columns: tuple[str, ...],
        data: tuple[list, ...],
        encodings: tuple[Dictionary | None, ...],
        length: int,
        distinct: bool,
    ):
        self.columns = columns
        self.data = data
        self.encodings = encodings
        self.length = length
        self.distinct = distinct

    # -- construction ---------------------------------------------------------
    @classmethod
    def empty(cls, columns: tuple[str, ...]) -> "ColumnBatch":
        width = len(columns)
        return cls(columns, tuple([] for _ in range(width)), (None,) * width, 0, True)

    @classmethod
    def from_rows(
        cls, columns: tuple[str, ...], rows: Collection[Row], *, distinct: bool = False
    ) -> "ColumnBatch":
        """Transpose row tuples into a batch (one C-speed ``zip``)."""
        if not rows:
            return cls.empty(columns)
        width = len(columns)
        if width == 0:
            return cls(columns, (), (), len(rows), distinct)
        data = tuple(list(column) for column in zip(*rows))
        return cls(columns, data, (None,) * width, len(rows), distinct)

    # -- protocol -------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def decoded_column(self, position: int) -> list:
        """The raw values of one column (decoding codes when necessary)."""
        encoding = self.encodings[position]
        column = self.data[position]
        return encoding.decode_column(column) if encoding is not None else column

    def row_tuples(self, *, decode: bool = True) -> list[Row]:
        """The batch as row tuples; ``decode=False`` keeps dictionary codes."""
        if not self.columns:
            return [()] * self.length
        if decode and any(encoding is not None for encoding in self.encodings):
            columns = [
                encoding.decode_column(column) if encoding is not None else column
                for encoding, column in zip(self.encodings, self.data)
            ]
            return list(zip(*columns))
        return list(zip(*self.data))

    def to_frozenset(self) -> frozenset[Row]:
        """Freeze back to the row-set contract (the only mandatory dedup)."""
        return frozenset(self.row_tuples())


class ProductView:
    """A Cartesian product that is never materialized unless someone insists.

    Bounded plans lean heavily on the *candidate-verification* pattern: a
    cross product of small candidate domains is fetched against and then
    verified with a join over **all** of its columns.  Materializing that
    product costs O(∏ factor sizes × width) cells per execution even though
    its consumers only ever need the per-factor columns:

    * a **fetch** keyed on product columns needs the distinct key
      combinations, which for independent factors is just the cross product
      of small per-factor key sets (:meth:`key_tuples`);
    * a **verification join** whose pairs cover every product column is a
      per-factor semijoin — membership masks against per-factor sets — and
      its output's build columns are copies of the probe columns they were
      equated with (see ``ColumnarCompiler._compile_hash_join``).

    ``factors`` are ordinary (distinct) :class:`ColumnBatch` instances whose
    columns concatenate to ``columns``.  Renames re-label the view without
    touching the factors.  Consumers with no virtual path call
    :meth:`materialize` (cached).
    """

    __slots__ = ("columns", "factors", "length", "distinct", "_materialized")

    def __init__(self, columns: tuple[str, ...], factors: tuple[ColumnBatch, ...]):
        self.columns = columns
        self.factors = factors
        length = 1
        for factor in factors:
            length *= factor.length
        self.length = length
        self.distinct = all(factor.distinct for factor in factors)
        self._materialized: ColumnBatch | None = None

    def __len__(self) -> int:
        return self.length

    def key_tuples(self, factor_positions: Sequence[tuple[int, tuple[int, ...]]],
                   reorder: tuple[int, ...]) -> list[Row]:
        """Distinct tuples over selected columns, without expanding the product.

        ``factor_positions`` lists ``(factor index, local column positions)``
        per participating factor; ``reorder`` maps the concatenated
        per-factor value order back to the requested column order.  The
        result enumerates ∏ per-factor distinct combinations — the true
        number of distinct keys — instead of scanning ∏ factor sizes rows.
        """
        factor_sets = []
        for fi, locals_ in factor_positions:
            factor = self.factors[fi]
            if len(locals_) == 1:
                values = set(factor.decoded_column(locals_[0]))
                factor_sets.append([(value,) for value in values])
            else:
                factor_sets.append(
                    list(set(zip(*(factor.decoded_column(p) for p in locals_))))
                )
        keys: list[Row] = []
        append = keys.append
        for combo in iter_product(*factor_sets):
            flat = tuple(chain.from_iterable(combo))
            append(tuple(flat[p] for p in reorder))
        return keys

    def materialize(self) -> ColumnBatch:
        """Expand to a plain :class:`ColumnBatch` (cached per execution)."""
        batch = self._materialized
        if batch is not None:
            return batch
        if self.length == 0:
            batch = ColumnBatch.empty(self.columns)
        else:
            data: list[list] = []
            encodings: list[Dictionary | None] = []
            tile = 1  # rows contributed by factors to the left
            lengths = [factor.length for factor in self.factors]
            for index, factor in enumerate(self.factors):
                inner = 1  # repeats per element: product of lengths to the right
                for below in lengths[index + 1:]:
                    inner *= below
                for position, column in enumerate(factor.data):
                    if inner > 1:
                        column = list(
                            chain.from_iterable(map(repeat, column, repeat(inner)))
                        )
                    else:
                        column = list(column)
                    if tile > 1:
                        column = column * tile
                    data.append(column)
                    encodings.append(factor.encodings[position])
                tile *= factor.length
            batch = ColumnBatch(
                self.columns, tuple(data), tuple(encodings), self.length, self.distinct
            )
        self._materialized = batch
        return batch

    def to_frozenset(self) -> frozenset[Row]:
        return self.materialize().to_frozenset()


def _as_batch(value) -> ColumnBatch:
    """A plain batch for kernels with no virtual-product path."""
    return value.materialize() if type(value) is ProductView else value


#: a columnar kernel: (environment of prior batches, access counter) -> batch
ColumnKernel = Callable[[list, AccessCounter], ColumnBatch]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _resolve_predicates(
    predicates: Sequence[ColumnPredicate], columns: Sequence[str], step: PlanStep
) -> tuple[tuple[int, str, object, int | None], ...]:
    positions = column_positions(columns)
    resolved: list[tuple[int, str, object, int | None]] = []
    for predicate in predicates:
        left = position_of(positions, predicate.left, step)
        if isinstance(predicate.right, ColumnRef):
            right = position_of(positions, predicate.right.column, step)
            resolved.append((left, predicate.op, None, right))
        else:
            resolved.append((left, predicate.op, predicate.right, None))
    return tuple(resolved)


#: comparison ops as C-level callables for map()-vectorized masks
_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _predicate_mask(
    batch: ColumnBatch, left: int, op: str, constant: object, right: int | None
):
    """One predicate, vectorized: a bool list, ``None`` (all rows pass), or
    :data:`_NO_MATCH` (no row can pass — lets callers short-circuit).

    Masks are built with ``map`` over C-level :mod:`operator` callables —
    the per-element comparison loop never enters the interpreter."""
    compare = _OPERATORS[op]
    if right is None:
        if op == "=" or op == "!=":
            encoding = batch.encodings[left]
            column = batch.data[left]
            if encoding is not None:
                code = encoding.codes.get(constant)
                if code is None:
                    # The dictionary holds every value of this column, so an
                    # absent constant matches nothing — no scan needed.
                    return _NO_MATCH if op == "=" else None
                constant = code
            return list(map(compare, column, repeat(constant)))
        values = batch.decoded_column(left)
        try:
            return list(map(compare, values, repeat(constant)))
        except TypeError:
            # Mixed/incomparable types somewhere in the column: fall back to
            # the row evaluator's per-value semantics (non-matching).
            return [_compare(value, op, constant) for value in values]
    if (op == "=" or op == "!=") and batch.encodings[left] is batch.encodings[right]:
        left_values, right_values = batch.data[left], batch.data[right]
    else:
        left_values = batch.decoded_column(left)
        right_values = batch.decoded_column(right)
    try:
        return list(map(compare, left_values, right_values))
    except TypeError:
        return [
            _compare(a, op, b) for a, b in zip(left_values, right_values)
        ]


def _apply_predicates(
    batch: ColumnBatch, resolved: tuple[tuple[int, str, object, int | None], ...]
) -> ColumnBatch:
    """Filter a batch by a conjunction of vectorized predicates."""
    if batch.length == 0:
        return batch
    mask: list | None = None
    for left, op, constant, right in resolved:
        part = _predicate_mask(batch, left, op, constant, right)
        if part is None:
            continue
        if part is _NO_MATCH:
            return ColumnBatch.empty(batch.columns)
        mask = part if mask is None else list(map(operator.and_, mask, part))
    if mask is None:
        return batch
    kept = sum(mask)
    if kept == batch.length:
        return batch
    if kept == 0:
        return ColumnBatch.empty(batch.columns)
    data = tuple(list(compress(column, mask)) for column in batch.data)
    return ColumnBatch(batch.columns, data, batch.encodings, kept, batch.distinct)


def _factor_grouping(
    widths: Sequence[int], key_positions: Sequence[int]
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    """Map view-space column positions onto per-factor local positions.

    Returns ``(factor_positions, reorder)`` as consumed by
    :meth:`ProductView.key_tuples`: which factors participate (with their
    local column positions) and the permutation taking the concatenated
    per-factor value order back to ``key_positions`` order.
    """
    starts = []
    start = 0
    for width in widths:
        starts.append(start)
        start += width
    groups: dict[int, list[tuple[int, int]]] = {}
    for orig, position in enumerate(key_positions):
        for fi in range(len(widths) - 1, -1, -1):
            if position >= starts[fi] and position < starts[fi] + widths[fi]:
                groups.setdefault(fi, []).append((orig, position - starts[fi]))
                break
        else:
            raise PlanError(f"column position {position} outside product factors")
    factor_positions = []
    flat_orig: list[int] = []
    for fi in sorted(groups):
        entries = groups[fi]
        factor_positions.append((fi, tuple(local for _, local in entries)))
        flat_orig.extend(orig for orig, _ in entries)
    reorder = tuple(flat_orig.index(i) for i in range(len(key_positions)))
    return tuple(factor_positions), reorder


def _dedupe(batch: ColumnBatch) -> ColumnBatch:
    """Drop duplicate rows (one transpose + ``dict.fromkeys``).

    Operates on stored (possibly dictionary-coded) cells: encoding is
    injective per column, so code-tuple equality is value-tuple equality.
    Keeping intermediates distinct here — exactly where the row executor's
    set semantics would collapse them — prevents duplicates from
    multiplying through downstream joins and products.
    """
    if batch.distinct or batch.length <= 1:
        if not batch.distinct:
            return ColumnBatch(
                batch.columns, batch.data, batch.encodings, batch.length, True
            )
        return batch
    if not batch.columns:
        return ColumnBatch(batch.columns, (), (), 1, True)
    unique = dict.fromkeys(zip(*batch.data))
    if len(unique) == batch.length:
        return ColumnBatch(
            batch.columns, batch.data, batch.encodings, batch.length, True
        )
    data = tuple(list(column) for column in zip(*unique))
    return ColumnBatch(batch.columns, data, batch.encodings, len(unique), True)


class FetchEncoder:
    """Dictionary-encodes the string columns of one fetch step's output.

    Column eligibility is sniffed from the first batch and memoized;
    dictionaries are shared per (physical index, column) via the executor's
    persistent store, so the serving tier's repeated executions keep
    re-using the same code assignments.
    """

    def __init__(self, dictionaries: dict[int, Dictionary]):
        #: column position -> Dictionary, owned by the executor per physical index
        self._dictionaries = dictionaries
        self._eligible: dict[int, bool] = {}

    def __call__(self, batch: ColumnBatch) -> ColumnBatch:
        if batch.length == 0:
            return batch
        data = list(batch.data)
        encodings = list(batch.encodings)
        encoded = False
        for position, column in enumerate(data):
            eligible = self._eligible.get(position)
            if eligible is False:
                continue
            if eligible is None:
                eligible = isinstance(column[0], str)
                self._eligible[position] = eligible
                if not eligible:
                    continue
            dictionary = self._dictionaries.get(position)
            if dictionary is None:
                dictionary = self._dictionaries[position] = Dictionary()
            codes = dictionary.encode_column(column)
            if codes is None:  # mixed types discovered mid-column
                self._eligible[position] = False
                continue
            data[position] = codes
            encodings[position] = dictionary
            encoded = True
        if not encoded:
            return batch
        return ColumnBatch(
            batch.columns, tuple(data), tuple(encodings), batch.length, batch.distinct
        )


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

class ColumnarCompiler:
    """Lowers a :class:`BoundedPlan` to columnar kernels.

    ``source`` is the executor's fetch source (``fetcher(plan, step,
    batched=True)`` answers each fetch step's distinct keys in one call);
    ``encoder_factory(plan, step)`` returns the :class:`FetchEncoder` of a
    fetch step.
    """

    def __init__(self, plan: BoundedPlan, source, encoder_factory: Callable):
        self.plan = plan
        self._source = source
        self._encoder_factory = encoder_factory
        #: step id -> per-factor column widths, for steps that yield a
        #: ProductView at runtime (products and renames of products)
        self._factor_widths: dict[int, tuple[int, ...]] = {}

    def compile(self) -> tuple[tuple[ColumnKernel, ...], tuple[tuple[str, ...], ...]]:
        kernels: list[ColumnKernel] = []
        columns: list[tuple[str, ...]] = []
        for position, step in enumerate(self.plan.steps):
            if step.id != position:
                raise PlanError(
                    f"plan steps are not densely numbered: T{step.id} at position {position}"
                )
            kernel, step_columns = self._compile_step(step, columns)
            kernels.append(kernel)
            columns.append(step_columns)
        if self.plan.output < 0 or self.plan.output >= len(kernels):
            raise PlanError(f"output step T{self.plan.output} does not exist")
        return tuple(kernels), tuple(columns)

    # -- per-operator lowering -------------------------------------------------
    def _compile_step(
        self, step: PlanStep, columns: list[tuple[str, ...]]
    ) -> tuple[ColumnKernel, tuple[str, ...]]:
        op = step.op
        if isinstance(op, ConstOp):
            batch = ColumnBatch((op.column,), ([op.value],), (None,), 1, True)
            return (lambda env, counter, _b=batch: _b), (op.column,)
        if isinstance(op, UnitOp):
            batch = ColumnBatch((), (), (), 1, True)
            return (lambda env, counter, _b=batch: _b), ()
        if isinstance(op, FetchOp):
            return self._compile_fetch(step, columns[op.inputs[0]])
        if isinstance(op, SelectOp):
            source = op.inputs[0]
            resolved = _resolve_predicates(op.predicates, columns[source], step)

            def select_kernel(env, counter, _src=source, _preds=resolved):
                return _apply_predicates(_as_batch(env[_src]), _preds)

            return select_kernel, columns[source]
        if isinstance(op, ProjectOp):
            return self._compile_project(step, columns[op.inputs[0]])
        if isinstance(op, RenameOp):
            source = op.inputs[0]
            renamed = tuple(op.mapping.get(c, c) for c in columns[source])
            if source in self._factor_widths:
                # Renaming a virtual product re-labels the view, keeping it
                # virtual for the verification join downstream.
                self._factor_widths[step.id] = self._factor_widths[source]

                def rename_view_kernel(env, counter, _src=source, _cols=renamed):
                    view = env[_src]
                    if type(view) is not ProductView:
                        batch = view
                        return ColumnBatch(
                            _cols,
                            batch.data,
                            batch.encodings,
                            batch.length,
                            batch.distinct,
                        )
                    return ProductView(_cols, view.factors)

                return rename_view_kernel, renamed

            def rename_kernel(env, counter, _src=source, _cols=renamed):
                batch = _as_batch(env[_src])
                return ColumnBatch(
                    _cols, batch.data, batch.encodings, batch.length, batch.distinct
                )

            return rename_kernel, renamed
        if isinstance(op, ProductOp):
            return self._compile_product(step, columns)
        if isinstance(op, HashJoinOp):
            return self._compile_hash_join(step, columns)
        if isinstance(op, (UnionOp, DifferenceOp, IntersectOp)):
            return self._compile_set_op(step, columns)
        raise PlanError(f"unknown plan operator {type(op).__name__} in step T{step.id}")

    def _compile_fetch(
        self, step: PlanStep, source_columns: tuple[str, ...]
    ) -> tuple[ColumnKernel, tuple[str, ...]]:
        op: FetchOp = step.op  # type: ignore[assignment]
        fetch = self._source.fetcher(self.plan, step, batched=True)
        positions = column_positions(source_columns)
        key_positions = tuple(position_of(positions, c, step) for c in op.key_columns)
        source = op.inputs[0]
        out_columns = step.columns
        encoder = self._encoder_factory(self.plan, step)
        widths = self._factor_widths.get(source)
        if widths is not None and key_positions:
            # Source is a virtual product: enumerate the distinct key cross
            # product from the (small) factors instead of scanning the
            # expanded rows.
            grouping = _factor_grouping(widths, key_positions)

            def fetch_view_kernel(
                env,
                counter,
                _src=source,
                _grouping=grouping,
                _kp=key_positions,
                _fetch=fetch,
                _out=out_columns,
                _encode=encoder,
            ):
                view = env[_src]
                if view.length == 0:
                    return ColumnBatch.empty(_out)
                if type(view) is not ProductView:
                    keys = set(zip(*(view.decoded_column(p) for p in _kp)))
                else:
                    keys = view.key_tuples(*_grouping)
                return _encode(
                    ColumnBatch.from_rows(_out, _fetch(keys, counter), distinct=True)
                )

            return fetch_view_kernel, out_columns

        def fetch_kernel(
            env,
            counter,
            _src=source,
            _kp=key_positions,
            _fetch=fetch,
            _out=out_columns,
            _encode=encoder,
        ):
            batch: ColumnBatch = env[_src]
            if batch.length == 0:
                return ColumnBatch.empty(_out)
            if not _kp:
                keys: Collection[Row] = ((),)
            elif len(_kp) == 1:
                keys = set(zip(batch.decoded_column(_kp[0])))
            else:
                keys = set(zip(*(batch.decoded_column(p) for p in _kp)))
            # Distinct keys fetch disjoint groups of distinct index tuples
            # (every tuple embeds its key), so the batch is distinct as built.
            return _encode(
                ColumnBatch.from_rows(_out, _fetch(keys, counter), distinct=True)
            )

        return fetch_kernel, out_columns

    def _compile_project(
        self, step: PlanStep, source_columns: tuple[str, ...]
    ) -> tuple[ColumnKernel, tuple[str, ...]]:
        op: ProjectOp = step.op  # type: ignore[assignment]
        positions_by_name = column_positions(source_columns)
        positions = tuple(position_of(positions_by_name, c, step) for c in op.columns)
        names = tuple(op.output_names if op.output_names is not None else op.columns)
        source = op.inputs[0]
        # Distinctness survives permutations of the full column set; a
        # narrowing projection may collapse rows and must dedup so that
        # duplicates cannot multiply through downstream joins/products.
        keeps_distinct = (
            len(positions) == len(source_columns)
            and set(positions) == set(range(len(source_columns)))
        )

        def project_kernel(
            env, counter, _src=source, _ps=positions, _names=names, _keep=keeps_distinct
        ):
            batch: ColumnBatch = _as_batch(env[_src])
            data = tuple(batch.data[p] for p in _ps)
            encodings = tuple(batch.encodings[p] for p in _ps)
            projected = ColumnBatch(
                _names, data, encodings, batch.length, batch.distinct and _keep
            )
            return projected if _keep else _dedupe(projected)

        return project_kernel, names

    def _compile_product(
        self, step: PlanStep, columns: list[tuple[str, ...]]
    ) -> tuple[ColumnKernel, tuple[str, ...]]:
        op: ProductOp = step.op  # type: ignore[assignment]
        left, right = op.inputs
        out_columns = columns[left] + columns[right]
        left_widths = self._factor_widths.get(left, (len(columns[left]),))
        right_widths = self._factor_widths.get(right, (len(columns[right]),))
        self._factor_widths[step.id] = left_widths + right_widths

        def product_kernel(env, counter, _l=left, _r=right, _out=out_columns):
            lb = env[_l]
            rb = env[_r]
            left_factors = lb.factors if type(lb) is ProductView else (lb,)
            right_factors = rb.factors if type(rb) is ProductView else (rb,)
            return ProductView(_out, left_factors + right_factors)

        return product_kernel, out_columns

    def _compile_hash_join(
        self, step: PlanStep, columns: list[tuple[str, ...]]
    ) -> tuple[ColumnKernel, tuple[str, ...]]:
        op: HashJoinOp = step.op  # type: ignore[assignment]
        left, right = op.inputs
        left_columns, right_columns = columns[left], columns[right]
        left_positions = column_positions(left_columns)
        right_positions = column_positions(right_columns)
        probe_positions = tuple(
            position_of(left_positions, l, step) for l, _ in op.pairs
        )
        build_positions = tuple(
            position_of(right_positions, r, step) for _, r in op.pairs
        )
        out_columns = left_columns + right_columns
        residual = (
            _resolve_predicates(op.residual, out_columns, step) if op.residual else ()
        )
        widths = self._factor_widths.get(right)
        if widths is not None and set(build_positions) == set(
            range(len(right_columns))
        ):
            # Verification join over a virtual product: the pairs equate
            # EVERY build column with a probe column, so a matching build
            # row is fully determined by the probe row — the join reduces
            # to per-factor membership masks (a semijoin) and the output's
            # build columns are copies of their probe partners.  The
            # product is never expanded.
            pair_map = tuple(zip(probe_positions, build_positions))
            starts = []
            offset = 0
            for width in widths:
                starts.append(offset)
                offset += width
            grouped: dict[int, list[tuple[int, int]]] = {}
            for probe_position, build_position in pair_map:
                for fi in range(len(widths) - 1, -1, -1):
                    if starts[fi] <= build_position < starts[fi] + widths[fi]:
                        grouped.setdefault(fi, []).append(
                            (probe_position, build_position - starts[fi])
                        )
                        break
            factor_groups = tuple(
                (fi, tuple(grouped[fi])) for fi in sorted(grouped)
            )
            # One probe column per build column: equal by the join condition,
            # so the output's build columns are copies of these.
            build_source = tuple(
                next(pp for pp, bp in pair_map if bp == position)
                for position in range(len(right_columns))
            )
            # Fallback grouping when the build side arrives materialized:
            # one pseudo-factor holding all pairs at view-space positions.
            flat_group = ((0, pair_map),)

            def semijoin_kernel(
                env,
                counter,
                _l=left,
                _r=right,
                _groups=factor_groups,
                _flat=flat_group,
                _sources=build_source,
                _out=out_columns,
                _residual=residual,
            ):
                lb = _as_batch(env[_l])
                view = env[_r]
                if lb.length == 0 or view.length == 0:
                    return ColumnBatch.empty(_out)
                if type(view) is ProductView:
                    factors = view.factors
                    groups = _groups
                else:
                    factors = (view,)
                    groups = _flat
                mask = None
                for fi, fpairs in groups:
                    factor = factors[fi]
                    pair_columns = [
                        _key_columns(lb, factor, pp, lp) for pp, lp in fpairs
                    ]
                    if len(pair_columns) == 1:
                        probe_keys, build_column = pair_columns[0]
                        build_set = set(build_column)
                    else:
                        probe_keys = list(
                            zip(*(probe for probe, _ in pair_columns))
                        )
                        build_set = set(zip(*(build for _, build in pair_columns)))
                    part = list(map(build_set.__contains__, probe_keys))
                    mask = (
                        part
                        if mask is None
                        else list(map(operator.and_, mask, part))
                    )
                kept = sum(mask)
                if kept == 0:
                    return ColumnBatch.empty(_out)
                if kept == lb.length:
                    probe_data = lb.data
                else:
                    probe_data = tuple(
                        list(compress(column, mask)) for column in lb.data
                    )
                data = probe_data + tuple(probe_data[src] for src in _sources)
                encodings = lb.encodings + tuple(
                    lb.encodings[src] for src in _sources
                )
                joined = ColumnBatch(_out, data, encodings, kept, lb.distinct)
                if _residual:
                    joined = _apply_predicates(joined, _residual)
                return joined

            return semijoin_kernel, out_columns

        def join_kernel(
            env,
            counter,
            _l=left,
            _r=right,
            _probe=probe_positions,
            _build=build_positions,
            _out=out_columns,
            _residual=residual,
        ):
            lb: ColumnBatch = _as_batch(env[_l])
            rb: ColumnBatch = _as_batch(env[_r])
            if lb.length == 0 or rb.length == 0:
                return ColumnBatch.empty(_out)
            probe_keys, build_keys = _join_keys(lb, rb, _probe, _build)
            data, length = _hash_join_gather(lb, rb, probe_keys, build_keys)
            if length == 0:
                return ColumnBatch.empty(_out)
            joined = ColumnBatch(
                _out,
                data,
                lb.encodings + rb.encodings,
                length,
                lb.distinct and rb.distinct,
            )
            if _residual:
                joined = _apply_predicates(joined, _residual)
            return joined

        return join_kernel, out_columns

    def _compile_set_op(
        self, step: PlanStep, columns: list[tuple[str, ...]]
    ) -> tuple[ColumnKernel, tuple[str, ...]]:
        op = step.op
        left, right = op.inputs
        if len(columns[left]) != len(columns[right]):
            raise PlanError(
                f"step T{step.id}: operands have arities {len(columns[left])} "
                f"and {len(columns[right])}"
            )
        out_columns = columns[left]
        if isinstance(op, UnionOp):

            def union_kernel(env, counter, _l=left, _r=right, _out=out_columns):
                lb: ColumnBatch = _as_batch(env[_l])
                rb: ColumnBatch = _as_batch(env[_r])
                if rb.length == 0:
                    return ColumnBatch(
                        _out, lb.data, lb.encodings, lb.length, lb.distinct
                    )
                if lb.length == 0:
                    return ColumnBatch(
                        _out, rb.data, rb.encodings, rb.length, rb.distinct
                    )
                if all(le is re for le, re in zip(lb.encodings, rb.encodings)):
                    data = tuple(lc + rc for lc, rc in zip(lb.data, rb.data))
                    encodings = lb.encodings
                else:
                    data = tuple(
                        lb.decoded_column(i) + rb.decoded_column(i)
                        for i in range(len(_out))
                    )
                    encodings = (None,) * len(_out)
                return _dedupe(
                    ColumnBatch(_out, data, encodings, lb.length + rb.length, False)
                )

            return union_kernel, out_columns

        subtract = isinstance(op, DifferenceOp)

        def set_kernel(env, counter, _l=left, _r=right, _out=out_columns, _sub=subtract):
            lb: ColumnBatch = _as_batch(env[_l])
            rb: ColumnBatch = _as_batch(env[_r])
            if rb.length == 0:
                if _sub:
                    return ColumnBatch(
                        _out, lb.data, lb.encodings, lb.length, lb.distinct
                    )
                return ColumnBatch.empty(_out)
            if lb.length == 0:
                return ColumnBatch.empty(_out)
            shared = all(le is re for le, re in zip(lb.encodings, rb.encodings))
            left_rows = lb.row_tuples(decode=not shared)
            right_rows = set(rb.row_tuples(decode=not shared))
            encodings = lb.encodings if shared else (None,) * len(_out)
            if _sub:
                rows = [row for row in dict.fromkeys(left_rows) if row not in right_rows]
            else:
                rows = [row for row in dict.fromkeys(left_rows) if row in right_rows]
            if not rows:
                return ColumnBatch.empty(_out)
            if not _out:
                return ColumnBatch(_out, (), (), len(rows), True)
            data = tuple(list(column) for column in zip(*rows))
            return ColumnBatch(_out, data, encodings, len(rows), True)

        return set_kernel, out_columns


def _hash_join_gather(
    lb: ColumnBatch,
    rb: ColumnBatch,
    probe_keys: Sequence,
    build_keys: Sequence,
) -> tuple[tuple[list, ...], int]:
    """Match probe keys against build keys and gather the joined columns.

    Returns ``(data, row_count)``.  Two fast paths keep the match loop in C:
    when either side's keys are duplicate-free, the whole join is one
    ``dict(zip(...))`` build plus one ``map(.get)`` probe plus per-column
    gathers.  Only genuinely many-to-many joins pay the per-row bucket loop,
    and even there the output indices are built with list comprehensions
    rather than per-match ``append`` calls.
    """
    build_map = dict(zip(build_keys, range(rb.length)))
    if len(build_map) == rb.length:
        # Build side unique: each probe row matches at most one build row.
        hits = list(map(build_map.get, probe_keys))
        mask = [j is not None for j in hits]
        matched = sum(mask)
        if matched == 0:
            return (), 0
        right_take = [j for j in hits if j is not None]
        if matched == len(probe_keys):
            left_data = tuple(lb.data)
        else:
            left_data = tuple(list(compress(column, mask)) for column in lb.data)
        right_data = tuple(
            list(map(column.__getitem__, right_take)) for column in rb.data
        )
        return left_data + right_data, matched
    probe_map = dict(zip(probe_keys, range(lb.length)))
    if len(probe_map) == lb.length:
        # Probe side unique: swap roles (output order differs, sets don't care).
        hits = list(map(probe_map.get, build_keys))
        mask = [i is not None for i in hits]
        matched = sum(mask)
        if matched == 0:
            return (), 0
        left_take = [i for i in hits if i is not None]
        left_data = tuple(
            list(map(column.__getitem__, left_take)) for column in lb.data
        )
        if matched == len(build_keys):
            right_data = tuple(rb.data)
        else:
            right_data = tuple(list(compress(column, mask)) for column in rb.data)
        return left_data + right_data, matched
    # Many-to-many: classic bucketed join.
    buckets: dict = {}
    setdefault = buckets.setdefault
    for j, key in enumerate(build_keys):
        setdefault(key, []).append(j)
    matches = list(map(buckets.get, probe_keys))
    left_take = [
        i for i, bucket in enumerate(matches) if bucket is not None for _ in bucket
    ]
    if not left_take:
        return (), 0
    right_take = [j for bucket in matches if bucket is not None for j in bucket]
    data = tuple(
        list(map(column.__getitem__, left_take)) for column in lb.data
    ) + tuple(list(map(column.__getitem__, right_take)) for column in rb.data)
    return data, len(left_take)


def _join_keys(
    lb: ColumnBatch,
    rb: ColumnBatch,
    probe_positions: tuple[int, ...],
    build_positions: tuple[int, ...],
):
    """Probe/build key sequences that compare correctly across encodings.

    Shared dictionary → raw codes; two different dictionaries → translate
    probe codes into build codes via a cached table; one coded side →
    lift the raw side into the coded side's code space with one
    ``map(codes.get)``.  A value absent from the target dictionary maps to
    ``None``, which never equals a real code, so misses simply don't join.
    Every path keeps the key loop in C and joins on small ints whenever a
    dictionary is involved."""
    if len(probe_positions) == 1:
        return _key_columns(lb, rb, probe_positions[0], build_positions[0])
    left_columns: list = []
    right_columns: list = []
    for p, b in zip(probe_positions, build_positions):
        left, right = _key_columns(lb, rb, p, b)
        left_columns.append(left)
        right_columns.append(right)
    if not left_columns:  # degenerate: no equality pairs -> everything matches
        return [()] * lb.length, [()] * rb.length
    return list(zip(*left_columns)), list(zip(*right_columns))


def _key_columns(lb: ColumnBatch, rb: ColumnBatch, p: int, b: int):
    """Comparable key columns for one probe/build column pair."""
    left_enc, right_enc = lb.encodings[p], rb.encodings[b]
    if left_enc is right_enc:  # same dictionary, or both raw
        return lb.data[p], rb.data[b]
    if left_enc is not None and right_enc is not None:
        return left_enc.translate_column(lb.data[p], right_enc), rb.data[b]
    if right_enc is not None:
        return list(map(right_enc.codes.get, lb.data[p])), rb.data[b]
    return lb.data[p], list(map(left_enc.codes.get, rb.data[b]))
