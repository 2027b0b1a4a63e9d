"""Constraint indexes (Section 7, "Building indices I_A").

For each access constraint ``R(X → Y, N)`` the framework materializes the
partial table ``T_XY = π_{XY}(D_R)`` hashed on ``X``.  Given an ``X``-value,
the index returns the distinct ``XY``-values by accessing at most ``N``
tuples.  :class:`IndexSet` manages the indexes of a whole access schema,
checks that the data actually satisfies the constraints, and supports the
bounded incremental maintenance of Proposition 12.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Sequence

from ..core.access import AccessConstraint, AccessSchema
from ..core.errors import ConstraintViolation, PlanError, StorageError
from .counters import AccessCounter
from .relation import RelationInstance, Row, projector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import BoundedPlan, PlanStep

#: a fetch step's data access, resolved at compile time:
#: ``(distinct keys, counter) -> distinct index rows``
Fetch = Callable[[Collection[Row], AccessCounter], set[Row]]


class ConstraintIndex:
    """The hash index of one access constraint over one relation instance."""

    def __init__(self, constraint: AccessConstraint, relation: RelationInstance):
        if constraint.relation != relation.schema.name:
            raise StorageError(
                f"constraint {constraint} does not apply to relation {relation.schema.name!r}"
            )
        self.constraint = constraint
        self.relation_name = relation.schema.name
        self.lhs = tuple(sorted(constraint.lhs))
        self.rhs = tuple(sorted(constraint.rhs))
        self.columns = tuple(sorted(constraint.lhs | constraint.rhs))
        #: a base row's ``X``-value and its ``XY``-value, compiled once
        self._key = projector(relation.schema.positions(self.lhs))
        self._value = projector(relation.schema.positions(self.columns))
        #: key -> {projected XY-value -> number of base tuples projecting to it}.
        #: The reference counts make deletions O(1): a value is dropped exactly
        #: when its last witness tuple goes away, with no relation scan.
        self._entries: dict[Row, dict[Row, int]] = {}
        for row in relation:
            self._add_row(row)

    # -- maintenance ---------------------------------------------------------------
    def _add_row(self, row: Row) -> None:
        group = self._entries.setdefault(self._key(row), {})
        value = self._value(row)
        group[value] = group.get(value, 0) + 1

    def add_row(self, row: Row) -> None:
        """Reflect an inserted base-relation tuple in the index (O(1)).

        Callers must only report *new* base tuples (set semantics): reporting
        the same tuple twice would double-count its witness.
        """
        self._add_row(row)

    def remove_row(self, row: Row) -> None:
        """Reflect a deleted base-relation tuple in the index (O(1)).

        The projected ``XY``-value is dropped only when its reference count
        hits zero, i.e. no remaining tuple of the relation still projects to
        it.
        """
        key = self._key(row)
        group = self._entries.get(key)
        if not group:
            return
        value = self._value(row)
        count = group.get(value)
        if count is None:
            return
        if count > 1:
            group[value] = count - 1
            return
        del group[value]
        if not group:
            del self._entries[key]

    # -- lookups --------------------------------------------------------------------
    def lookup(self, key: Sequence, counter: AccessCounter | None = None) -> tuple[Row, ...]:
        """``D_XY(X = key)``: distinct ``XY``-values for a given ``X``-value.

        Each returned tuple is aligned with :attr:`columns`.  At most ``N``
        tuples are accessed when the data satisfies the constraint; the access
        is recorded on ``counter`` if provided.
        """
        values = self._entries.get(tuple(key))
        result = tuple(values) if values else ()
        if counter is not None:
            counter.record_fetch(self.relation_name, len(result))
        return result

    def lookup_many(
        self, keys: Collection[Row], counter: AccessCounter | None = None
    ) -> set[Row]:
        """The distinct ``XY``-values of many ``X``-values: a fetch step's gather.

        Accounting equals a :meth:`lookup` per key, duplicate keys included
        (one probe per key, each group's tuples counted once per key that
        asks for it; no keys, nothing recorded), in one counter record.  The
        non-empty groups are walked once; a group is a dict, so ``set.update``
        reuses its stored hashes and each fetched row is hashed once, when it
        was indexed.  Keys must already be tuples.
        """
        rows: set[Row] = set()
        fetched = 0
        for group in filter(None, map(self._entries.get, keys)):
            rows.update(group)
            fetched += len(group)
        if counter is not None and keys:
            counter.record_fetch_many(self.relation_name, len(keys), fetched)
        return rows

    def keys(self) -> Iterator[Row]:
        return iter(self._entries)

    # -- size and consistency -----------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ``XY``-tuples stored (the index footprint used in Exp-1(IV))."""
        return sum(len(values) for values in self._entries.values())

    @property
    def cell_size(self) -> int:
        """Number of value cells stored (tuples × width), comparable to byte footprints."""
        return self.size * len(self.columns)

    def max_group_size(self) -> int:
        if not self._entries:
            return 0
        return max(len(values) for values in self._entries.values())

    def check(self) -> None:
        """Raise :class:`ConstraintViolation` if some group exceeds the bound ``N``."""
        # the XY-rows of one X-group differ exactly on Y: a group's size is its Y count
        bound = self.constraint.bound
        for key, values in self._entries.items():
            if len(values) > bound:
                raise ConstraintViolation(self.constraint, key, len(values))


class IndexSet:
    """All constraint indexes of an access schema over a database.

    Construction cost is ``O(||A|| · |D|)`` and the total size is at most
    ``O(||A|| · |D|)``, as stated in Section 7.  Lookups share one
    :class:`AccessCounter` unless the caller supplies its own.
    """

    def __init__(self, counter: AccessCounter | None = None):
        self._indexes: dict[AccessConstraint, ConstraintIndex] = {}
        #: (relation, lhs, rhs) -> index, for O(1) shape lookups (first wins)
        self._by_shape: dict[tuple[str, frozenset, frozenset], ConstraintIndex] = {}
        #: relation -> its indexes, for O(per-relation) incremental maintenance
        self._by_relation: dict[str, list[ConstraintIndex]] = {}
        self.counter = counter if counter is not None else AccessCounter()

    def _register(self, constraint: AccessConstraint, index: ConstraintIndex) -> None:
        self._indexes[constraint] = index
        self._by_shape.setdefault(
            (constraint.relation, constraint.lhs, constraint.rhs), index
        )
        self._by_relation.setdefault(constraint.relation, []).append(index)

    @classmethod
    def build(
        cls,
        database: "Database",
        access_schema: AccessSchema,
        *,
        check: bool = True,
        counter: AccessCounter | None = None,
    ) -> "IndexSet":
        """Build indexes for every constraint of ``access_schema`` over ``database``."""
        from .database import Database  # local import to avoid a cycle

        if not isinstance(database, Database):  # pragma: no cover - defensive
            raise StorageError("IndexSet.build expects a Database")
        index_set = cls(counter=counter)
        for constraint in access_schema:
            relation = database.relation(constraint.relation)
            index = ConstraintIndex(constraint, relation)
            if check:
                index.check()
            index_set._register(constraint, index)
        return index_set

    # -- protocol -------------------------------------------------------------------
    def __contains__(self, constraint: AccessConstraint) -> bool:
        return constraint in self._indexes

    def __len__(self) -> int:
        return len(self._indexes)

    def __iter__(self) -> Iterator[ConstraintIndex]:
        return iter(self._indexes.values())

    def index_for(self, constraint: AccessConstraint) -> ConstraintIndex:
        try:
            return self._indexes[constraint]
        except KeyError:
            raise StorageError(f"no index built for constraint {constraint}") from None

    def find(
        self, relation: str, lhs: Iterable[str], rhs: Iterable[str]
    ) -> ConstraintIndex | None:
        """Find an index matching a (possibly actualized) constraint shape.

        Actualized constraints keep the bound and attribute sets of the base
        constraint but rename the relation; this lookup lets the executor map
        them back to the physical index built on the base relation.  The
        lookup is a single dict probe (when several constraints share a shape,
        the first one registered wins, matching the historical scan order).
        """
        return self._by_shape.get((relation, frozenset(lhs), frozenset(rhs)))

    def resolve(
        self, constraint: AccessConstraint, base_relation: str
    ) -> ConstraintIndex | None:
        """The physical index behind a fetch constraint: the constraint's own,
        else the one of its shape on ``base_relation`` (actualized occurrences)."""
        index = self._indexes.get(constraint)
        if index is None:
            index = self.find(base_relation, constraint.lhs, constraint.rhs)
        return index

    def fetcher(self, plan: "BoundedPlan", step: "PlanStep") -> Fetch:
        """The local fetch source: ``step``'s fetch as one index's :meth:`ConstraintIndex.lookup_many`.

        This is the seam a plan touches data through, resolved once per
        fetch step at compile time (a :class:`~repro.sharding.router.
        ShardRouter` implements it by scatter/gather).  The kernels hand it
        their distinct keys and get back a mutable set, with one counter
        record per call.
        """
        constraint = step.op.constraint
        base = plan.base_relation(constraint)
        index = self.resolve(constraint, base)
        if index is None:
            raise PlanError(
                f"no index available for constraint {constraint} (base relation {base!r}); "
                "build an IndexSet for the access schema first"
            )
        return index.lookup_many

    # -- size ------------------------------------------------------------------------
    @property
    def total_size(self) -> int:
        """Total number of tuples across all index partial tables."""
        return sum(index.size for index in self._indexes.values())

    @property
    def total_cell_size(self) -> int:
        """Total number of value cells across all index partial tables."""
        return sum(index.cell_size for index in self._indexes.values())

    # -- incremental maintenance (Proposition 12) ----------------------------------------
    # The maintainer seam of :func:`repro.discovery.maintenance.apply_updates`.
    def apply_insert(self, relation: str, row: Row) -> None:
        """Update all indexes of ``relation`` after a tuple insertion (O(N_A) per tuple)."""
        for index in self._by_relation.get(relation, ()):
            index.add_row(row)

    def apply_delete(self, relation: str, row: Row) -> None:
        """Update all indexes of ``relation`` after a tuple deletion (O(1) per index)."""
        for index in self._by_relation.get(relation, ()):
            index.remove_row(row)

    def group_of(self, constraint: AccessConstraint, row: Row) -> tuple[Row, ...]:
        """The index rows of ``constraint`` sharing ``row``'s ``X``-value (empty without an index)."""
        index = self._indexes.get(constraint)
        group = None if index is None else index._entries.get(index._key(row))
        return tuple(group) if group else ()
