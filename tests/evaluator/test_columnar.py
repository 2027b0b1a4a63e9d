"""Unit tests for the columnar executor: batches, dictionaries, kernels.

Every plan-level test runs the same :class:`~repro.core.plan.BoundedPlan`
through both kernel families and asserts frozen-result identity — the
row executor is the semantics oracle, the reference evaluator having
blessed it elsewhere.
"""

import pytest

from repro.core.optimizer import (
    COLUMNAR_BOUND_THRESHOLD,
    choose_executor_mode,
)
from repro.core.errors import PlanError
from repro.core.plan import (
    ColumnPredicate,
    ConstOp,
    DifferenceOp,
    FetchOp,
    IntersectOp,
    PlanBuilder,
    ProductOp,
    ProjectOp,
    RenameOp,
    SelectOp,
    UnionOp,
    UnitOp,
)
from repro.evaluator.columnar import ColumnBatch, Dictionary, ProductView
from repro.evaluator.executor import PlanExecutor
from repro.storage.counters import AccessCounter


@pytest.fixture
def psi1(fb_access):
    return next(c for c in fb_access if c.name == "psi1")


def both_modes(plan, fb_database, fb_indexes):
    """Execute ``plan`` on row and columnar kernels; assert identity."""
    results = {}
    for mode in ("row", "columnar"):
        executor = PlanExecutor(fb_indexes, mode=mode)
        results[mode] = executor.execute(plan)
    assert results["row"].rows == results["columnar"].rows
    assert results["row"].columns == results["columnar"].columns
    assert results["columnar"].executor_mode == "columnar"
    assert results["columnar"].kernel_batches == len(plan.steps)
    return results["columnar"]


class TestDictionary:
    def test_encode_decode_roundtrip(self):
        dictionary = Dictionary()
        column = ["a", "b", "a", "c", "b"]
        codes = dictionary.encode_column(column)
        assert codes == [0, 1, 0, 2, 1]
        assert dictionary.decode_column(codes) == column
        # steady state: encoding again grows nothing and reuses codes
        assert dictionary.encode_column(["c", "a"]) == [2, 0]
        assert len(dictionary) == 3

    def test_mixed_type_column_stays_plain(self):
        dictionary = Dictionary()
        assert dictionary.encode_column(["a", 7, "b"]) is None

    def test_translate_maps_missing_codes_to_none(self):
        left, right = Dictionary(), Dictionary()
        left.encode_column(["x", "y", "z"])
        right.encode_column(["z", "x"])
        translated = left.translate_column([0, 1, 2], right)
        assert translated == [right.codes["x"], None, right.codes["z"]]

    def test_translation_cache_rebuilds_after_growth(self):
        left, right = Dictionary(), Dictionary()
        left.encode_column(["x", "y"])
        right.encode_column(["y"])
        assert left.translate_column([0, 1], right) == [None, 0]
        # the target learns "x": the cached table must be rebuilt, not reused
        right.encode_column(["x"])
        assert left.translate_column([0, 1], right) == [1, 0]


class TestColumnBatch:
    def test_from_rows_and_back(self):
        rows = [(1, "a"), (2, "b"), (1, "a")]
        batch = ColumnBatch.from_rows(("n", "s"), rows)
        assert len(batch) == 3
        assert batch.row_tuples() == rows
        assert batch.to_frozenset() == frozenset(rows)

    def test_empty_and_zero_width(self):
        empty = ColumnBatch.from_rows(("a",), [])
        assert len(empty) == 0 and empty.to_frozenset() == frozenset()
        unit = ColumnBatch.from_rows((), [(), ()])
        assert len(unit) == 2
        assert unit.to_frozenset() == frozenset({()})


class TestProductView:
    def test_materialize_matches_itertools_product(self):
        import itertools

        left = ColumnBatch.from_rows(("a",), [(1,), (2,)], distinct=True)
        right = ColumnBatch.from_rows(("b", "c"), [("x", 1), ("y", 2)], distinct=True)
        view = ProductView(("a", "b", "c"), (left, right))
        expected = {
            l + r for l, r in itertools.product(left.row_tuples(), right.row_tuples())
        }
        assert len(view) == 4
        assert view.to_frozenset() == expected
        assert view.materialize() is view.materialize()  # cached

    def test_empty_factor_empties_the_product(self):
        left = ColumnBatch.from_rows(("a",), [(1,)], distinct=True)
        right = ColumnBatch.empty(("b",))
        view = ProductView(("a", "b"), (left, right))
        assert len(view) == 0
        assert view.to_frozenset() == frozenset()

    def test_key_tuples_enumerates_distinct_combinations(self):
        left = ColumnBatch.from_rows(("a",), [(1,), (2,), (1,)], distinct=False)
        right = ColumnBatch.from_rows(("b",), [("x",), ("y",)], distinct=True)
        view = ProductView(("a", "b"), (left, right))
        # keys over (b, a): reorder swaps the factor-concatenation order
        keys = view.key_tuples(((0, (0,)), (1, (0,))), (1, 0))
        assert set(keys) == {("x", 1), ("x", 2), ("y", 1), ("y", 2)}


class TestKernelEdgeCases:
    def test_empty_fetch_propagates_empty_batches(
        self, fb_database, fb_indexes, fb_access, psi1
    ):
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="nobody", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t0,)),
            ["friend.fid", "friend.pid"],
        )
        t2 = builder.add(ProjectOp(columns=("friend.fid",), inputs=(t1,)), ["friend.fid"])
        result = both_modes(builder.build(t2), fb_database, fb_indexes)
        assert result.rows == frozenset()

    def test_select_filtering_every_row(self, fb_database, fb_indexes, fb_access, psi1):
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t0,)),
            ["friend.fid", "friend.pid"],
        )
        t2 = builder.add(
            SelectOp(
                predicates=(ColumnPredicate("friend.pid", "=", "nobody"),),
                inputs=(t1,),
            ),
            ["friend.fid", "friend.pid"],
        )
        result = both_modes(builder.build(t2), fb_database, fb_indexes)
        assert result.rows == frozenset()

    def test_join_with_duplicate_build_keys(
        self, fb_database, fb_indexes, fb_access, psi1
    ):
        # friend fetched for two people, self-joined on the friend column:
        # every person pair sharing a friend — build side keys repeat.
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(ConstOp(value="p1", column="friend.pid"), ["friend.pid"])
        t2 = builder.add(UnionOp(inputs=(t0, t1)), ["friend.pid"])
        t3 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t2,)),
            ["friend.fid", "friend.pid"],
        )
        t4 = builder.add(
            RenameOp(
                mapping={"friend.fid": "other.fid", "friend.pid": "other.pid"},
                inputs=(t3,),
            ),
            ["other.fid", "other.pid"],
        )
        from repro.core.plan import HashJoinOp

        t5 = builder.add(
            HashJoinOp(
                pairs=(("friend.fid", "other.fid"),), residual=(), inputs=(t3, t4)
            ),
            ["friend.fid", "friend.pid", "other.fid", "other.pid"],
        )
        t6 = builder.add(
            ProjectOp(columns=("friend.pid", "other.pid"), inputs=(t5,)),
            ["friend.pid", "other.pid"],
        )
        result = both_modes(builder.build(t6), fb_database, fb_indexes)
        assert result.rows  # p0/p1 at least pair with themselves

    def test_set_operations(self, fb_database, fb_indexes, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(ConstOp(value=1, column="x"), ["x"])
        t1 = builder.add(ConstOp(value=2, column="x"), ["x"])
        t2 = builder.add(UnionOp(inputs=(t0, t1)), ["x"])
        t3 = builder.add(DifferenceOp(inputs=(t2, t1)), ["x"])
        t4 = builder.add(IntersectOp(inputs=(t2, t0)), ["x"])
        t5 = builder.add(UnionOp(inputs=(t3, t4)), ["x"])
        result = both_modes(builder.build(t5), fb_database, fb_indexes)
        assert result.rows == frozenset({(1,)})

    def test_zero_column_plan(self, fb_database, fb_indexes, fb_access):
        builder = PlanBuilder(fb_access)
        t0 = builder.add(UnitOp(), [])
        result = both_modes(builder.build(t0), fb_database, fb_indexes)
        assert result.rows == frozenset({()})

    def test_product_with_empty_side(self, fb_database, fb_indexes, fb_access, psi1):
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="a"), ["a"])
        t1 = builder.add(ConstOp(value="nobody", column="friend.pid"), ["friend.pid"])
        t2 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t1,)),
            ["friend.fid", "friend.pid"],
        )
        t3 = builder.add(ProductOp(inputs=(t0, t2)), ["a", "friend.fid", "friend.pid"])
        result = both_modes(builder.build(t3), fb_database, fb_indexes)
        assert result.rows == frozenset()


class TestObservability:
    def test_execution_result_surfaces_mode_and_counts(
        self, fb_database, fb_indexes, fb_access, psi1
    ):
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t0,)),
            ["friend.fid", "friend.pid"],
        )
        plan = builder.build(t1)
        executor = PlanExecutor(fb_indexes, mode="columnar")
        result = executor.execute(plan)
        assert result.executor_mode == "columnar"
        assert result.kernel_batches == 2
        assert result.rows_processed == sum(result.step_cardinalities.values())
        stats = executor.stats()
        assert stats["columnar_executions"] == 1
        assert stats["row_executions"] == 0
        assert stats["kernel_batches"] == 2
        assert stats["rows_processed"] == result.rows_processed

    def test_auto_mode_records_its_choice(
        self, fb_database, fb_indexes, fb_access, psi1
    ):
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t0,)),
            ["friend.fid", "friend.pid"],
        )
        plan = builder.build(t1)
        executor = PlanExecutor(fb_indexes, mode="auto")
        result = executor.execute(plan)
        expected = choose_executor_mode(plan)
        assert result.executor_mode == expected
        stats = executor.stats()
        assert stats[f"auto_{expected}_choices"] == 1

    def test_columnar_access_accounting_matches_row(
        self, fb_database, fb_indexes, fb_access, psi1
    ):
        builder = PlanBuilder(fb_access, occurrences={"friend": "friend"})
        t0 = builder.add(ConstOp(value="p0", column="friend.pid"), ["friend.pid"])
        t1 = builder.add(ConstOp(value="p1", column="friend.pid"), ["friend.pid"])
        t2 = builder.add(UnionOp(inputs=(t0, t1)), ["friend.pid"])
        t3 = builder.add(
            FetchOp(constraint=psi1, key_columns=("friend.pid",), inputs=(t2,)),
            ["friend.fid", "friend.pid"],
        )
        plan = builder.build(t3)
        counters = {}
        for mode in ("row", "columnar"):
            counter = AccessCounter()
            PlanExecutor(fb_indexes, mode=mode).execute(plan, counter)
            counters[mode] = counter
        assert counters["row"].fetched == counters["columnar"].fetched
        assert counters["row"].index_probes == counters["columnar"].index_probes
        assert counters["row"].per_relation == counters["columnar"].per_relation


class TestLookupMany:
    def test_bulk_lookup_matches_per_key_lookups(self, fb_indexes, psi1):
        index = fb_indexes.index_for(psi1)
        keys = list(index.keys())[:5] + [("nobody",)]
        single_counter = AccessCounter()
        singles = []
        for key in keys:
            singles.extend(index.lookup(key, single_counter))
        bulk_counter = AccessCounter()
        bulk = index.lookup_many(keys, bulk_counter)
        assert sorted(bulk) == sorted(singles)
        assert bulk_counter.fetched == single_counter.fetched
        assert bulk_counter.index_probes == single_counter.index_probes == len(keys)
        assert bulk_counter.per_relation == single_counter.per_relation


class _StubPlan:
    def __init__(self, bound):
        self._bound = bound

    def access_bound(self):
        if isinstance(self._bound, Exception):
            raise self._bound
        return self._bound


class TestModeChoice:
    def test_threshold_splits_point_and_analytic_plans(self):
        assert choose_executor_mode(_StubPlan(COLUMNAR_BOUND_THRESHOLD - 1)) == "row"
        assert choose_executor_mode(_StubPlan(COLUMNAR_BOUND_THRESHOLD)) == "columnar"

    def test_unboundable_plan_falls_back_to_row(self):
        assert choose_executor_mode(_StubPlan(PlanError("no bound"))) == "row"

    def test_unknown_mode_rejected(self, fb_database, fb_indexes):
        with pytest.raises(PlanError):
            PlanExecutor(fb_indexes, mode="vectorized")
