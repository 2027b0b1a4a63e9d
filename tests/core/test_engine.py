"""Unit tests for the end-to-end BoundedEngine (Section 7 framework)."""

import pytest

from repro.core.engine import BoundedEngine, prepare_query
from repro.core.errors import NotCoveredError
from repro.core.plan2sql import plan_to_sql
from repro.evaluator.algebra import evaluate
from repro.evaluator.executor import PlanExecutor
from repro.workloads import facebook


@pytest.fixture
def engine(fb_database, fb_access):
    return BoundedEngine(fb_database, fb_access)


class TestEngineBasics:
    def test_check_and_is_covered(self, engine, fb_q1, fb_q2):
        assert engine.is_covered(fb_q1)
        assert not engine.is_covered(fb_q2)
        assert engine.check(fb_q1).is_covered

    def test_plan_for_covered_query(self, engine, fb_q1):
        plan, coverage, minimization = engine.plan(fb_q1)
        assert plan.is_bounded
        assert coverage.is_covered
        assert minimization is not None
        assert len(minimization.selected) <= 4

    def test_plan_without_minimization(self, engine, fb_q1):
        plan, coverage, minimization = engine.plan(fb_q1, minimize=False)
        assert minimization is None
        assert plan.is_bounded

    def test_plan_for_uncovered_raises(self, engine, fb_q2):
        with pytest.raises(NotCoveredError):
            engine.plan(fb_q2)

    def test_plan_translates_to_sql(self, engine, fb_q1):
        plan, _, _ = engine.plan(fb_q1)
        assert plan_to_sql(plan).sql.startswith("WITH")

    def test_index_footprint_report(self, engine, fb_database, fb_access):
        report = engine.index_footprint()
        assert report["database_tuples"] == fb_database.size
        assert report["constraints"] == len(fb_access)
        assert report["index_tuples"] > 0
        assert report["build_seconds"] >= 0


class TestEngineExecution:
    def test_covered_query_executes_bounded(self, engine, fb_q1, fb_database):
        result = engine.execute(fb_q1)
        assert result.strategy == "bounded"
        assert result.rows == evaluate(fb_q1, fb_database).rows
        assert result.counter.fetched > 0
        assert result.counter.scanned == 0

    def test_q0_rewritten_then_bounded(self, engine, fb_q0, fb_database):
        """The engine answers Example 1's Q0 with a bounded plan via rewriting."""
        result = engine.execute(fb_q0)
        assert result.strategy == "bounded"
        assert result.rewrite == "guard-difference"
        assert result.rows == evaluate(fb_q0, fb_database).rows

    def test_uncovered_fallback(self, engine, fb_q2, fb_database):
        result = engine.execute(fb_q2)
        assert result.strategy == "conventional"
        assert result.rows == evaluate(fb_q2, fb_database).rows
        assert result.counter.total > 0

    def test_uncovered_without_fallback_raises(self, engine, fb_q2):
        with pytest.raises(NotCoveredError):
            engine.execute(fb_q2, fallback=False)

    def test_minimize_false_uses_full_schema(self, engine, fb_q1, fb_database, fb_access):
        prepared = prepare_query(fb_q1, fb_access, minimize=False)
        assert prepared.minimization is None
        result = PlanExecutor(engine.indexes).execute(prepared.executable)
        assert result.rows == evaluate(fb_q1, fb_database).rows
        assert result.rows == engine.execute(fb_q1).rows  # the minimized read agrees

    def test_access_ratio_small(self, engine, fb_q1, fb_database):
        result = engine.execute(fb_q1)
        assert 0 < result.access_ratio(fb_database.size) < 1.0


class TestEngineMaintenance:
    def test_insert_visible_to_queries(self, engine, fb_database, fb_access):
        q1 = facebook.query_q1(person="p0", month="may", year=2015, city="nyc")
        before = engine.execute(q1).rows
        # add a new friend of p0 who dined at a new nyc cafe in May 2015
        engine.apply_insert("cafe", ("c_new", "nyc"))
        engine.apply_insert("friend", ("p0", "p_new"))
        engine.apply_insert("dine", ("p_new", "c_new", "may", 2015))
        after = engine.execute(q1).rows
        assert ("c_new",) in after
        assert before <= after

    def test_insert_matches_reference_semantics(self, engine, fb_database):
        q1 = facebook.query_q1()
        engine.apply_insert("cafe", ("c_extra", "nyc"))
        engine.apply_insert("friend", ("p0", "p77"))
        engine.apply_insert("dine", ("p77", "c_extra", "may", 2015))
        assert engine.execute(q1).rows == evaluate(q1, fb_database).rows

    def test_delete_removes_answers(self, engine, fb_database):
        q1 = facebook.query_q1()
        engine.apply_insert("cafe", ("c_gone", "nyc"))
        engine.apply_insert("friend", ("p0", "p88"))
        engine.apply_insert("dine", ("p88", "c_gone", "may", 2015))
        assert ("c_gone",) in engine.execute(q1).rows
        engine.apply_delete("dine", ("p88", "c_gone", "may", 2015))
        result = engine.execute(q1)
        assert ("c_gone",) not in result.rows
        assert result.rows == evaluate(q1, fb_database).rows
