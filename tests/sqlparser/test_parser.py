"""Unit tests for the SQL parser and its translation to RA."""

import pytest

from repro.core.coverage import is_covered
from repro.core.errors import ParseError
from repro.core.query import Difference, Join, Projection, Selection, Union
from repro.evaluator.algebra import evaluate
from repro.sqlparser import parse_sql, parse_statement
from repro.sqlparser.ast import SelectStatement, SetOperation


class TestParseStatement:
    def test_simple_select(self):
        statement = parse_statement("SELECT cid FROM cafe WHERE city = 'nyc'")
        assert isinstance(statement, SelectStatement)
        assert [c.name for c in statement.columns] == ["cid"]
        assert statement.from_tables[0].table == "cafe"
        assert len(statement.where) == 1

    def test_select_star(self):
        statement = parse_statement("SELECT * FROM cafe")
        assert statement.columns is None

    def test_alias_with_and_without_as(self):
        with_as = parse_statement("SELECT f.fid FROM friend AS f")
        without_as = parse_statement("SELECT f.fid FROM friend f")
        assert with_as.from_tables[0].name == "f"
        assert without_as.from_tables[0].name == "f"

    def test_join_on(self):
        statement = parse_statement(
            "SELECT d.cid FROM friend f JOIN dine d ON f.fid = d.pid WHERE f.pid = 'p0'"
        )
        assert len(statement.joins) == 1
        assert statement.joins[0].table.name == "d"

    def test_union_and_except(self):
        statement = parse_statement(
            "SELECT cid FROM cafe WHERE city = 'nyc' "
            "EXCEPT SELECT cid FROM cafe WHERE city = 'boston'"
        )
        assert isinstance(statement, SetOperation)
        assert statement.operator == "except"

    def test_parenthesized_set_expression(self):
        statement = parse_statement(
            "(SELECT cid FROM cafe WHERE city = 'nyc' UNION SELECT cid FROM cafe) "
            "EXCEPT SELECT cid FROM cafe WHERE city = 'boston'"
        )
        assert isinstance(statement, SetOperation)
        assert statement.operator == "except"
        assert isinstance(statement.left, SetOperation)

    def test_trailing_semicolon(self):
        assert isinstance(parse_statement("SELECT cid FROM cafe;"), SelectStatement)

    def test_missing_from_is_error(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT cid")

    def test_garbage_after_statement(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT cid FROM cafe garbage extra tokens ,")

    def test_numbers_and_operators(self):
        statement = parse_statement("SELECT pid FROM dine WHERE year >= 2015")
        atom = statement.where[0]
        assert atom.op == ">="
        assert atom.right.value == 2015

    def test_a_parsed_condition_prints_as_written(self):
        statement = parse_statement("SELECT pid FROM dine d WHERE d.year >= 2015 AND month = 'may'")
        assert [str(atom) for atom in statement.where] == ["d.year >= 2015", "month = 'may'"]


class TestToQuery:
    def test_translation_shapes(self, fb_schema):
        query = parse_sql(
            "SELECT d.cid FROM friend f JOIN dine d ON f.fid = d.pid "
            "WHERE f.pid = 'p0' AND d.month = 'may' AND d.year = 2015",
            fb_schema,
        )
        assert isinstance(query, Projection)
        assert isinstance(query.child, Selection)
        assert isinstance(query.child.child, Join)

    def test_unqualified_column_resolution(self, fb_schema):
        query = parse_sql("SELECT city FROM cafe WHERE cid = 'c1'", fb_schema)
        assert str(query.output_attributes()[0]) == "cafe.city"

    def test_ambiguous_column_rejected(self, fb_schema):
        with pytest.raises(ParseError, match="ambiguous"):
            parse_sql("SELECT pid FROM friend, dine", fb_schema)

    def test_unknown_column_rejected(self, fb_schema):
        with pytest.raises(ParseError, match="unknown column"):
            parse_sql("SELECT bogus FROM cafe", fb_schema)

    def test_unknown_alias_rejected(self, fb_schema):
        with pytest.raises(ParseError, match="unknown table alias"):
            parse_sql("SELECT z.cid FROM cafe c", fb_schema)

    def test_duplicate_alias_rejected(self, fb_schema):
        with pytest.raises(ParseError, match="duplicate table occurrence"):
            parse_sql("SELECT c.cid FROM cafe c, cafe c", fb_schema)

    def test_unknown_table_rejected(self, fb_schema):
        with pytest.raises(Exception):
            parse_sql("SELECT x FROM restaurants", fb_schema)

    def test_except_translates_to_difference(self, fb_schema):
        query = parse_sql(
            "SELECT cid FROM cafe WHERE city = 'nyc' "
            "EXCEPT SELECT cid FROM dine WHERE pid = 'p0'",
            fb_schema,
        )
        assert isinstance(query, Difference)

    def test_union_translates_to_union(self, fb_schema):
        query = parse_sql(
            "SELECT cid FROM cafe UNION SELECT cid FROM dine", fb_schema
        )
        assert isinstance(query, Union)


class TestParsedQuerySemantics:
    def test_parsed_example1_equals_programmatic(self, fb_schema, fb_database, fb_q1):
        sql = (
            "SELECT d.cid FROM friend f "
            "JOIN dine d ON f.fid = d.pid "
            "JOIN cafe c ON d.cid = c.cid "
            "WHERE f.pid = 'p0' AND d.month = 'may' AND d.year = 2015 AND c.city = 'nyc'"
        )
        parsed = parse_sql(sql, fb_schema)
        assert evaluate(parsed, fb_database).rows == evaluate(fb_q1, fb_database).rows

    def test_parsed_query_coverage(self, fb_schema, fb_access):
        covered_sql = parse_sql(
            "SELECT d.cid FROM friend f JOIN dine d ON f.fid = d.pid "
            "WHERE f.pid = 'p0' AND d.month = 'may' AND d.year = 2015",
            fb_schema,
        )
        uncovered_sql = parse_sql(
            "SELECT cid FROM dine WHERE pid = 'p0'", fb_schema
        )
        assert is_covered(covered_sql, fb_access)
        assert not is_covered(uncovered_sql, fb_access)

    def test_cartesian_from_list(self, fb_schema, fb_database):
        query = parse_sql(
            "SELECT f.fid FROM friend f, cafe c WHERE c.cid = 'c1' AND f.pid = 'p0'",
            fb_schema,
        )
        result = evaluate(query, fb_database)
        expected = {
            (fid,) for pid, fid in fb_database.relation("friend").rows if pid == "p0"
        }
        if any(row[0] == "c1" for row in fb_database.relation("cafe").rows):
            assert result.rows == expected
        else:
            assert result.rows == frozenset()
