"""Tests for the experiment-table helpers."""

import pytest

from repro.bench.metrics import ExperimentTable


class TestExperimentTable:
    def test_add_row_and_column(self):
        table = ExperimentTable("demo", ["x", "y"])
        table.add_row(x=1, y=2.0)
        table.add_row(x=2, y=3.5)
        assert table.column("x") == [1, 2]
        assert table.column("y") == [2.0, 3.5]

    def test_first_row_names_the_columns(self):
        table = ExperimentTable("demo")
        table.add_row(x=1, y=2.0)
        assert list(table.columns) == ["x", "y"]
        with pytest.raises(ValueError, match="missing columns"):
            table.add_row(x=2)

    def test_missing_column_rejected(self):
        table = ExperimentTable("demo", ["x", "y"])
        with pytest.raises(ValueError, match="missing columns"):
            table.add_row(x=1)

    def test_render_contains_headers_and_values(self):
        table = ExperimentTable("demo title", ["metric", "value"])
        table.add_row(metric="P_DQ", value=1.7e-6)
        rendered = table.render()
        assert "demo title" in rendered
        assert "metric" in rendered
        assert "1.70e-06" in rendered

    def test_render_empty_table(self):
        table = ExperimentTable("empty", ["a"])
        rendered = table.render()
        assert "empty" in rendered
        assert "a" in rendered

    def test_float_formatting_trims_zeros(self):
        table = ExperimentTable("t", ["v"])
        table.add_row(v=2.5000)
        assert "2.5" in table.render()
        assert "2.5000" not in table.render()
