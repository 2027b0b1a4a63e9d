"""Tests for the command-line interface."""

import dataclasses
import json
import re

import pytest

from repro.bench import experiments
from repro.bench.experiments import FIGURES
from repro.bench.metrics import ExperimentTable
from repro.cli import main
from repro.core.serialize import dump_access_schema, dump_schema
from repro.workloads import facebook


FB_Q1_SQL = (
    "SELECT d.cid FROM friend f JOIN dine d ON f.fid = d.pid "
    "JOIN cafe c ON d.cid = c.cid "
    "WHERE f.pid = 'p0' AND d.month = 'may' AND d.year = 2015 AND c.city = 'nyc'"
)
FB_Q2_SQL = "SELECT cid FROM dine WHERE pid = 'p0'"


class TestCheckCommand:
    def test_covered_query_exit_zero(self, capsys):
        code = main(["check", "--workload", "facebook", "--scale", "30", "--sql", FB_Q1_SQL])
        out = capsys.readouterr().out
        assert code == 0
        assert "covered: True" in out
        assert "access bound" in out

    def test_uncovered_query_exit_one(self, capsys):
        code = main(["check", "--workload", "facebook", "--scale", "30", "--sql", FB_Q2_SQL])
        out = capsys.readouterr().out
        assert code == 1
        assert "covered: False" in out

    def test_parse_error_reported(self, capsys):
        code = main(["check", "--workload", "facebook", "--scale", "30",
                     "--sql", "SELEC broken"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestPlanCommand:
    def test_plan_steps_printed(self, capsys):
        code = main(["plan", "--workload", "facebook", "--scale", "30", "--sql", FB_Q1_SQL])
        out = capsys.readouterr().out
        assert code == 0
        assert "fetch" in out
        assert "access bound" in out
        assert "minimized access schema" in out

    def test_plan_executable_prints_the_plan_that_runs(self, capsys):
        """Optimized steps (a fused join among them), each after its static row bound."""
        code = main(["plan", "--workload", "facebook", "--scale", "30",
                     "--sql", FB_Q1_SQL, "--executable"])
        out = capsys.readouterr().out
        assert code == 0
        assert "-- executable plan; left: static bound on the step's rows" in out
        assert "kernels" not in out  # one kernel family: nothing to name
        steps = [line for line in out.splitlines() if not line.startswith("--")]
        assert all(line.split()[0].replace(",", "").isdigit() for line in steps)
        assert any("⋈[" in line for line in steps)
        assert any(line.split()[0] == "5,000" and "fetch(" in line for line in steps)
        assert "-- access bound:" in out

    def test_plan_no_minimize_plans_over_the_whole_schema(self, capsys):
        code = main(["plan", "--workload", "facebook", "--scale", "30",
                     "--sql", FB_Q1_SQL, "--no-minimize"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fetch" in out and "access bound" in out
        assert "minimized access schema" not in out

    def test_plan_sql_output(self, capsys):
        code = main(["plan", "--workload", "facebook", "--scale", "30",
                     "--sql", FB_Q1_SQL, "--sql-output"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.lstrip().startswith("--") or "WITH" in out
        assert "ind_" in out

    def test_plan_uncovered_fails(self, capsys):
        code = main(["plan", "--workload", "facebook", "--scale", "30", "--sql", FB_Q2_SQL])
        captured = capsys.readouterr()
        assert code == 1
        assert "not fetchable" in captured.err or "not indexed" in captured.err


class TestRunCommand:
    def test_run_prints_rows_and_stats(self, capsys):
        code = main(["run", "--workload", "facebook", "--scale", "40", "--seed", "1",
                     "--sql", FB_Q1_SQL])
        captured = capsys.readouterr()
        assert code == 0
        assert "strategy: bounded" in captured.err
        assert "P(D_Q)" in captured.err
        assert "executor:" not in captured.err  # one kernel family: nothing to name

    def test_run_cache_stats_reports_the_two_caches(self, capsys):
        code = main(["run", "--workload", "facebook", "--scale", "40", "--seed", "1",
                     "--sql", FB_Q1_SQL, "--repeat", "2", "--cache-stats"])
        err = capsys.readouterr().err
        assert code == 0
        assert "served from result cache" in err  # the second run was a hit
        stats = [line for line in err.splitlines() if line[3:].split(":")[0].isidentifier()]
        assert [line.split(":")[0] for line in stats] == ["-- plan_store", "-- result_cache"]
        assert "hits=1" in stats[0] and "hits=1" in stats[1]

    def test_run_has_no_kernel_switch(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["run", "--workload", "facebook", "--sql", FB_Q1_SQL, "--executor", "row"])
        assert refused.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_run_has_no_minimize_switch(self, capsys):
        """A read is always minimized; ``plan --no-minimize`` shows the other plan."""
        with pytest.raises(SystemExit) as refused:
            main(["run", "--workload", "facebook", "--sql", FB_Q1_SQL, "--no-minimize"])
        assert refused.value.code == 2
        assert "--no-minimize" in capsys.readouterr().err

    def test_run_falls_back_for_uncovered(self, capsys):
        code = main(["run", "--workload", "facebook", "--scale", "30",
                     "--sql", FB_Q2_SQL])
        captured = capsys.readouterr()
        assert code == 0
        assert "strategy: conventional" in captured.err


class TestDiscoverCommand:
    def test_discover_to_stdout(self, capsys):
        code = main(["discover", "--workload", "facebook", "--scale", "25",
                     "--max-lhs", "1", "--max-bound", "100"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and payload
        assert {"relation", "lhs", "rhs", "bound"} <= set(payload[0])

    def test_discover_to_file(self, tmp_path, capsys):
        output = tmp_path / "constraints.json"
        code = main(["discover", "--workload", "facebook", "--scale", "25",
                     "--output", str(output)])
        assert code == 0
        assert output.exists()
        assert json.loads(output.read_text())


class TestReportCommand:
    def test_every_registered_figure_is_printed_and_checked(self, capsys):
        code = main(["report", "--workload", "AIRCA", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("(AIRCA)") == len(FIGURES)  # one table title per figure
        for figure in FIGURES.values():
            for claim in figure.claims:
                assert f"holds: {claim}" in out
        assert f"{len(FIGURES)} of {len(FIGURES)} figures" in out

    def test_a_table_that_contradicts_the_paper_fails_the_report(self, capsys, monkeypatch):
        def fewer_covered_under_more_constraints(workload, **parameters):
            table = ExperimentTable("Figure 6 (forged)")
            table.add_row(fraction=0.5, constraints=11, covered_pct=50.0, bounded_pct=60.0)
            table.add_row(fraction=1.0, constraints=22, covered_pct=40.0, bounded_pct=60.0)
            return table

        forged = dataclasses.replace(
            FIGURES["fig6_coverage"], driver=fewer_covered_under_more_constraints
        )
        monkeypatch.setattr(
            experiments,
            "FIGURES",
            {"fig6_coverage": forged, "exp1_index_size": FIGURES["exp1_index_size"]},
        )
        code = main(["report", "--workload", "AIRCA", "--quick"])
        out = capsys.readouterr().out
        assert code == 1
        assert "CLAIM FAILED fig6_coverage: Fig. 6 — covered % and bounded % never drop" in out
        assert "Figure 6 (forged)" in out  # the offending table is shown
        assert "Exp-1(IV) index size (AIRCA)" in out  # later figures still run
        assert "1 of 2 figures" in out


class TestCSVSource:
    def test_check_with_csv_data_and_constraints(self, tmp_path, fb_schema, fb_access, capsys):
        database = facebook.generate(scale=25, seed=3)
        data_dir = tmp_path / "data"
        database.to_directory(data_dir)
        schema_path = tmp_path / "schema.json"
        constraints_path = tmp_path / "constraints.json"
        dump_schema(fb_schema, schema_path)
        dump_access_schema(fb_access, constraints_path)
        code = main([
            "check",
            "--schema", str(schema_path),
            "--data", str(data_dir),
            "--constraints", str(constraints_path),
            "--sql", FB_Q1_SQL,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "covered: True" in out

    def test_run_over_data_that_breaks_a_bound_exits_2_naming_it(
        self, tmp_path, fb_schema, fb_access, capsys
    ):
        # The engine checks A when it builds its indexes; there is no knob.
        database = facebook.generate(scale=25, seed=3)
        database.insert("cafe", ("c0", "atlantis"))  # a second city for c0: psi4 has N = 1
        database.to_directory(tmp_path / "data")
        dump_schema(fb_schema, tmp_path / "schema.json")
        dump_access_schema(fb_access, tmp_path / "constraints.json")
        code = main([
            "run",
            "--schema", str(tmp_path / "schema.json"),
            "--data", str(tmp_path / "data"),
            "--constraints", str(tmp_path / "constraints.json"),
            "--sql", FB_Q1_SQL,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "cafe((cid) -> (city), 1) violated" in err and "('c0',)" in err

    def test_missing_source_arguments(self):
        with pytest.raises(SystemExit):
            main(["check", "--sql", FB_Q1_SQL])


class TestSoakCommand:
    """``repro soak``: the report it prints and the exit code it returns.

    A server clock that stands still, as in ``tests/serving/test_soak.py``,
    so no verdict reads elapsed time.
    """

    ARGS = ["soak", "--workload", "AIRCA", "--scale", "40", "--requests", "30",
            "--seed", "11", "--queue-depth", "8"]

    @pytest.fixture(autouse=True)
    def frozen_server(self, monkeypatch):
        from functools import partial

        from repro.serving import soak
        from repro.serving.server import BoundedServer

        monkeypatch.setattr(soak, "BoundedServer", partial(BoundedServer, clock=lambda: 0.0))

    def test_a_passing_soak_prints_each_check_and_exits_zero(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        # every read served was verified against the reference
        assert re.match(r"-- soak AIRCA scale=40 seed=11: (\d+) reads served \(\1 verified", out)
        checks = [line for line in out.splitlines() if line.startswith(("-- PASS", "-- FAIL"))]
        assert checks and all(line.startswith("-- PASS") for line in checks)
        assert "-- federation" not in out
        assert out.rstrip().endswith("-- soak PASSED")

    def test_a_sharded_soak_reports_its_federation(self, capsys):
        assert main([*self.ARGS, "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("-- soak AIRCA scale=40 seed=11 shards=3: ")
        (federation,) = [line for line in out.splitlines() if line.startswith("-- federation: ")]
        shards = federation.removeprefix("-- federation: ").split(" | ")[0].split(", ")
        names = [name.split("(")[0] for name in shards]
        assert names == ["shard0-memory", "shard1-sqlite", "shard2-memory"]
        assert "snapshot retries 0" in federation
        assert out.rstrip().endswith("-- soak PASSED")

    def test_the_json_report_holds_the_printed_outcome(self, tmp_path, capsys):
        path = tmp_path / "soak.json"
        assert main([*self.ARGS, "--no-faults", "--output", str(path)]) == 0
        report = json.loads(path.read_text())
        outcome = report["outcome"]
        out = capsys.readouterr().out
        assert (
            f"{outcome['reads_served']} reads served ({outcome['reads_verified']} verified"
            in out
        )
        assert outcome["writes_partial"] == 0
        assert f"{outcome['writes_ok']} write batches ok, 0 partial" in out
        assert report["passed"] is True

    def test_a_failed_check_is_printed_and_exits_one(self, monkeypatch, capsys):
        from repro.serving import soak

        real = soak.run_soak

        def failing(config):
            report = real(config)
            checks = {**report["checks"], "no_result_mismatches": False}
            return {**report, "checks": checks, "passed": False}

        monkeypatch.setattr(soak, "run_soak", failing)
        assert main(self.ARGS) == 1
        out = capsys.readouterr().out
        assert "-- FAIL no_result_mismatches" in out
        assert out.rstrip().endswith("-- soak FAILED")

    def test_soak_needs_a_benchmark_workload(self):
        with pytest.raises(SystemExit, match="soak requires --workload"):
            main(["soak", "--workload", "facebook"])
