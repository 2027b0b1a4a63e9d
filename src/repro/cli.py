"""Command-line interface for the bounded-evaluation library.

Usage (after ``pip install -e .``)::

    python -m repro.cli check    --workload AIRCA --sql "SELECT ..."
    python -m repro.cli plan     --workload TFACC --sql "SELECT ..." [--no-minimize] [--executable]
    python -m repro.cli run      --workload MCBM  --sql "SELECT ..." [--scale 300]
    python -m repro.cli discover --workload AIRCA --output constraints.json
    python -m repro.cli report   --workload TFACC [--quick]
    python -m repro.cli soak     --workload AIRCA --requests 200 --seed 0

Instead of a built-in workload, ``--schema schema.json --data DIR
[--constraints constraints.json]`` loads a database from CSV files (one per
relation, as written by :meth:`repro.storage.database.Database.to_directory`)
with a JSON schema and constraint list (see :mod:`repro.core.serialize`).

``report`` regenerates every figure of :data:`repro.bench.experiments.FIGURES`
on one workload, prints the tables and exits non-zero if one of them does not
support a claim of the paper.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core.coverage import check_coverage
from .core.engine import BoundedEngine
from .core.errors import ReproError
from .core.minimize import minimize_auto
from .core.optimizer import optimize_plan
from .core.plan2sql import plan_to_sql
from .core.planner import generate_plan
from .core.serialize import (
    access_schema_to_list,
    dump_access_schema,
    load_access_schema,
    load_schema,
)
from .discovery import DiscoveryConfig, discover_access_schema
from .sqlparser import parse_sql
from .storage.database import Database
from .workloads import WORKLOADS


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["facebook"],
                        help="use a built-in workload (schema, constraints, generator)")
    parser.add_argument("--scale", type=int, default=200,
                        help="generator scale for built-in workloads (default 200)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--schema", type=Path, help="JSON database schema (with --data)")
    parser.add_argument("--data", type=Path, help="directory of CSV files, one per relation")
    parser.add_argument("--constraints", type=Path,
                        help="JSON access-constraint list (defaults to discovery on --data)")


def _load_source(args) -> tuple[Database, "AccessSchema"]:
    """Resolve --workload / --schema+--data into a database and access schema."""
    from .core.access import AccessSchema
    from .workloads import facebook

    if args.workload:
        if args.workload == "facebook":
            spec_schema = facebook.schema()
            access = facebook.access_schema(spec_schema)
            database = facebook.generate(scale=args.scale, seed=args.seed)
        else:
            spec = WORKLOADS[args.workload]
            access = spec.access_schema
            database = spec.database(scale=args.scale, seed=args.seed)
        return database, access

    if not args.schema or not args.data:
        raise SystemExit("either --workload or both --schema and --data are required")
    schema = load_schema(args.schema)
    database = Database.from_directory(schema, args.data)
    if args.constraints:
        access = load_access_schema(args.constraints, schema=schema)
    else:
        access = discover_access_schema(database)
    return database, access


def _parse_query(args, database):
    sql = args.sql
    if sql == "-":
        sql = sys.stdin.read()
    return parse_sql(sql, database.schema)


# ---------------------------------------------------------------------------
# Sub-commands
# ---------------------------------------------------------------------------

def command_check(args) -> int:
    database, access = _load_source(args)
    query = _parse_query(args, database)
    result = check_coverage(query, access)
    print(result.explain())
    if result.is_covered:
        plan = generate_plan(result)
        print(f"bounded plan: {plan.length} steps, access bound {plan.access_bound()} tuples")
    return 0 if result.is_covered else 1


def command_plan(args) -> int:
    database, access = _load_source(args)
    query = _parse_query(args, database)
    coverage = check_coverage(query, access)
    if not coverage.is_covered:
        print(coverage.explain(), file=sys.stderr)
        return 1
    if not args.no_minimize:
        minimized = minimize_auto(query, access)
        coverage = check_coverage(query, minimized.selected)
        print(f"-- minimized access schema ({minimized.method}): "
              f"{len(minimized.selected)} constraints, Σ N = {minimized.cost}")
    plan = generate_plan(coverage)
    if args.executable:
        plan = optimize_plan(plan)
    if args.sql_output:
        print(plan_to_sql(plan).sql)
        return 0
    if args.executable:
        bounds = plan.cardinality_bounds()
        width = len(f"{max(bounds.values()):,}")
        print("-- executable plan; left: static bound on the step's rows")
        for step in plan.steps:
            print(f"{bounds[step.id]:>{width},}  {step}")
        print(f"-- result: T{plan.output}")
    else:
        print(plan)
    print(f"-- access bound: {plan.access_bound()} tuples")
    return 0


def command_run(args) -> int:
    database, access = _load_source(args)
    query = _parse_query(args, database)
    engine = BoundedEngine(database, access)
    repeat = max(1, args.repeat)
    for _ in range(repeat):
        result = engine.execute(query)
    for row in sorted(result.rows, key=repr):
        print("\t".join(str(value) for value in row))
    served = (
        " | served from result cache" if result.result_cached else ""
    )
    print(
        f"-- {len(result.rows)} rows | strategy: {result.strategy} | rewrite: {result.rewrite} | "
        f"accessed {result.counter.total} of {database.size} tuples "
        f"(P(D_Q) = {result.access_ratio(database.size):.6f}) in "
        f"{result.elapsed * 1000:.1f}ms{served}",
        file=sys.stderr,
    )
    if args.cache_stats:
        stats = engine.cache_stats()
        for cache_name in ("plan_store", "result_cache"):
            line = " ".join(
                f"{key}={value:.2f}" if isinstance(value, float) else f"{key}={value}"
                for key, value in stats[cache_name].items()
            )
            print(f"-- {cache_name}: {line}", file=sys.stderr)
    return 0


def command_discover(args) -> int:
    database, _ = _load_source(args)
    config = DiscoveryConfig(
        max_lhs_size=args.max_lhs, max_bound=args.max_bound, domain_threshold=args.domain
    )
    access = discover_access_schema(database, config)
    payload = access_schema_to_list(access)
    if args.output:
        dump_access_schema(access, args.output)
        print(f"wrote {len(payload)} constraints to {args.output}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def command_report(args) -> int:
    """Regenerate every registered paper figure on one workload; exit 1 on a failed claim."""
    from .bench.experiments import FIGURES, ClaimFailed, run_figure

    size = "quick" if args.quick else "full"
    failed = 0
    for name in FIGURES:
        try:
            print(run_figure(name, WORKLOADS[args.workload], size).render())
            print("".join(f"  holds: {claim}\n" for claim in FIGURES[name].claims))
        except ClaimFailed as failure:
            failed += 1
            print(f"CLAIM FAILED {name}: {failure}\n")
    print(f"-- {len(FIGURES) - failed} of {len(FIGURES)} figures support the paper's claims")
    return 1 if failed else 0


def command_soak(args) -> int:
    from .serving.soak import SoakConfig, run_soak

    if not args.workload or args.workload == "facebook":
        raise SystemExit("soak requires --workload AIRCA|TFACC|MCBM")
    config = SoakConfig(
        workload=args.workload,
        scale=args.scale,
        seed=args.seed,
        shards=args.shards,
        replicas=args.replicas,
        requests=args.requests,
        write_ratio=args.write_ratio,
        faults=not args.no_faults,
        verify=not args.no_verify,
        queue_depth=args.queue_depth,
        kill_shard=args.kill_shard,
        flaky_shard=args.flaky_shard,
        rebalance=args.rebalance,
    )
    report = run_soak(config)
    if args.output:
        args.output.write_text(json.dumps(report, indent=2, default=repr) + "\n")
        print(f"wrote soak report to {args.output}", file=sys.stderr)
    outcome = report["outcome"]
    serving = report["server"]["serving"]
    print(
        f"-- soak {args.workload} scale={args.scale} seed={args.seed}"
        f"{f' shards={args.shards}' if args.shards > 1 else ''}: "
        f"{outcome['reads_served']} reads served "
        f"({outcome['reads_verified']} verified vs reference, "
        f"{outcome['reads_nonempty']} of them non-empty), "
        f"{outcome['writes_ok']} write batches ok, "
        f"{outcome['writes_partial']} partial"
    )
    print(
        f"-- sheds: overload={outcome['shed_overload']} "
        f"deadline={outcome['shed_deadline']} breaker={outcome['rejected_breaker']} | "
        f"queue peak {serving['queue_depth_peak']} | "
        f"covered p99 {report['covered_p99_ms']:.2f}ms | "
        f"breaker opened {report['server']['breaker']['times_opened']}x"
    )
    if "router" in report:
        scatter = report["router"]["scatter_gather"]
        shards_line = ", ".join(
            f"{s['name']}({s['tuples']})" for s in report["router"]["shards"]
        )
        print(
            f"-- federation: {shards_line} | scatters={scatter['scatters']} "
            f"(routed={scatter['routed']} broadcast={scatter['broadcasts']}) | "
            f"merge rows mean {scatter['merge_rows_mean']:.1f} "
            f"max {scatter['merge_rows_max']} | "
            f"snapshot retries {scatter['snapshot_retries']}"
        )
        replication = report["router"]["replication"]
        if replication["replica_sets"]:
            print(
                f"-- replication: {replication['replicas']} replicas in "
                f"{replication['replica_sets']} sets | "
                f"failovers={replication['failovers']} "
                f"quarantines={replication['quarantines']} "
                f"catch-ups={replication['catch_ups']} "
                f"({replication['rows_resynced']} rows resynced) | "
                f"quarantined now: {replication['quarantined']}"
            )
        if scatter["rebalances"] or scatter["rebalance_aborts"]:
            print(
                f"-- rebalance: {scatter['rebalances']} completed "
                f"({scatter['rebalance_rows_moved']} rows moved), "
                f"{scatter['rebalance_aborts']} aborted"
            )
    rungs = report.get("latency_rungs", {})
    if rungs:
        rung_line = "  ".join(
            f"{name} p50={sample.get('p50_ms', 0.0):.2f} "
            f"p95={sample.get('p95_ms', 0.0):.2f} "
            f"p99={sample.get('p99_ms', 0.0):.2f}"
            for name, sample in sorted(rungs.items())
            if sample.get("count")
        )
        if rung_line:
            print(f"-- latency (ms/rung): {rung_line}")
    for check, ok in sorted(report["checks"].items()):
        print(f"-- {'PASS' if ok else 'FAIL'} {check}")
    print(f"-- soak {'PASSED' if report['passed'] else 'FAILED'}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="run CovChk on a SQL query")
    _add_source_arguments(check)
    check.add_argument("--sql", required=True, help="SQL text (or '-' for stdin)")
    check.set_defaults(handler=command_check)

    plan = subparsers.add_parser("plan", help="generate a bounded plan for a SQL query")
    _add_source_arguments(plan)
    plan.add_argument("--sql", required=True)
    plan.add_argument("--no-minimize", action="store_true", help="skip access minimization")
    plan.add_argument("--executable", action="store_true",
                      help="print the plan that runs: the optimized steps, each with its "
                           "static row bound, instead of QPlan's canonical plan")
    plan.add_argument("--sql-output", action="store_true",
                      help="print the Plan2SQL translation instead of the plan steps")
    plan.set_defaults(handler=command_plan)

    run = subparsers.add_parser("run", help="answer a SQL query (bounded when possible)")
    _add_source_arguments(run)
    run.add_argument("--sql", required=True)
    run.add_argument("--repeat", type=int, default=1,
                     help="execute the query N times (exercises the hot path; "
                          "repeats are served from the plan store / result cache)")
    run.add_argument("--cache-stats", action="store_true",
                     help="print plan-store and result-cache statistics to stderr")
    run.set_defaults(handler=command_run)

    discover = subparsers.add_parser("discover", help="mine access constraints from data")
    _add_source_arguments(discover)
    discover.add_argument("--output", type=Path, help="write constraints JSON here")
    discover.add_argument("--max-lhs", type=int, default=2)
    discover.add_argument("--max-bound", type=int, default=1000)
    discover.add_argument("--domain", type=int, default=64)
    discover.set_defaults(handler=command_discover)

    report = subparsers.add_parser(
        "report", help="regenerate and check every paper figure (repro.bench.experiments.FIGURES)"
    )
    report.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    report.add_argument("--quick", action="store_true", help="the tier-1 sizes, a few seconds")
    report.set_defaults(handler=command_report)

    soak = subparsers.add_parser(
        "soak",
        help="run the seeded fault-injection serving soak (chaos test)",
        description="Drive the hardened serving tier with randomized mixed "
                    "read/write traffic under injected faults, cross-checking "
                    "every served read against the uncached reference "
                    "evaluator. Exits 0 only if every robustness check holds.",
    )
    _add_source_arguments(soak)
    soak.add_argument("--shards", type=int, default=1,
                      help="serve through a federated router over N heterogeneous "
                           "shards (memory/SQLite alternating); disables engine-seam "
                           "fault injection (default 1: single engine)")
    soak.add_argument("--replicas", type=int, default=1,
                      help="replicas per logical shard (sharded mode only; "
                           "--kill-shard/--flaky-shard force at least 2)")
    soak.add_argument("--kill-shard", action="store_true",
                      help="chaos scenario: one replica of shard 0 dies mid-run; "
                           "reads must fail over and stay row-identical")
    soak.add_argument("--flaky-shard", action="store_true",
                      help="chaos scenario: one replica turns intermittently faulty "
                           "(fetch errors, torn writes, stale epoch tokens) mid-run")
    soak.add_argument("--rebalance", action="store_true",
                      help="chaos scenario: migrate a key range between shards "
                           "under traffic (epoch-guarded)")
    soak.add_argument("--requests", type=int, default=200,
                      help="mixed-traffic requests before the overload/deadline phases")
    soak.add_argument("--write-ratio", type=float, default=0.2,
                      help="fraction of requests that are write batches (default 0.2)")
    soak.add_argument("--no-faults", action="store_true",
                      help="run the same traffic without injected faults")
    soak.add_argument("--no-verify", action="store_true",
                      help="skip the per-read reference cross-check (faster)")
    soak.add_argument("--queue-depth", type=int, default=32,
                      help="admission queue depth (the overload burst is 3x this)")
    soak.add_argument("--output", type=Path, help="write the full JSON report here")
    soak.set_defaults(handler=command_soak)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    raise SystemExit(main())
