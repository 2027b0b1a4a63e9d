"""Repeated-query throughput: plan store + result cache + pipelined executor.

A serving engine sees the same (parameterized) queries over and over; the
paper's boundedness guarantees make each execution touch only ``D_Q``, but the
wall-clock then hinges on how much work happens *around* the data.  Two
scenarios are measured:

**Read-only** — queries/second on repeated covered queries in three modes:

* **cold** — all caching disabled: every execution re-runs ``CovChk``,
  ``minA``, ``QPlan`` and plan optimization from scratch;
* **warm_plan** — plan store only: repeats skip straight to the compiled
  plan but still execute it;
* **warm** — plan store + result cache: repeats on unchanged data skip
  execution entirely and serve the materialized bounded result.

**Cold path** — queries/second on the bundled *analytic* queries
(:mod:`repro.bench.analytic`) with the result cache off, comparing the row
and columnar executor kernels on the executions a serving tier pays on every
result-cache miss.  Row/columnar results are cross-checked for identity
against the reference evaluator before any timing; the report records
``cold_row_qps``, ``cold_columnar_qps``, the ``columnar_speedup`` ratio and
the shipping ``cold_qps`` (auto mode) per workload.

**Mixed read/write** — repeated queries interleaved with writes to a
relation *unrelated* to every query's dependency set, comparing the
engine's constraint-granular invalidation against a clear-all baseline the
bench produces itself by emptying both caches after every write.  With
granular invalidation the writes must cause **zero** plan recompilations
and zero re-executions (asserted via cache stats); with clear-all every
write flushes both caches.  Afterwards a
*dependent* write is applied and results are cross-checked row-for-row
against the uncached reference evaluator on the changed data.  Both engines
run with delta repair off — this scenario isolates the invalidation
granularity, the next one isolates repair.

**Delta repair** — repeated queries interleaved with *dependent* writes (a
delete/re-insert pair on a relation every query reads), comparing delta
repair (``delta_repair=True``, the default) against invalidate-and-recompute
(``delta_repair=False``).  The repairing engine must actually repair
(asserted via ``repaired`` in cache stats) and both engines' rows are
cross-checked against the uncached reference evaluator after the write mix.
The report records per-workload ``delta_qps`` and the repair/invalidate
``speedup``.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_hot_path.py --quick --output BENCH_hot_path.json

``--mode`` limits the run to one scenario (``read``, ``cold``, ``mixed``,
``delta``; default ``all``).

The JSON report records per-workload throughput, the speedups, and the
engine's cache statistics, so the perf trajectory is a tracked number (see
``benchmarks/track_trajectory.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # allow running without an editable install
    sys.path.insert(0, str(SRC))

from repro.bench.analytic import analytic_queries  # noqa: E402
from repro.bench.experiments import select_covered_queries  # noqa: E402
from repro.core.engine import BoundedEngine  # noqa: E402
from repro.evaluator.algebra import evaluate  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402


def _stats_delta(before: dict, after: dict) -> dict:
    """Per-cache counter deltas between two cache_stats() snapshots.

    Gauge-style keys (capacity, entries, hit_rate) are taken from ``after``;
    the hit rate is recomputed from the delta traffic only.
    """
    delta: dict[str, dict] = {}
    for cache_name, counters in after.items():
        base = before.get(cache_name, {})
        cache_delta = {}
        for key, value in counters.items():
            if key in ("capacity", "entries"):
                cache_delta[key] = value
            elif isinstance(value, dict):
                # dict-valued counters (invalidated_by, repair_fallback_reasons):
                # per-key deltas, dropping keys that saw no traffic
                base_map = base.get(key, {})
                sub = {
                    k: v - base_map.get(k, 0)
                    for k, v in value.items()
                    if v - base_map.get(k, 0)
                }
                cache_delta[key] = sub
            elif key != "hit_rate":
                cache_delta[key] = value - base.get(key, 0)
        requests = cache_delta.get("hits", 0) + cache_delta.get("misses", 0)
        cache_delta["hit_rate"] = (
            round(cache_delta.get("hits", 0) / requests, 4) if requests else 0.0
        )
        delta[cache_name] = cache_delta
    return delta


def _throughput(engine: BoundedEngine, queries, repeats: int) -> tuple[float, int]:
    """Execute each query ``repeats`` times; returns (queries/sec, executions)."""
    executions = 0
    started = time.perf_counter()
    for _ in range(repeats):
        for query in queries:
            engine.execute(query)
            executions += 1
    elapsed = time.perf_counter() - started
    return (executions / elapsed) if elapsed > 0 else float("inf"), executions


def bench_workload(name: str, *, scale: int, query_count: int, repeats: int) -> dict:
    workload = WORKLOADS[name]
    database = workload.database(scale=scale, seed=7)
    queries = select_covered_queries(
        workload, count=query_count, seed=7, database=database
    )
    if not queries:
        return {"workload": name, "skipped": "no covered queries generated"}

    cold = BoundedEngine(
        database,
        workload.access_schema,
        check_constraints=False,
        plan_cache_size=0,
        result_cache_size=0,
    )
    warm_plan = BoundedEngine(
        database, workload.access_schema, check_constraints=False, result_cache_size=0
    )
    warm = BoundedEngine(database, workload.access_schema, check_constraints=False)
    plain = BoundedEngine(
        database,
        workload.access_schema,
        check_constraints=False,
        plan_cache_size=0,
        result_cache_size=0,
        optimize=False,
    )

    # Correctness first: caches on/off, optimizer on/off, reference semantics.
    for query in queries:
        expected = evaluate(query, database).rows
        for engine in (cold, warm_plan, warm, plain):
            rows = engine.execute(query).rows
            if rows != expected:
                raise AssertionError(
                    f"{name}: result mismatch for\n{query}\n"
                    f"expected {len(expected)} rows, got {len(rows)}"
                )
        # repeats served from the result cache must be row-identical too
        if warm.execute(query).rows != expected:
            raise AssertionError(f"{name}: result-cache mismatch for\n{query}")

    for engine in (warm_plan, warm):  # measure the warm paths from clean caches
        engine.plan_cache.invalidate()
        engine.result_cache.invalidate()
    warm_up_qps, _ = _throughput(warm, queries, 1)  # first pass populates the caches
    _throughput(warm_plan, queries, 1)
    stats_before = warm.cache_stats()  # counters also include the phases above...
    cold_qps, cold_runs = _throughput(cold, queries, repeats)
    warm_plan_qps, _ = _throughput(warm_plan, queries, repeats)
    warm_qps, warm_runs = _throughput(warm, queries, repeats)
    # ...so report only the measured passes' traffic.
    measured_stats = _stats_delta(stats_before, warm.cache_stats())

    return {
        "workload": name,
        "scale": scale,
        "queries": len(queries),
        "executions": {"cold": cold_runs, "warm": warm_runs},
        "cold_qps": round(cold_qps, 2),
        "warm_first_pass_qps": round(warm_up_qps, 2),
        "warm_plan_qps": round(warm_plan_qps, 2),
        "warm_qps": round(warm_qps, 2),
        "speedup": round(warm_qps / cold_qps, 2) if cold_qps else None,
        "plan_speedup": round(warm_plan_qps / cold_qps, 2) if cold_qps else None,
        "cache": measured_stats,
    }


def bench_cold_path(name: str, *, scale: int, repeats: int) -> dict:
    """Row vs columnar execution throughput on the bundled analytic queries.

    Every engine runs with the result cache disabled and a warm plan store,
    so the measured cost is pure plan execution — the cold path of a result
    cache miss.  Before any timing, every (query, mode) pair is cross-checked
    row-for-row against the reference evaluator.  Row mode gets fewer passes
    (its analytic executions are orders of magnitude slower); throughput is
    normalized per execution either way.
    """
    workload = WORKLOADS[name]
    queries = analytic_queries(workload)
    if not queries:
        return {"workload": name, "skipped": "no bundled analytic queries"}
    database = workload.database(scale=scale, seed=7)

    engines = {
        mode: BoundedEngine(
            database,
            workload.access_schema,
            check_constraints=False,
            result_cache_size=0,
            executor_mode=mode,
        )
        for mode in ("row", "columnar", "auto")
    }

    # Row-identity cross-checks (also warm every plan store): each mode must
    # produce exactly the reference evaluator's rows for every query.
    access_bounds = []
    for query in queries:
        expected = evaluate(query, database).rows
        for mode, engine in engines.items():
            result = engine.execute(query)
            if result.rows != expected:
                raise AssertionError(
                    f"{name}/{mode}: cold-path result mismatch for\n{query}\n"
                    f"expected {len(expected)} rows, got {len(result.rows)}"
                )
        prepared, _ = engines["row"].prepare(query)
        access_bounds.append(prepared.executable.access_bound())

    row_repeats = max(1, repeats // 4)
    row_qps, row_runs = _throughput(engines["row"], queries, row_repeats)
    columnar_qps, columnar_runs = _throughput(engines["columnar"], queries, repeats)
    auto_qps, _ = _throughput(engines["auto"], queries, repeats)
    executor = engines["columnar"].cache_stats()["executor"]

    return {
        "workload": name,
        "scale": scale,
        "queries": len(queries),
        "access_bounds": access_bounds,
        "executions": {"row": row_runs, "columnar": columnar_runs},
        "cold_row_qps": round(row_qps, 2),
        "cold_columnar_qps": round(columnar_qps, 2),
        # the shipping number: auto mode picks kernels per plan
        "cold_qps": round(auto_qps, 2),
        "columnar_speedup": round(columnar_qps / row_qps, 2) if row_qps else None,
        "executor": executor,
    }


def _clear_all(engine: BoundedEngine) -> None:
    """The clear-all baseline: what a write costs without dependency tags."""
    engine.plan_cache.invalidate(None)
    engine.result_cache.invalidate(None)


def bench_mixed(name: str, *, scale: int, query_count: int, batches: int,
                reads_per_batch: int) -> dict:
    """Interleave unrelated writes with repeated reads: granular vs clear-all.

    Each write event deletes and re-inserts one existing row of a relation no
    query depends on — a real pair of data changes (two version bumps, two
    sweeps) that leaves the data equal to its initial state, so results stay
    comparable against a fixed reference.
    """
    workload = WORKLOADS[name]

    def setup():
        database = workload.database(scale=scale, seed=7)
        queries = select_covered_queries(
            workload, count=query_count, seed=7, database=database
        )
        # Delta repair off: this scenario compares invalidation *granularity*;
        # the delta scenario below isolates repair itself.
        engine = BoundedEngine(
            database, workload.access_schema, check_constraints=False, delta_repair=False
        )
        return database, queries, engine

    database, queries, probe = setup()
    if not queries:
        return {"workload": name, "skipped": "no covered queries generated"}

    dependencies: set[str] = set()
    for query in queries:
        prepared, _ = probe.prepare(query)
        dependencies.update(prepared.dependencies)
    unrelated = [
        relation
        for relation in database.relation_names()
        if relation not in dependencies and len(database.relation(relation)) > 0
    ]
    if not unrelated:
        return {"workload": name, "skipped": "every relation is a query dependency"}
    write_relation = unrelated[0]
    related_relation = sorted(dependencies)[0]

    results: dict[str, dict] = {}
    for mode, granular in (("granular", True), ("clear_all", False)):
        database, queries, engine = setup()
        write_row = next(iter(database.relation(write_relation)))
        expected = {id(q): evaluate(q, database).rows for q in queries}
        for query in queries:  # warm both caches
            engine.execute(query)
        before = engine.cache_stats()
        reads = 0
        started = time.perf_counter()
        for _ in range(batches):
            engine.apply_delete(write_relation, write_row)
            if not granular:
                _clear_all(engine)
            engine.apply_insert(write_relation, write_row)
            if not granular:
                _clear_all(engine)
            for _ in range(reads_per_batch):
                for query in queries:
                    engine.execute(query)
                    reads += 1
        elapsed = time.perf_counter() - started
        after = engine.cache_stats()
        invalidated = (
            after["plan_store"]["invalidated"] - before["plan_store"]["invalidated"]
        )
        result_hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
        for query in queries:  # rows must still match the uncached reference
            if engine.execute(query).rows != expected[id(query)]:
                raise AssertionError(f"{name}/{mode}: mixed-scenario row mismatch")
        results[mode] = {
            "qps": round(reads / elapsed, 2) if elapsed > 0 else float("inf"),
            "reads": reads,
            "writes": 2 * batches,
            "entries_invalidated": invalidated,
            "result_cache_hits": result_hits,
            "stats": after,
        }
        if granular:
            # Acceptance: unrelated writes leave plans AND results untouched —
            # every post-warmup read is a result-cache hit, nothing recompiled.
            if invalidated != 0:
                raise AssertionError(
                    f"{name}: granular mode invalidated {invalidated} plan entries "
                    "on writes to an unrelated relation"
                )
            if result_hits < batches * reads_per_batch * len(queries):
                raise AssertionError(
                    f"{name}: granular mode re-executed queries after unrelated "
                    f"writes ({result_hits} result-cache hits)"
                )
            # Dependent-write epilogue: a real data change must be reflected.
            victim = next(iter(database.relation(related_relation)))
            engine.apply_delete(related_relation, victim)
            for query in queries:
                if engine.execute(query).rows != evaluate(query, database).rows:
                    raise AssertionError(
                        f"{name}: stale rows served after dependent delete"
                    )
            engine.apply_insert(related_relation, victim)
            for query in queries:
                if engine.execute(query).rows != expected[id(query)]:
                    raise AssertionError(
                        f"{name}: stale rows served after dependent re-insert"
                    )

    granular_qps = results["granular"]["qps"]
    clear_all_qps = results["clear_all"]["qps"]
    return {
        "workload": name,
        "scale": scale,
        "queries": len(queries),
        "write_relation": write_relation,
        "dependencies": sorted(dependencies),
        "granular": results["granular"],
        "clear_all": results["clear_all"],
        "speedup": round(granular_qps / clear_all_qps, 2) if clear_all_qps else None,
    }


def bench_delta(name: str, *, scale: int, query_count: int, batches: int,
                reads_per_batch: int) -> dict:
    """Interleave *dependent* writes with repeated reads: repair vs recompute.

    Each write event deletes and re-inserts one existing row of a relation
    every query depends on, so both engines must settle their result caches
    on every write.  The repairing engine patches (or cleanly re-stamps)
    entries and keeps serving cache hits; the recomputing engine drops them
    and pays a full plan execution per query per batch.  The data returns to
    its initial state after each event, so the fixed reference stays valid.
    """
    workload = WORKLOADS[name]

    def setup(delta_repair: bool):
        database = workload.database(scale=scale, seed=7)
        queries = select_covered_queries(
            workload, count=query_count, seed=7, database=database
        )
        engine = BoundedEngine(
            database,
            workload.access_schema,
            check_constraints=False,
            delta_repair=delta_repair,
        )
        return database, queries, engine

    database, queries, probe = setup(True)
    if not queries:
        return {"workload": name, "skipped": "no covered queries generated"}
    dependencies: set[str] = set()
    for query in queries:
        prepared, _ = probe.prepare(query)
        dependencies.update(prepared.dependencies)
    shared = [r for r in sorted(dependencies) if len(database.relation(r)) > 0]
    if not shared:
        return {"workload": name, "skipped": "no populated dependent relation"}
    write_relation = shared[0]

    results: dict[str, dict] = {}
    for mode, delta_repair in (("repair", True), ("invalidate", False)):
        database, queries, engine = setup(delta_repair)
        write_row = next(iter(database.relation(write_relation)))
        expected = {id(q): evaluate(q, database).rows for q in queries}
        for query in queries:  # warm both caches
            engine.execute(query)
        before = engine.cache_stats()
        reads = 0
        started = time.perf_counter()
        for _ in range(batches):
            engine.apply_delete(write_relation, write_row)
            engine.apply_insert(write_relation, write_row)
            for _ in range(reads_per_batch):
                for query in queries:
                    engine.execute(query)
                    reads += 1
        elapsed = time.perf_counter() - started
        measured = _stats_delta(before, engine.cache_stats())
        for query in queries:  # rows must still match the uncached reference
            if engine.execute(query).rows != expected[id(query)]:
                raise AssertionError(f"{name}/{mode}: delta-scenario row mismatch")
            if engine.execute(query).rows != evaluate(query, database).rows:
                raise AssertionError(f"{name}/{mode}: reference drift")
        cache = measured["result_cache"]
        if delta_repair and cache.get("repaired", 0) == 0:
            raise AssertionError(
                f"{name}: repair mode never repaired an entry on "
                f"{2 * batches} dependent writes "
                f"(fallbacks: {cache.get('repair_fallback_reasons')})"
            )
        results[mode] = {
            "qps": round(reads / elapsed, 2) if elapsed > 0 else float("inf"),
            "reads": reads,
            "writes": 2 * batches,
            "repaired": cache.get("repaired", 0),
            "repaired_clean": cache.get("repaired_clean", 0),
            "rows_patched": cache.get("rows_patched", 0),
            "repair_fallbacks": cache.get("repair_fallbacks", 0),
            "invalidated": cache.get("invalidated", 0),
            "result_cache_hits": cache.get("hits", 0),
        }

    repair_qps = results["repair"]["qps"]
    invalidate_qps = results["invalidate"]["qps"]
    return {
        "workload": name,
        "scale": scale,
        "queries": len(queries),
        "write_relation": write_relation,
        "delta_qps": repair_qps,
        "repair": results["repair"],
        "invalidate": results["invalidate"],
        "speedup": (
            round(repair_qps / invalidate_qps, 2) if invalidate_qps else None
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small scale / few repeats (CI mode)"
    )
    parser.add_argument("--scale", type=int, default=None, help="workload scale")
    parser.add_argument("--queries", type=int, default=None, help="covered queries per workload")
    parser.add_argument("--repeats", type=int, default=None, help="passes over the query set")
    parser.add_argument("--write-batches", type=int, default=None,
                        help="write events in the mixed and delta scenarios")
    parser.add_argument(
        "--mode", choices=("all", "read", "cold", "mixed", "delta"), default="all",
        help="run only one scenario family (default: all)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="write the JSON report to this path"
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (120 if args.quick else 220)
    query_count = args.queries if args.queries is not None else (3 if args.quick else 5)
    repeats = args.repeats if args.repeats is not None else (5 if args.quick else 20)
    batches = args.write_batches if args.write_batches is not None else (10 if args.quick else 40)

    results = []
    mixed_results = []
    if args.mode in ("all", "read"):
        for name in sorted(WORKLOADS):
            result = bench_workload(
                name, scale=scale, query_count=query_count, repeats=repeats
            )
            results.append(result)
            if "skipped" in result:
                print(f"{name}: skipped ({result['skipped']})")
                continue
            print(
                f"{name}: cold {result['cold_qps']:.1f} q/s, "
                f"warm-plan {result['warm_plan_qps']:.1f} q/s, "
                f"warm {result['warm_qps']:.1f} q/s, "
                f"speedup {result['speedup']:.2f}x "
                f"(plan hit rate {result['cache']['plan_store']['hit_rate']:.2f}, "
                f"result hit rate {result['cache']['result_cache']['hit_rate']:.2f})"
            )

    cold_results = []
    if args.mode in ("all", "cold"):
        for name in sorted(WORKLOADS):
            cold = bench_cold_path(name, scale=scale, repeats=repeats)
            cold_results.append(cold)
            if "skipped" in cold:
                print(f"{name} cold-path: skipped ({cold['skipped']})")
                continue
            print(
                f"{name} cold-path: row {cold['cold_row_qps']:.1f} q/s, "
                f"columnar {cold['cold_columnar_qps']:.1f} q/s, "
                f"auto {cold['cold_qps']:.1f} q/s, "
                f"columnar speedup {cold['columnar_speedup']:.2f}x "
                f"(bounds {cold['access_bounds']})"
            )

    if args.mode in ("all", "mixed"):
        for name in sorted(WORKLOADS):
            mixed = bench_mixed(
                name, scale=scale, query_count=query_count,
                batches=batches, reads_per_batch=max(1, repeats),
            )
            mixed_results.append(mixed)
            if "skipped" in mixed:
                print(f"{name} mixed: skipped ({mixed['skipped']})")
                continue
            print(
                f"{name} mixed: granular {mixed['granular']['qps']:.1f} q/s "
                f"(0 invalidations on {mixed['granular']['writes']} unrelated writes), "
                f"clear-all {mixed['clear_all']['qps']:.1f} q/s, "
                f"speedup {mixed['speedup']:.2f}x"
            )

    delta_results = []
    if args.mode in ("all", "delta"):
        for name in sorted(WORKLOADS):
            delta = bench_delta(
                name, scale=scale, query_count=query_count,
                batches=batches, reads_per_batch=max(1, repeats),
            )
            delta_results.append(delta)
            if "skipped" in delta:
                print(f"{name} delta: skipped ({delta['skipped']})")
                continue
            print(
                f"{name} delta: repair {delta['repair']['qps']:.1f} q/s "
                f"({delta['repair']['repaired']} repairs, "
                f"{delta['repair']['rows_patched']} rows patched, "
                f"{delta['repair']['repair_fallbacks']} fallbacks), "
                f"invalidate {delta['invalidate']['qps']:.1f} q/s "
                f"({delta['invalidate']['invalidated']} invalidations), "
                f"speedup {delta['speedup']:.2f}x"
            )

    measured = [r for r in results if "speedup" in r and r["speedup"] is not None]
    overall = (
        round(sum(r["speedup"] for r in measured) / len(measured), 2) if measured else None
    )
    measured_mixed = [
        r for r in mixed_results if "speedup" in r and r["speedup"] is not None
    ]
    overall_mixed = (
        round(sum(r["speedup"] for r in measured_mixed) / len(measured_mixed), 2)
        if measured_mixed
        else None
    )
    measured_cold = [
        r for r in cold_results if r.get("columnar_speedup") is not None
    ]
    overall_cold = (
        round(
            sum(r["columnar_speedup"] for r in measured_cold) / len(measured_cold), 2
        )
        if measured_cold
        else None
    )
    measured_delta = [
        r for r in delta_results if r.get("speedup") is not None
    ]
    overall_delta = (
        round(sum(r["speedup"] for r in measured_delta) / len(measured_delta), 2)
        if measured_delta
        else None
    )
    report = {
        "benchmark": "hot_path",
        "mode": "quick" if args.quick else "full",
        "scale": scale,
        "repeats": repeats,
        "workloads": results,
        "cold_path": cold_results,
        "mixed": mixed_results,
        "delta": delta_results,
        "mean_speedup": overall,
        "mean_mixed_speedup": overall_mixed,
        "mean_columnar_speedup": overall_cold,
        "mean_delta_speedup": overall_delta,
    }
    print(f"mean warm/cold speedup: {overall}x")
    print(f"mean granular/clear-all mixed speedup: {overall_mixed}x")
    print(f"mean columnar/row cold-path speedup: {overall_cold}x")
    print(f"mean repair/invalidate delta speedup: {overall_delta}x")

    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
