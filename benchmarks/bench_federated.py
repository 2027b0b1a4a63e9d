"""Federated scatter/gather throughput vs a single-engine reference.

Measures what sharding costs (and buys) on the repeated-covered-query hot
path: the same covered query set is served by one `BoundedEngine` and by
`ShardRouter` federations of increasing shard counts over heterogeneous
(memory/SQLite alternating) backends.  Result caches are disabled on **both**
sides so the numbers measure scatter/gather execution, not cache hits — a
federated result-cache hit costs the same as a single-engine one and would
just flatter the router.

Correctness is asserted before anything is timed:

* every covered query's federated rows are row-for-row identical to the
  uncached reference evaluator on every topology;
* a routed mixed delete/re-insert batch leaves every query's rows identical
  to the reference evaluated on a mirror database receiving the same batch;
* a replicated topology (2 replicas per shard) serves identical rows both
  healthy and with one replica killed — the degraded throughput and the
  failover/quarantine counters land in the report.

The JSON report feeds ``track_trajectory.py --federated``, which merges the
federated throughput into the tracked ``BENCH_trajectory.json`` under the
same >30% regression gate as the hot-path numbers.

Run directly::

    PYTHONPATH=src python benchmarks/bench_federated.py --quick --output BENCH_federated.json
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

from repro.bench.experiments import select_covered_queries  # noqa: E402
from repro.core.engine import BoundedEngine  # noqa: E402
from repro.evaluator.algebra import evaluate  # noqa: E402
from repro.serving.faults import FaultInjector  # noqa: E402
from repro.sharding import build_topology  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402


def _throughput(engine, queries, repeats: int) -> float:
    executions = 0
    started = time.perf_counter()
    for _ in range(repeats):
        for query in queries:
            engine.execute(query)
            executions += 1
    elapsed = time.perf_counter() - started
    return (executions / elapsed) if elapsed > 0 else float("inf")


def _check_write_identity(workload, queries, *, scale: int, shards: int,
                          batch_size: int) -> int:
    """Route a mixed delete/re-insert batch; rows must match a mirrored reference.

    Returns the number of updates applied.  The mirror database receives
    exactly the batches the router fully applied (the soak's write_observer
    seam), so ``evaluate(query, mirror)`` is the single-database truth for
    the federation's post-write state.
    """
    from repro.discovery.maintenance import Update

    mirror = workload.database(scale=scale, seed=7)

    def observe(updates) -> None:
        for update in updates:
            instance = mirror.relation(update.relation)
            prepared = instance.prepare(update.row)
            if update.kind == "insert":
                instance.insert(prepared)
            else:
                instance.delete(prepared)

    router = build_topology(
        mirror, workload.access_schema, shards=shards, write_observer=observe
    )
    dependencies: set[str] = set()
    for query in queries:
        prepared, _ = router.prepare(query)
        dependencies.update(prepared.dependencies)
    relation = sorted(
        d for d in dependencies if len(mirror.relation(d)) >= batch_size
    )
    if not relation:
        return 0
    victims = sorted(mirror.relation(relation[0]).rows)[:batch_size]
    batch = [Update.delete(relation[0], row) for row in victims]
    batch += [Update.insert(relation[0], row) for row in victims[: batch_size // 2]]
    report = router.apply_updates(batch)
    for query in queries:
        served = router.execute(query).rows
        reference = evaluate(query, mirror).rows
        if served != reference:
            raise AssertionError(
                f"federated rows diverged from the mirrored reference after a "
                f"routed batch ({len(served)} vs {len(reference)} rows) for:\n{query}"
            )
    return report.applied


def _bench_replicated(workload, queries, expected, single_qps, *, scale: int,
                      shards: int, repeats: int) -> dict:
    """Replicated topology: healthy throughput, then one replica killed.

    Measures what replication costs on the hot path (lockstep writes are
    free on reads; the extra cost is cloning at build time) and what a dead
    replica costs once failover reads kick in.  Rows are asserted identical
    to the reference before either number is taken, and again with the
    replica dead — a failover read that served a wrong row would fail the
    bench, not just skew it.
    """
    database = workload.database(scale=scale, seed=7)
    router = build_topology(
        database, workload.access_schema, shards=shards, replicas=2,
        result_cache_size=0,
    )
    for query in queries:
        rows = router.execute(query).rows
        if rows != expected[id(query)]:
            raise AssertionError(
                f"replicated rows differ from the reference for:\n{query}"
            )
    healthy_qps = _throughput(router, queries, repeats)

    injector = FaultInjector(seed=7)
    try:
        injector.kill(router.shards[0].replicas[0])
        for query in queries:
            rows = router.execute(query).rows
            if rows != expected[id(query)]:
                raise AssertionError(
                    f"failover rows differ from the reference for:\n{query}"
                )
        degraded_qps = _throughput(router, queries, repeats)
    finally:
        injector.uninstall()

    replication = router.replication_stats()
    return {
        "replicas": 2,
        "shards": shards,
        "qps": round(healthy_qps, 2),
        "ratio": round(healthy_qps / single_qps, 3) if single_qps else None,
        "degraded_qps": round(degraded_qps, 2),
        "degraded_ratio": (
            round(degraded_qps / healthy_qps, 3) if healthy_qps else None
        ),
        "replication": replication,
    }


def bench_workload(name: str, *, scale: int, query_count: int, repeats: int,
                   shard_counts: tuple[int, ...]) -> dict:
    workload = WORKLOADS[name]
    database = workload.database(scale=scale, seed=7)
    queries = select_covered_queries(
        workload, count=query_count, seed=7, database=database
    )
    if not queries:
        return {"workload": name, "skipped": "no covered queries generated"}

    single = BoundedEngine(
        database, workload.access_schema, check_constraints=False, result_cache_size=0
    )
    expected = {id(q): evaluate(q, database).rows for q in queries}
    for query in queries:
        if single.execute(query).rows != expected[id(query)]:
            raise AssertionError(f"{name}: single-engine mismatch for\n{query}")

    routers = {}
    for shards in shard_counts:
        router = build_topology(
            database, workload.access_schema, shards=shards, result_cache_size=0
        )
        for query in queries:
            rows = router.execute(query).rows
            if rows != expected[id(query)]:
                raise AssertionError(
                    f"{name}: federated rows ({shards} shards) differ from the "
                    f"reference ({len(rows)} vs {len(expected[id(query)])}) for:\n{query}"
                )
        routers[shards] = router

    single_qps = _throughput(single, queries, repeats)
    per_topology = {}
    for shards, router in routers.items():
        qps = _throughput(router, queries, repeats)
        scatter = router.metrics.snapshot()
        scatter.pop("shard_latency", None)  # per-shard quantiles stay in soak reports
        per_topology[str(shards)] = {
            "qps": round(qps, 2),
            "ratio": round(qps / single_qps, 3) if single_qps else None,
            "backends": [shard.kind for shard in router.shards],
            "scatter_gather": scatter,
        }

    writes_applied = _check_write_identity(
        workload, queries, scale=scale, shards=max(shard_counts), batch_size=8
    )
    replicated = _bench_replicated(
        workload, queries, expected, single_qps,
        scale=scale, shards=min(shard_counts), repeats=repeats,
    )

    top = per_topology[str(max(shard_counts))]
    return {
        "workload": name,
        "scale": scale,
        "queries": len(queries),
        "single_qps": round(single_qps, 2),
        "topologies": per_topology,
        "federated_qps": top["qps"],
        "federated_ratio": top["ratio"],
        "replicated": replicated,
        "write_identity_updates": writes_applied,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scale / few repeats (CI mode)")
    parser.add_argument("--scale", type=int, default=None, help="workload scale")
    parser.add_argument("--queries", type=int, default=None,
                        help="covered queries per workload")
    parser.add_argument("--repeats", type=int, default=None,
                        help="passes over the query set")
    parser.add_argument("--shards", type=int, nargs="+", default=None,
                        help="shard counts to measure (default: 2 4, quick: 2 3)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (100 if args.quick else 200)
    query_count = args.queries if args.queries is not None else (3 if args.quick else 5)
    repeats = args.repeats if args.repeats is not None else (5 if args.quick else 20)
    shard_counts = tuple(args.shards) if args.shards else ((2, 3) if args.quick else (2, 4))

    results = []
    for name in sorted(WORKLOADS):
        result = bench_workload(
            name, scale=scale, query_count=query_count, repeats=repeats,
            shard_counts=shard_counts,
        )
        results.append(result)
        if "skipped" in result:
            print(f"{name}: skipped ({result['skipped']})")
            continue
        per = ", ".join(
            f"{shards}sh {data['qps']:.1f} q/s ({data['ratio']:.2f}x)"
            for shards, data in result["topologies"].items()
        )
        print(
            f"{name}: single {result['single_qps']:.1f} q/s | {per} | "
            f"rows identical, {result['write_identity_updates']} routed updates verified"
        )
        replicated = result["replicated"]
        replication = replicated["replication"]
        print(
            f"{name}: replicated x{replicated['replicas']} "
            f"{replicated['qps']:.1f} q/s healthy, "
            f"{replicated['degraded_qps']:.1f} q/s with a replica killed "
            f"({replicated['degraded_ratio']}x) | "
            f"{replication['failovers']} failovers, "
            f"{replication['quarantines']} quarantines, rows identical"
        )

    measured = [r for r in results if r.get("federated_ratio") is not None]
    mean_ratio = (
        round(sum(r["federated_ratio"] for r in measured) / len(measured), 3)
        if measured
        else None
    )
    report = {
        "benchmark": "federated",
        "mode": "quick" if args.quick else "full",
        "scale": scale,
        "repeats": repeats,
        "shard_counts": list(shard_counts),
        "workloads": results,
        "mean_federated_ratio": mean_ratio,
    }
    print(f"mean federated/single throughput ratio (at {max(shard_counts)} shards): {mean_ratio}x")

    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
