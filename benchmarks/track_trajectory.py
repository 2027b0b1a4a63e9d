"""Perf-trajectory tracking: append bench reports, gate on regressions.

Reads the JSON report written by ``bench_hot_path.py``, appends a compact
entry to a tracked time series (``BENCH_trajectory.json``), and **fails**
(exit code 1) when warm-path throughput regressed more than ``--threshold``
(default 30%) against the previous recorded entry of the same mode.

The comparison is the geometric mean of per-workload ``warm_qps`` ratios —
robust to workloads with very different absolute throughput.  Entries of
different modes (``--quick`` vs full) are never compared against each other,
and absolute throughput is only compared between entries recorded on the
**same host**: against an entry from a different machine (e.g. a laptop
baseline vs a CI runner) the gate falls back to the dimensionless
``mean_result_cache_speedup`` (warm/warm-plan ratio: what a result-cache hit
wins over executing a stored plan), independently of how fast the hardware
is.  The warm/cold ``mean_speedup`` is recorded but not gated: its
denominator is the cold prepare, so a *faster* prepare lowers it — the cost
of a plan-store miss is tracked on its own as ``cold_prepare_ms``.  Cold-path
execution throughput (``cold_qps``, from the analytic-query scenario) is
gated the same way, with the dimensionless columnar/row speedup as its
cross-host fallback; so is delta-maintenance throughput (``delta_qps``,
from the dependent-write scenario), with ``mean_delta_warm_ratio``
(delta/warm read throughput) as its cross-host fallback — the
repair/invalidate ``mean_delta_speedup`` is recorded but not gated, because
its invalidate baseline re-prepares and so also moves with the cold prepare.

Usage (as wired into CI)::

    PYTHONPATH=src python benchmarks/bench_hot_path.py --quick --output BENCH_hot_path.json
    python benchmarks/track_trajectory.py --bench BENCH_hot_path.json \
        --trajectory BENCH_trajectory.json
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path


def _git_commit() -> str | None:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return None
    return head.stdout.strip() or None if head.returncode == 0 else None


def serving_summary(soak_report: dict) -> dict:
    """The compact serving-tier summary merged into a trajectory entry.

    Pulls the operational health numbers out of a soak report
    (``repro.cli soak --output``): queue pressure, shed counts by reason,
    covered-path latency quantiles, breaker activity, and whether every
    robustness check held.
    """
    serving = soak_report.get("server", {}).get("serving", {})
    breaker = soak_report.get("server", {}).get("breaker", {})
    latency = serving.get("latency", {})
    covered = {
        key: latency[key]
        for key in ("bounded", "result_cache")
        if key in latency
    }
    return {
        "passed": soak_report.get("passed"),
        "queue_depth_peak": serving.get("queue_depth_peak"),
        "sheds": serving.get("sheds", {}),
        "covered_p99_ms": soak_report.get("covered_p99_ms"),
        "latency": covered,
        "breaker_times_opened": breaker.get("times_opened"),
        "write_failures": serving.get("write_failures"),
    }


def federated_summary(federated_report: dict) -> dict:
    """The compact scatter/gather summary merged into a trajectory entry.

    Pulls per-workload federated throughput (at the largest measured shard
    count) out of a ``bench_federated.py`` report, plus the dimensionless
    federated/single ratio used for cross-host comparisons and the merge
    statistics worth tracking over time.
    """
    federated_qps = {}
    merge_rows_mean = {}
    replicated_qps = {}
    degraded_ratio = {}
    replication_counters = {}
    for workload in federated_report.get("workloads", []):
        if workload.get("federated_qps") is None:
            continue
        name = workload["workload"]
        federated_qps[name] = workload["federated_qps"]
        top = workload.get("topologies", {})
        if top:
            largest = top[max(top, key=int)]
            merge_rows_mean[name] = largest.get("scatter_gather", {}).get(
                "merge_rows_mean"
            )
        replicated = workload.get("replicated")
        if replicated:
            replicated_qps[name] = replicated.get("qps")
            degraded_ratio[name] = replicated.get("degraded_ratio")
            replication = replicated.get("replication", {})
            for counter in ("failovers", "quarantines", "catch_ups", "rows_resynced"):
                replication_counters[counter] = (
                    replication_counters.get(counter, 0)
                    + (replication.get(counter) or 0)
                )
    summary = {
        "shard_counts": federated_report.get("shard_counts"),
        "federated_qps": federated_qps,
        "mean_federated_ratio": federated_report.get("mean_federated_ratio"),
        "merge_rows_mean": merge_rows_mean,
    }
    if replicated_qps:
        # Replication health travels with the throughput numbers: a bench
        # run whose kill-one-replica pass stopped failing over (or started
        # quarantining everything) shows up in the trajectory, not just in
        # soak artifacts.
        summary["replicated_qps"] = replicated_qps
        summary["replica_degraded_ratio"] = degraded_ratio
        summary["replication"] = replication_counters
    return summary


def entry_from_report(report: dict) -> dict:
    """The compact trajectory entry for one bench report."""
    warm_qps = {
        w["workload"]: w["warm_qps"]
        for w in report.get("workloads", [])
        if "warm_qps" in w
    }
    mixed_speedup = {
        m["workload"]: m["speedup"]
        for m in report.get("mixed", [])
        if m.get("speedup") is not None
    }
    cold_qps = {
        c["workload"]: c["cold_qps"]
        for c in report.get("cold_path", [])
        if c.get("cold_qps")
    }
    delta_qps = {
        d["workload"]: d["delta_qps"]
        for d in report.get("delta", [])
        if d.get("delta_qps")
    }
    measured = [
        w for w in report.get("workloads", [])
        if w.get("cold_qps") and w.get("warm_plan_qps") and w.get("warm_qps")
    ]
    # what a plan-store miss adds to one query over a plan-store hit
    cold_prepare_ms = {
        w["workload"]: round(1000 / w["cold_qps"] - 1000 / w["warm_plan_qps"], 3)
        for w in measured
    }
    result_cache_speedup = (
        round(sum(w["warm_qps"] / w["warm_plan_qps"] for w in measured) / len(measured), 3)
        if measured else None
    )
    delta_warm = [
        qps / warm_qps[name] for name, qps in delta_qps.items() if warm_qps.get(name)
    ]
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": _git_commit(),
        "host": platform.node() or "unknown",
        "mode": report.get("mode", "unknown"),
        "warm_qps": warm_qps,
        "mean_speedup": report.get("mean_speedup"),
        "mean_result_cache_speedup": result_cache_speedup,
        "cold_prepare_ms": cold_prepare_ms,
        "mixed_speedup": mixed_speedup,
        "cold_qps": cold_qps,
        "mean_columnar_speedup": report.get("mean_columnar_speedup"),
        "delta_qps": delta_qps,
        "mean_delta_speedup": report.get("mean_delta_speedup"),
        "mean_delta_warm_ratio": (
            round(sum(delta_warm) / len(delta_warm), 3) if delta_warm else None
        ),
    }


def regression_ratio(
    previous: dict, current: dict, key: str = "warm_qps"
) -> float | None:
    """Geometric-mean ratio of current/previous per-workload throughput under
    ``key`` (``None`` when the entries share no measured workload)."""
    shared = [
        name
        for name, qps in previous.get(key, {}).items()
        if qps and current.get(key, {}).get(name)
    ]
    if not shared:
        return None
    logs = [
        math.log(current[key][name] / previous[key][name])
        for name in shared
    ]
    return math.exp(sum(logs) / len(logs))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=Path, default=Path("BENCH_hot_path.json"),
                        help="bench report to record (from bench_hot_path.py)")
    parser.add_argument("--trajectory", type=Path, default=Path("BENCH_trajectory.json"),
                        help="tracked time-series file to append to")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max tolerated warm-qps regression (0.30 = 30%%)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record the entry but never fail")
    parser.add_argument("--serving", type=Path,
                        help="soak report (repro.cli soak --output) whose serving "
                             "metrics join this entry (queue peak, sheds, p50/p99)")
    parser.add_argument("--federated", type=Path,
                        help="federated bench report (bench_federated.py --output) "
                             "whose scatter/gather throughput joins this entry and "
                             "is gated like the warm-path numbers")
    args = parser.parse_args(argv)

    report = json.loads(args.bench.read_text())
    entry = entry_from_report(report)
    if args.serving:
        entry["serving"] = serving_summary(json.loads(args.serving.read_text()))
    if args.federated:
        entry["federated"] = federated_summary(json.loads(args.federated.read_text()))

    if args.trajectory.exists():
        trajectory = json.loads(args.trajectory.read_text())
    else:
        trajectory = {"benchmark": "hot_path", "entries": []}

    previous = next(
        (e for e in reversed(trajectory["entries"]) if e.get("mode") == entry["mode"]),
        None,
    )
    trajectory["entries"].append(entry)
    args.trajectory.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(
        f"recorded entry #{len(trajectory['entries'])} "
        f"(mode={entry['mode']}, commit={entry['commit']}) in {args.trajectory}"
    )

    if previous is None:
        print("no previous entry of this mode: nothing to gate against")
        return 0
    same_host = previous.get("host") == entry["host"]
    gates: list[tuple[str, float | None]] = []
    if same_host:
        gates.append(("warm throughput", regression_ratio(previous, entry)))
    else:
        # Different hardware: absolute qps is not comparable; gate on the
        # warm/warm-plan ratio, which is machine-independent.  (Not warm/cold:
        # a faster cold prepare would read as a regression.)
        prev_speedup = previous.get("mean_result_cache_speedup")
        cur_speedup = entry["mean_result_cache_speedup"]
        ratio = (cur_speedup / prev_speedup) if prev_speedup and cur_speedup else None
        gates.append((f"warm/warm-plan speedup (cross-host vs {previous.get('host')})", ratio))
    if entry.get("cold_qps") and previous.get("cold_qps"):
        if same_host:
            gates.append((
                "cold-path throughput",
                regression_ratio(previous, entry, key="cold_qps"),
            ))
        else:
            # Cross-host fallback for the cold path: the columnar/row speedup
            # is dimensionless, like the warm/cold speedup.
            prev_cs = previous.get("mean_columnar_speedup")
            cur_cs = entry.get("mean_columnar_speedup")
            gates.append((
                "columnar/row speedup (cross-host)",
                (cur_cs / prev_cs) if prev_cs and cur_cs else None,
            ))
    if entry.get("delta_qps") and previous.get("delta_qps"):
        if same_host:
            gates.append((
                "delta-repair throughput",
                regression_ratio(previous, entry, key="delta_qps"),
            ))
        else:
            # Cross-host fallback for delta maintenance: read throughput
            # under repaired writes relative to undisturbed warm reads.
            prev_ds = previous.get("mean_delta_warm_ratio")
            cur_ds = entry.get("mean_delta_warm_ratio")
            gates.append((
                "delta/warm ratio (cross-host)",
                (cur_ds / prev_ds) if prev_ds and cur_ds else None,
            ))
    if "federated" in entry and "federated" in previous:
        if same_host:
            gates.append((
                "federated throughput",
                regression_ratio(
                    previous["federated"], entry["federated"], key="federated_qps"
                ),
            ))
        else:
            # Cross-host fallback for the federation: the federated/single
            # ratio is dimensionless, like the warm/cold speedup.
            prev_ratio = previous["federated"].get("mean_federated_ratio")
            cur_ratio = entry["federated"].get("mean_federated_ratio")
            gates.append((
                "federated/single ratio (cross-host)",
                (cur_ratio / prev_ratio) if prev_ratio and cur_ratio else None,
            ))

    failed = False
    compared = False
    for metric, ratio in gates:
        if ratio is None:
            print(f"{metric}: no comparable number with the previous entry")
            continue
        compared = True
        print(
            f"{metric} vs previous run ({previous.get('commit')}): "
            f"{ratio:.2f}x (gate: >= {1 - args.threshold:.2f}x)"
        )
        if not args.no_gate and ratio < 1 - args.threshold:
            print(
                f"FAIL: {metric} regressed more than "
                f"{args.threshold:.0%} vs the previous recorded run",
                file=sys.stderr,
            )
            failed = True
    if not compared:
        print("no comparable metric with the previous entry: gate skipped")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
