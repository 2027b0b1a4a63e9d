"""The layered serving benchmark: end-to-end latency and per-layer self time.

One workload, as the benchmark driver runs it (the last line of the output
is the result as one JSON object)::

    python3 benchmarks/layered/run.py --workload hot_hits --seed 7 --seconds 16 --trace 0

All five workloads, untraced and traced, every metric by name with its unit::

    python3 benchmarks/layered/run.py --seed 7 [--out results.json]

``--trace 0`` measures what a caller sees, with no wrapper installed;
``--trace 1`` measures where the time goes, with the spans of ``trace.py``.
``--repeat N`` runs the suite N times and checks the sets against each
other, ``--seeds N`` runs it under N seeds and prints each metric's spread,
and ``--compare A.json B.json`` checks the results of B against those of A.
All three exit non-zero when a metric moves by more than its bound in
``BENCHMARK.json``.  See ``README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = ROOT / "BENCHMARK.json"

if not (ROOT / "src" / "repro").is_dir() or not CONTRACT.is_file():
    sys.exit(f"{ROOT} holds no src/repro and BENCHMARK.json: nothing to measure")
# Run as a script, sys.path starts with this directory, where ``trace.py``
# would shadow the standard library's ``trace``: import it as ``layered.trace``.
if sys.path and Path(sys.path[0]).resolve() == HERE:
    sys.path[0] = str(HERE.parent)
for path in (HERE.parent, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from layered.queries import ShapeCatalog  # noqa: E402
from layered.trace import Installation, Tracer, layer_metrics, self_time_ns  # noqa: E402
from layered.workloads import WORKLOADS, Budget, Stretch, Workload  # noqa: E402
from repro.workloads import WORKLOADS as DATASETS  # noqa: E402

DATASET = "TFACC"
#: systems an untraced run sets up and measures; ``setup_s`` is the median
SETUPS = 3
#: shares of ``--seconds`` a traced run spends without and with the wrappers
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.6
#: a workload process that is still running after this many seconds is killed
WALL_CEILING_S = 150


def contract() -> dict:
    return json.loads(CONTRACT.read_text(encoding="utf-8"))


def percentile(ordered: list[int], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def mean_us(stretch: Stretch) -> float:
    samples = stretch.read_ns + stretch.write_ns
    return sum(samples) / len(samples) / 1000


def set_up(cls: type[Workload], catalog: ShapeCatalog, seed: int) -> tuple[Workload, float]:
    """A set-up workload and the seconds its set-up took.

    Planning the catalog's shapes is the harness classifying its own queries,
    not something the program does for a caller: it is left out of the time.
    """
    workload = cls(catalog, seed)
    planned = catalog.planning_seconds
    started = perf_counter()
    workload.set_up()
    elapsed = perf_counter() - started
    return workload, elapsed - (catalog.planning_seconds - planned)


def split(budget: Budget, share: float) -> Budget:
    return Budget(
        seconds=budget.seconds * share if budget.seconds is not None else None,
        ops=max(1, round(budget.ops * share)) if budget.ops is not None else None,
    )


# -- one workload ----------------------------------------------------------------

def settle(workload: Workload) -> None:
    """The untimed replays that bring ``workload`` to the state it stays in."""
    for _ in range(workload.settle):
        workload.cursor = 0
        workload.run(Budget(ops=workload.period))


def timed_replays(workload: Workload, budget: Budget) -> list[Stretch]:
    """Replay the request sequence from its start until ``budget`` is spent.

    Replays are whole (the last one of an ``--ops`` budget may stop short),
    so every replay sends request ``i`` of the sequence to a system in the
    same state: all that differs between two replays is what the machine
    did meanwhile.  An ``--ops`` budget counts every operation the system
    serves, so nothing settles first.
    """
    gc.collect()
    if budget.ops is None:
        settle(workload)
    stretches: list[Stretch] = []
    spent, left = 0.0, budget.ops
    while True:
        workload.cursor = 0
        ops = workload.period if left is None else min(left, workload.period)
        stretches.append(workload.run(Budget(ops=ops)))
        spent += stretches[-1].wall_ns / 1e9
        if left is not None:
            left -= ops
            if left <= 0:
                return stretches
        elif budget.seconds is None or spent >= budget.seconds:
            return stretches


def fastest(stretches: list[Stretch], period: int) -> tuple[list[int], list[int]]:
    """Each request's shortest latency over the replays: ``(reads, writes)`` in ns.

    The VM this was sized on runs 15-40 % slower for up to twenty seconds
    every minute or two, and between those phases a neighbour slows single
    operations; it never runs faster than it can, so noise only ever adds
    time.  Percentiles pooled over a run, and medians or quartiles over
    replays, moved by 13-25 % between runs of the same code.  The shortest
    of the K times request ``i`` was served is what it costs when the
    machine does not interfere, and it moved by 5-7 %.  What it hides is
    whatever the program itself does only now and then (a collector pause,
    a periodic sweep): the pooled percentiles are printed beside it as notes.
    """
    reads: list[int | None] = [None] * period
    writes: list[int | None] = [None] * period
    for stretch in stretches:
        for best, places, samples in (
            (reads, stretch.read_at, stretch.read_ns),
            (writes, stretch.write_at, stretch.write_ns),
        ):
            for at, ns in zip(places, samples):
                known = best[at]
                if known is None or ns < known:
                    best[at] = ns
    return [ns for ns in reads if ns is not None], [ns for ns in writes if ns is not None]


def end_to_end(workload: Workload, stretches: list[Stretch]) -> dict:
    """What a caller of the system sees, from the timed replays of ``--trace 0``."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reads, writes = (sorted(found) for found in fastest(stretches, workload.period))
    pooled = sorted(ns for stretch in stretches for ns in stretch.read_ns)
    rates = [len(s.read_ns) / (s.wall_ns / 1e9) for s in stretches if s.read_ns]
    notes = {
        "replays": len(stretches),
        "reads_per_replay": len(reads),
        "writes_per_replay": len(writes),
        "pooled_read_p50_p95_p99_us": [percentile(pooled, q) / 1000 for q in (0.5, 0.95, 0.99)],
        "replay_read_qps_min_max": [min(rates), max(rates)],
    }
    if writes:
        notes["write_p50_us"] = percentile(writes, 0.50) / 1000
        notes["write_p95_us"] = percentile(writes, 0.95) / 1000
    return {
        "attempted": sum(stretch.ops for stretch in stretches),
        "failed": sum(stretch.failed for stretch in stretches),
        "metrics": {
            "read_p50_us": percentile(reads, 0.50) / 1000,
            "read_p95_us": percentile(reads, 0.95) / 1000,
            # every client of a closed loop is always waiting for one
            # operation, so the latencies of a replay add up to its wall
            # time once per client
            "read_qps": len(reads) * workload.clients / ((sum(reads) + sum(writes)) / 1e9),
            "peak_rss_mb": peak_rss_mb,
        },
        "notes": notes,
        "errors": [s.error for s in stretches if s.error],
    }


#: what the layer table of README.md predicts, checked on every traced run
PREDICTIONS: dict[str, dict[str, tuple[float, float]]] = {
    "hot_hits": {"plan_store.hit_ratio": (1.0, 1.0), "result_cache.hit_ratio": (0.99, 1.0)},
    "plan_churn": {"plan_store.hit_ratio": (0.0, 0.0)},
    "exec_miss": {"plan_store.hit_ratio": (1.0, 1.0), "result_cache.hit_ratio": (0.0, 0.0)},
    "served_mix": {
        "plan_store.hit_ratio": (1.0, 1.0),
        # the write stream must make the repair path patch rows, not re-stamp
        "deltas.patched_ratio": (1e-9, 1.0),
        "deltas.rows_patched_per_write": (1e-9, math.inf),
    },
    "federated": {"plan_store.hit_ratio": (1.0, 1.0)},
}
#: The self times of the layers must account for this share of the traced
#: latency.  What they miss is the call into the outermost wrapper, a
#: fraction of a microsecond that weighs more the faster the program gets,
#: so a remainder below the allowance passes whatever its share.
MIN_COVERAGE = 0.95
UNCOVERED_ALLOWANCE_US = 2.0


def broken_predictions(name: str, record: dict) -> list[str]:
    """What a traced run of workload ``name`` measured against what was predicted."""
    metrics = record["metrics"]
    broken = [
        f"{metric} is {metrics[metric]:.4f}, predicted within [{low}, {high}]"
        for metric, (low, high) in PREDICTIONS[name].items()
        if not low <= metrics[metric] <= high
    ]
    coverage = metrics["trace.coverage_ratio"]
    uncovered_us = (1 - coverage) * record["notes"]["traced_mean_us"]
    if coverage < MIN_COVERAGE and uncovered_us > UNCOVERED_ALLOWANCE_US:
        broken.append(
            f"layer self times cover {coverage:.4f} of the traced latency "
            f"({uncovered_us:.1f} us per operation unaccounted for)"
        )
    return broken


def measure_layers(workload: Workload, budget: Budget, spans: Path | None) -> dict:
    """The stretches of ``--trace 1``: where the time goes, from spans around the layers."""
    gc.collect()
    if budget.ops is None:
        settle(workload)
    untraced = workload.run(split(budget, UNTRACED_SHARE))
    tracer = Tracer()
    before = workload.counters()
    with Installation(tracer):
        traced = workload.run(split(budget, TRACED_SHARE), tracer)
    after = workload.counters()
    if spans is not None:
        tracer.write_spans(spans)

    reads, writes = len(traced.read_ns), len(traced.write_ns)
    metrics = layer_metrics(tracer, reads + writes, writes, mean_us(traced))
    metrics["trace.overhead_ratio"] = mean_us(traced) / mean_us(untraced)

    def moved(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def per(amount: float, base: float) -> float:
        return amount / base if base else 0.0

    metrics["server.queue_depth_max"] = after.get("server.queue_depth_peak", 0)
    metrics["server.shed_ratio"] = per(moved("server.sheds"), moved("server.submitted"))
    served_writes = sorted(untraced.write_ns)
    for name, share in (("server.write_p50_us", 0.50), ("server.write_p95_us", 0.95)):
        metrics[name] = percentile(served_writes, share) / 1000 if served_writes else 0.0
    metrics["router.shard_fetches_per_read"] = per(moved("router.shard_fetches"), reads)
    metrics["router.broadcast_ratio"] = per(moved("router.broadcasts"), moved("router.scatters"))
    metrics["router.merge_rows_per_read"] = per(moved("router.merge_rows"), reads)
    metrics["router.snapshot_retry_ratio"] = per(moved("router.snapshot_retries"), reads)
    metrics["shard_memory.partial_cache_hit_ratio"] = per(
        moved("shard_memory.partial_hits"),
        moved("shard_memory.partial_hits") + moved("shard_memory.partial_misses"),
    )

    notes = {
        "traced_ops": traced.ops,
        "untraced_ops": untraced.ops,
        "spans": len(tracer.spans),
        "traced_mean_us": mean_us(traced),
    }
    if writes:
        # which layers a read waits for and which a write: ops of both kinds
        # share the run, and the per-op metrics above average over them
        served_reads = {op for _, _, _, _, op in tracer.spans} - tracer.write_ops
        for kind, ops, total in (("read", served_reads, reads), ("write", tracer.write_ops, writes)):
            notes[f"self_us_per_{kind}"] = {
                layer: round(ns / 1000 / total, 1)
                for layer, ns in self_time_ns(tracer, ops).items()
                if ns
            }
    return {
        "attempted": untraced.ops + traced.ops,
        "failed": untraced.failed + traced.failed,
        "metrics": metrics,
        "notes": notes,
        "errors": [s.error for s in (untraced, traced) if s.error],
    }


def run_workload(name: str, seed: int, budget: Budget, trace: bool, spans: Path | None) -> int:
    """Measure one workload in this process; the last line printed is the result."""
    signal.alarm(WALL_CEILING_S)
    catalog = ShapeCatalog(DATASETS[DATASET])
    setups: list[float] = []
    stretches: list[Stretch] = []
    workload = None
    # An untraced run sets up SETUPS systems and gives each its share of the
    # time: the replays then lie further apart than a slow phase of the
    # machine lasts, and a request's shortest replay is taken over all of them.
    rounds = 1 if trace else SETUPS
    for _ in range(rounds):
        if workload is not None:
            # two systems alive at once would double the peak RSS reported
            workload.close()
            workload = None
            gc.collect()
        workload, seconds = set_up(WORKLOADS[name], catalog, seed)
        setups.append(seconds)
        if not trace:
            stretches += timed_replays(workload, split(budget, 1 / rounds))
    if trace:
        record = measure_layers(workload, budget, spans)
        record["errors"] += broken_predictions(name, record)
    else:
        record = end_to_end(workload, stretches)
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["notes"]["setup_s_all"] = setups
    record["notes"]["catalog_planning_s"] = catalog.planning_seconds
    started = perf_counter()
    wrong, first_wrong = workload.verify()
    record["notes"]["verify_s"] = perf_counter() - started
    workload.close()
    if first_wrong:
        record["errors"].append(first_wrong)
    record["attempted"] += len(workload.queries)
    record["failed"] += wrong
    correct = record["failed"] == 0 and not record["errors"]

    declared = contract()["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(record["metrics"]))
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(f"# {name}  seed={seed}  trace={int(trace)}")
    for metric, unit in units.items():
        print(f"{name}.{metric:<40} {record['metrics'][metric]:>16.4f} {unit}")
    for note, value in record["notes"].items():
        print(f"# {note}: {json.dumps(value)}")
    for error in record["errors"][:5]:
        print(f"# FAILED: {error}")
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": record["metrics"][metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


# -- the suite -------------------------------------------------------------------

def run_suite(seed: int, seconds: float, ops: int | None, traces=(0, 1)) -> dict:
    """Every workload in its own process (clean RSS and GC state), echoed as it ends."""
    results: dict[str, dict] = {}
    # all of them, also the one BENCHMARK.json leaves out (see README.md)
    for workload in WORKLOADS:
        results[workload] = {"correct": True}
        for trace in traces:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]  # fmt: skip
            if ops is not None:
                command += ["--ops", str(ops)]
            try:
                done = subprocess.run(
                    command, cwd=ROOT, capture_output=True, text=True,
                    timeout=WALL_CEILING_S + 10,
                )  # fmt: skip
            except subprocess.TimeoutExpired:
                print(f"# FAILED: {workload} trace={trace} did not end in time")
                results[workload]["correct"] = False
                continue
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 and not (lines and lines[-1].startswith("{")):
                sys.stdout.write(done.stderr)
                print(f"# FAILED: {workload} trace={trace} exited with {done.returncode}")
                results[workload]["correct"] = False
                continue
            record = json.loads(lines[-1])
            results[workload]["per_layer" if trace else "end_to_end"] = {
                metric: entry["value"] for metric, entry in record["metrics"].items()
            }
            results[workload]["correct"] &= record["correct"]
    return results


def bounds() -> dict[str, tuple[str, float]]:
    return {m["name"]: (m["better"], m["bound"]) for m in contract()["end_to_end"]}


def bounded() -> set[str]:
    """The workloads ``BENCHMARK.json`` names: the others are reported, not judged."""
    return {entry["name"] for entry in contract()["workloads"]}


def by_metric(sets: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, end-to-end metric) -> its value in every result set."""
    values: dict[tuple[str, str], list[float]] = {}
    for results in sets:
        for workload, record in results.items():
            for metric, value in record.get("end_to_end", {}).items():
                values.setdefault((workload, metric), []).append(value)
    return values


def compare(base: list[dict], other: list[dict], *, both_ways: bool) -> int:
    """One row per (workload, metric): both medians, their ratio, and the verdict.

    ``other`` may be worse than ``base`` by the metric's bound, as a share of
    ``base``; with ``both_ways`` (two sets of the same code) neither side may
    be worse than the other.  Returns the number of rows out of bound.
    """
    before = {key: statistics.median(found) for key, found in by_metric(base).items()}
    after = {key: statistics.median(found) for key, found in by_metric(other).items()}
    limits, judged = bounds(), bounded()
    out = 0
    print(f"{'workload':<12} {'metric':<14} {'base':>14} {'other':>14} {'other/base':>11} {'bound':>6}")
    for workload, metric in sorted(before):
        better, bound = limits[metric]
        a, b = before[(workload, metric)], after.get((workload, metric))
        if b is None:
            print(f"{workload:<12} {metric:<14} {a:>14.4f} {'missing':>14}")
            out += 1
            continue
        worse = (b - a) / a if better == "lower" else (a - b) / a
        if both_ways:
            worse = abs(worse)
        verdict = "ok" if worse <= bound else "OUT OF BOUND"
        if workload not in judged:
            verdict += " (not judged)"
        else:
            out += worse > bound
        print(
            f"{workload:<12} {metric:<14} {a:>14.4f} {b:>14.4f} {b / a:>11.4f} "
            f"{bound:>6.2f}  {verdict}"
        )
    incorrect = {w for results in base + other for w, r in results.items() if not r["correct"]}
    for workload in sorted(incorrect):
        print(f"{workload:<12} reported a failure")
    return out + len(incorrect)


def spreads(sets: list[dict]) -> int:
    """Interquartile range over median of every end-to-end metric, against its bound."""
    limits, judged = bounds(), bounded()
    out = 0
    print(f"{'workload':<12} {'metric':<14} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for (workload, metric), found in sorted(by_metric(sets).items()):
        low, _, high = statistics.quantiles(found, n=4)
        spread = (high - low) / statistics.median(found)
        bound = limits[metric][1]
        # set-up time is bounded between medians, not within one set of runs
        wide = spread > bound and metric != "setup_s" and workload in judged
        out += wide
        print(
            f"{workload:<12} {metric:<14} {statistics.median(found):>14.4f} {spread:>11.4f} "
            f"{bound:>6.2f}  {'WIDER THAN BOUND' if wide else 'ok'}"
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="measure this one, here")
    parser.add_argument("--seed", type=int, default=7, help="seed of data, queries and sequence")
    parser.add_argument("--seconds", type=float, default=contract()["run_seconds"])
    parser.add_argument("--ops", type=int, help="measure this many operations, however long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here (JSON lines)")
    parser.add_argument("--out", type=Path, help="write the suite's result sets here (JSON)")
    parser.add_argument("--repeat", type=int, default=1, help="run the suite N times, compare")
    parser.add_argument("--seeds", type=int, help="run under N seeds, print metric spreads")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "OTHER"))
    args = parser.parse_args(argv)

    if args.compare:
        base, other = (json.loads(path.read_text())["sets"] for path in args.compare)
        return 1 if compare(base, other, both_ways=False) else 0
    if args.workload:
        budget = Budget(seconds=None if args.ops else args.seconds, ops=args.ops)
        return run_workload(args.workload, args.seed, budget, bool(args.trace), args.spans)

    if args.seeds:
        sets = [
            run_suite(args.seed + offset, args.seconds, args.ops, traces=(0,))
            for offset in range(args.seeds)
        ]
        bad = spreads(sets)
    else:
        sets = [run_suite(args.seed, args.seconds, args.ops) for _ in range(args.repeat)]
        bad = sum(compare(sets[:1], [later], both_ways=True) for later in sets[1:])
    bad += sum(not record["correct"] for results in sets for record in results.values())
    if args.out:
        args.out.write_text(json.dumps({"seed": args.seed, "sets": sets}, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
