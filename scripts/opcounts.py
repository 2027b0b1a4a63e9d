"""Opcodes per operation on the layered benchmark's own systems and queries.

Wall time on a shared machine moves with its load; the number of
Python opcodes an operation executes does not.  This script sets up the
layered benchmark's workloads (``benchmarks/layered``, imported, never
changed) and counts, with ``sys.settrace`` opcode events:

* ``hot_hits``: one read of each query, every one a result-cache hit;
* ``exec_miss``: one read of each query with the result cache off, point and
  wide reads apart (every read runs its stored plan's kernels);
* ``federated``: one read of each query over the 3-shard federation;
* ``served_mix``: the request sequence replayed straight into the engine,
  reads through ``execute`` and write batches through ``apply_updates``;
  only the writes are counted.

Each read is counted after the workload's own warm-up, so plans are stored
and compiled.  Counts compare across processes only under a fixed hash seed
(``QPlan`` picks among equally good derivations in hash order)::

    PYTHONHASHSEED=1 python scripts/opcounts.py [--seed 7] [--json]

Compare two commits by running it in each checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "benchmarks", ROOT / "src"):
    sys.path.insert(0, str(path))

from layered.queries import POINT, ShapeCatalog  # noqa: E402
from layered.workloads import ExecMiss, Federated, HotHits, ServedMix  # noqa: E402
from repro.serving.server import WriteRequest  # noqa: E402
from repro.workloads import WORKLOADS as DATASETS  # noqa: E402

DATASET = "TFACC"


def opcodes(call) -> tuple[int, int]:
    """``(opcodes, Python calls)`` executed by ``call()``."""
    counts = [0, 0]

    def tracer(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        elif event == "call":
            counts[1] += 1
            frame.f_trace_opcodes = True
        return tracer

    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
    return counts[0], counts[1]


def summary(samples: list[tuple[int, int]]) -> dict[str, float]:
    ops = [s[0] for s in samples]
    return {
        "operations": len(samples),
        "opcodes_mean": round(statistics.fmean(ops), 1),
        "opcodes_median": statistics.median(ops),
        "calls_mean": round(statistics.fmean(s[1] for s in samples), 1),
    }


def reads(workload) -> dict[str, dict[str, float]]:
    """One counted read of each of ``workload``'s queries, by class."""
    by_class: dict[str, list[tuple[int, int]]] = {}
    execute = workload.system.execute
    for bench in workload.queries:
        sample = opcodes(lambda: execute(bench.query))
        by_class.setdefault("point" if bench.tag == POINT else "wide", []).append(sample)
    return {tag: summary(samples) for tag, samples in sorted(by_class.items())}


def writes(workload: ServedMix) -> dict[str, float]:
    """Every write batch of one replay of ``served_mix``'s sequence, counted."""
    engine, samples = workload.engine, []
    for _qid, request in workload.ops:
        if isinstance(request, WriteRequest):
            samples.append(opcodes(lambda: engine.apply_updates(request.updates)))
        else:
            engine.execute(request.query)
    return summary(samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    catalog = ShapeCatalog(DATASETS[DATASET])
    report: dict[str, object] = {"PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED")}
    for cls in (HotHits, ExecMiss, Federated, ServedMix):
        workload = cls(catalog, args.seed)
        workload.set_up()
        try:
            if cls is ServedMix:
                report[cls.name] = {"write": writes(workload)}
            else:
                report[cls.name] = reads(workload)
        finally:
            workload.close()
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    if report["PYTHONHASHSEED"] is None:
        print("# PYTHONHASHSEED is unset: counts vary from process to process")
    print(f"{'workload':<12} {'operation':<8} {'n':>4} {'opcodes/op':>12} {'median':>9} {'calls/op':>9}")
    for name, classes in report.items():
        if name == "PYTHONHASHSEED":
            continue
        for operation, row in classes.items():
            print(
                f"{name:<12} {operation:<8} {row['operations']:>4} "
                f"{row['opcodes_mean']:>12,.1f} {row['opcodes_median']:>9,} {row['calls_mean']:>9,.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
