"""Smoke test of the layered benchmark: every workload at a hundredth of its work.

Asserts only what does not depend on the machine's speed: that every metric
``BENCHMARK.json`` declares comes out, with its unit; that the cache hit
ratios are what each workload was built to produce; that the layers' self
times account for the traced latency; and that a traced run leaves no
wrapper behind for the tests that follow.
"""

from __future__ import annotations

import json

import pytest

from layered import run, trace
from layered.queries import ShapeCatalog
from layered.workloads import WORKLOADS, Budget
from repro.workloads import WORKLOADS as DATASETS

#: measured operations per workload: 1/100 of a full-length run on the
#: machine the benchmark was sized on
SMOKE_OPS = {
    "hot_hits": 8000,
    "plan_churn": 5,
    "exec_miss": 700,
    "served_mix": 120,
    "federated": 800,
}


@pytest.fixture(scope="module")
def catalog() -> ShapeCatalog:
    return ShapeCatalog(DATASETS[run.DATASET])


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads(run.CONTRACT.read_text(encoding="utf-8"))


def test_contract_names_every_workload(contract):
    # plan_churn runs with the suite but is too unsteady for the driver's check
    assert [w["name"] for w in contract["workloads"]] == [w for w in WORKLOADS if w != "plan_churn"]
    assert contract["paths"] == ["benchmarks/layered"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload(name, catalog, contract):
    budget = Budget(ops=SMOKE_OPS[name])
    workload, setup_s = run.set_up(WORKLOADS[name], catalog, seed=7)
    try:
        end_to_end = run.end_to_end(workload, run.timed_replays(workload, budget))
        layers = run.measure_layers(workload, budget, spans=None)
        assert trace.installed() == [], "a traced run left wrappers installed"
        wrong, first = workload.verify()
    finally:
        workload.close()

    assert setup_s > 0
    assert (wrong, first) == (0, None)
    for record in (end_to_end, layers):
        assert record["failed"] == 0, record["errors"]
        assert record["errors"] == []

    declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert set(declared) - {"setup_s"} <= set(end_to_end["metrics"])
    assert all(end_to_end["metrics"][m] > 0 for m in declared if m != "setup_s")
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert set(per_layer) <= set(layers["metrics"])
    assert all(unit for unit in (declared | per_layer).values())

    metrics = layers["metrics"]
    assert metrics["plan_store.hit_ratio"] == (0.0 if name == "plan_churn" else 1.0)
    if name == "exec_miss":
        assert metrics["result_cache.hit_ratio"] == 0.0
    if name == "hot_hits":
        assert metrics["result_cache.hit_ratio"] >= 0.99
    if name == "served_mix":
        assert metrics["deltas.patched_ratio"] > 0
        assert metrics["deltas.rows_patched_per_write"] > 0
    # the prediction and coverage checks of a full traced run hold here too
    assert run.broken_predictions(name, layers) == []
