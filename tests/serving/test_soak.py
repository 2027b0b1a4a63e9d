"""The seeded chaos soak, exercised end to end at test scale.

The configurations here are small but real: faults armed at every seam,
every served read cross-checked against the uncached reference evaluator.
Determinism makes pinning a seed sound — the same seed replays the same
schedule bit for bit.
"""

from functools import partial

import pytest

from repro.core.errors import ReproError
from repro.serving import soak
from repro.serving.server import BoundedServer
from repro.serving.soak import SoakConfig, run_soak

#: a server clock that stands still: no verdict reads elapsed time, so no
#: deadline runs out and an open breaker never cools down — only requests
#: built with a zero timeout are expired
FROZEN = partial(BoundedServer, clock=lambda: 0.0)

QUICK = dict(
    scale=40,
    requests=60,
    seed=11,
    queue_depth=8,
    covered_queries=4,
    uncovered_queries=2,
)

#: what the QUICK soak does on a frozen clock, whatever the hash seed
QUICK_OUTCOME = dict(
    reads_served=60,
    reads_verified=60,
    writes_ok=8,
    writes_partial=3,
    writes_rejected=1,
    shed_overload=37,
    shed_deadline=3,
    hot_burst_served=24,
    rejected_breaker=3,
    failed_transient=1,
    covered_fallbacks=0,
    reads_nonempty=0,
)
#: fault seam -> (calls, injected) on that soak
QUICK_FAULTS = {"executor": (22, 3), "fallback": (3, 3), "storage.write": (63, 3)}


class TestSoak:
    def test_an_unknown_workload_is_refused_before_anything_runs(self):
        with pytest.raises(ReproError, match="unknown workload 'nope'; pick one of"):
            run_soak(SoakConfig(workload="nope"))

    def test_seeded_chaos_soak_passes(self, monkeypatch):
        monkeypatch.setattr(soak, "BoundedServer", FROZEN)
        report = run_soak(SoakConfig(**QUICK))
        failed = [check for check, ok in report["checks"].items() if not ok]
        assert report["passed"], f"failed checks: {failed}\noutcome: {report['outcome']}"
        assert report["outcome"]["reads_verified"] > 0
        assert report["outcome"]["mismatches"] == []
        # The breaker kept the covered path off the failing fallback: counted
        # on the ladders, not timed (the p99 is reported, not judged).
        assert report["checks"]["covered_reads_never_fell_back"]
        assert report["outcome"]["covered_fallbacks"] == 0
        assert "covered_p99_below_fallback_floor" not in report["checks"]
        assert "covered_p99_ms" in report  # reported, never judged (0 on a frozen clock)
        # the breaker trips on its third failure and, never cooling down, stays open
        breaker = report["server"]["breaker"]
        assert (breaker["times_opened"], breaker["failures"]) == (1, 3)
        # The chaos actually happened: faults were injected at every seam.
        assert report["faults"]["fallback"]["injected"] > 0
        assert report["faults"]["storage.write"]["injected"] > 0
        # and the write that would break a bound was turned away, not applied
        assert report["checks"]["violating_write_rejected"]
        assert report["outcome"]["writes_rejected"] == 1

    def test_soak_without_faults_passes_clean(self, monkeypatch):
        monkeypatch.setattr(soak, "BoundedServer", FROZEN)
        report = run_soak(SoakConfig(**{**QUICK, "requests": 30}, faults=False))
        assert report["passed"], report["checks"]
        assert "breaker_opened" not in report["checks"]  # fault checks not demanded
        assert report["outcome"]["writes_partial"] == 0
        assert report["outcome"]["failed_transient"] == 0

    def test_soak_is_deterministic_per_seed(self, monkeypatch):
        # Exact figures, the same under every hash seed: on a frozen clock
        # nothing in the schedule reads time or set order.
        monkeypatch.setattr(soak, "BoundedServer", FROZEN)
        first = run_soak(SoakConfig(**QUICK))
        second = run_soak(SoakConfig(**QUICK))
        assert first["outcome"] == second["outcome"]
        assert first["faults"] == second["faults"]
        outcome = {key: first["outcome"][key] for key in QUICK_OUTCOME}
        assert outcome == QUICK_OUTCOME
        faults = {
            seam: (counts["calls"], counts["injected"])
            for seam, counts in first["faults"].items()
        }
        assert faults == QUICK_FAULTS

    def test_hit_heavy_soak_sheds_work_and_serves_every_hit(self, monkeypatch):
        # CI's TFACC seed-1 soak at a third of its scale.  By the end of the
        # traffic every covered query is cached, so what a burst does to the
        # queue depends on what queues: 3x its depth of hits are all served
        # inside ``submit``, 3x its depth of misses are shed down to it.
        # On the frozen clock only phase E's probes are expired.
        monkeypatch.setattr(soak, "BoundedServer", FROZEN)
        config = SoakConfig(workload="TFACC", scale=40, requests=200, seed=1)
        report = run_soak(config)
        failed = [check for check, ok in report["checks"].items() if not ok]
        assert report["passed"], f"failed checks: {failed}\noutcome: {report['outcome']}"
        burst = config.queue_depth * 3
        assert report["outcome"]["hot_burst_served"] == burst
        assert report["outcome"]["shed_overload"] == burst - config.queue_depth
        assert report["outcome"]["shed_deadline"] == 3  # phase E's probes, no other
        # the breaker trips on its third failure and, never cooling down, stays open
        breaker = report["server"]["breaker"]
        assert (breaker["times_opened"], breaker["failures"]) == (1, 3)
        serving = report["server"]["serving"]
        assert serving["inline_hits"] >= burst
        assert serving["queue_depth_peak"] == config.queue_depth
