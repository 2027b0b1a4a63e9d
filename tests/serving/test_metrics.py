"""Window semantics of :class:`~repro.serving.metrics.LatencyRecorder`."""

from repro.serving.metrics import LatencyRecorder


def test_window_keeps_the_most_recent_cap_samples_per_key():
    recorder = LatencyRecorder(cap=4)
    for value in range(1, 11):
        recorder.observe("bounded", float(value))
    recorder.observe("fallback", 0.5)
    # 7, 8, 9, 10 are left: the oldest samples fell out one at a time
    assert recorder.count("bounded") == 4
    assert recorder.percentile("bounded", 0) == 7.0
    assert recorder.percentile("bounded", 50) == 8.0
    assert recorder.percentile("bounded", 100) == 10.0
    assert recorder.count("fallback") == 1
    assert recorder.snapshot()["bounded"] == {
        "count": 4, "p50_ms": 8000.0, "p95_ms": 10000.0, "p99_ms": 10000.0, "max_ms": 10000.0,
    }


def test_below_cap_nothing_is_dropped_and_unknown_keys_are_empty():
    recorder = LatencyRecorder(cap=4)
    for value in (0.3, 0.1, 0.2):
        recorder.observe("bounded", value)
    assert recorder.count("bounded") == 3
    assert recorder.percentile("bounded", 50) == 0.2
    assert recorder.count("missing") == 0
    assert recorder.percentile("missing", 50) is None
    assert "missing" not in recorder.snapshot()
