"""MetricsRegistry: counters, histograms, snapshots, exposition formats."""

from __future__ import annotations

import pickle

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    diff_snapshots,
    registry,
    set_metrics_enabled,
)


def test_counter_inc_and_value():
    reg = MetricsRegistry()
    c = reg.counter("store.reads_total", "reads")
    c.inc()
    c.inc(4)
    assert reg.counter_value("store.reads_total") == 5
    assert reg.counter_value("store.never_touched_total") == 0


def test_counter_labels_are_distinct_series():
    reg = MetricsRegistry()
    reg.counter("plan.runs_total", op="knn").inc()
    reg.counter("plan.runs_total", op="agg").inc(2)
    assert reg.counter_value("plan.runs_total", op="knn") == 1
    assert reg.counter_value("plan.runs_total", op="agg") == 2


def test_instrument_identity_is_cached():
    reg = MetricsRegistry()
    assert reg.counter("a.b_total") is reg.counter("a.b_total")
    assert reg.counter("a.b_total", x="1") is not reg.counter("a.b_total", x="2")


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("serve.queue_depth")
    g.set(3.0)
    g.inc()
    g.dec(2.0)
    assert reg.snapshot()["gauges"]["serve.queue_depth"] == pytest.approx(2.0)


def test_histogram_quantiles_are_bucket_accurate():
    reg = MetricsRegistry()
    h = reg.histogram("q.seconds", buckets=(0.001, 0.01, 0.1, 1.0))
    for _ in range(99):
        h.observe(0.005)  # lands in the (0.001, 0.01] bucket
    h.observe(0.5)
    snap = reg.snapshot()["histograms"]["q.seconds"]
    assert snap["count"] == 100
    assert snap["sum"] == pytest.approx(99 * 0.005 + 0.5)
    # p50 interpolates inside the dominating bucket; p99+ reaches the tail.
    assert 0.001 <= h.quantile(0.50) <= 0.01
    assert 0.1 <= h.quantile(0.995) <= 1.0


def test_disabled_registry_is_a_noop():
    reg = MetricsRegistry(enabled=False)
    reg.counter("a_total").inc()
    reg.histogram("h").observe(1.0)
    snap = reg.snapshot()
    assert reg.counter_value("a_total") == 0
    assert snap["histograms"]["h"]["count"] == 0


def test_snapshot_is_picklable_and_detached():
    reg = MetricsRegistry()
    reg.counter("a_total").inc()
    snap = pickle.loads(pickle.dumps(reg.snapshot()))
    reg.counter("a_total").inc(10)
    assert snap["counters"]["a_total"] == 1


def test_diff_drops_zero_deltas():
    reg = MetricsRegistry()
    reg.counter("untouched_total").inc(5)
    before = reg.snapshot()
    reg.counter("touched_total").inc()
    delta = diff_snapshots(reg.snapshot(), before)
    assert "untouched_total" not in delta["counters"]
    assert delta["counters"]["touched_total"] == 1


def test_to_json_exposes_quantiles():
    reg = MetricsRegistry()
    h = reg.histogram("serve.request_seconds", buckets=LATENCY_BUCKETS)
    for _ in range(10):
        h.observe(0.02)
    view = reg.to_json()
    data = view["histograms"]["serve.request_seconds"]
    assert data["count"] == 10
    assert data["p50"] > 0.0
    assert data["p50"] <= data["p95"] <= data["p99"]


def test_prometheus_exposition_shape():
    reg = MetricsRegistry()
    reg.counter("store.columns_decoded_total", "decoded columns").inc(4)
    reg.counter("plan.runs_total", op="knn").inc()
    reg.histogram("serve.request_seconds", buckets=(0.1, 1.0)).observe(0.05)
    text = reg.to_prometheus()
    lines = text.splitlines()
    assert "# TYPE store_columns_decoded_total counter" in lines
    assert "store_columns_decoded_total 4" in lines
    assert 'plan_runs_total{op="knn"} 1' in lines
    assert 'serve_request_seconds_bucket{le="0.1"} 1' in lines
    assert 'serve_request_seconds_bucket{le="+Inf"} 1' in lines
    assert "serve_request_seconds_count 1" in lines
    # Every sample line is "name{labels} value" with a float-parsable value.
    for line in lines:
        if line.startswith("#") or not line:
            continue
        float(line.rsplit(" ", 1)[1])


def test_set_metrics_enabled_toggles_process_registry():
    previous = set_metrics_enabled(False)
    try:
        registry().counter("while_disabled_total").inc()
        assert registry().counter_value("while_disabled_total") == 0
    finally:
        set_metrics_enabled(previous)
