"""Scan-operator throughput benchmarks (``BENCH_ops.json``).

The PR 8 plan layer's proof of keep: the monitoring operators must be fast
*because* they are store-native.  Three numbers are tracked —

* anomaly meters/sec — per-meter transition scoring: a dense store counts
  adjacent symbol pairs, and an RLE copy of the same fleet (its own entry)
  reads its stored runs;
* drift report latency — fleet drift straight off ``.rsymx`` histograms
  (the entry asserts **zero** columns decoded, the whole point);
* aggregate queries/sec, cold vs cached — the engine's shared
  ``ColumnSource`` makes every aggregate after the first free of payload
  reads, and the cached rate must show it;
* anomaly meters/sec and match columns/sec on a segmented store of a
  week of hourly segments, as an hourly append feed leaves it — both
  operators read one column block per segment, so their cost must not
  grow with columns x segments.

CI runs this file with ``--benchmark-json=BENCH_ops.json`` and gates on
the floors in ``perf_floors.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query import (
    ColumnSource,
    MatchOperator,
    QueryEngine,
    ScanPlan,
    SymbolPattern,
    aggregate_store,
)
from repro.store import RLE, write_fleet_store, write_segmented_fleet

N_METERS = 192
WINDOWS = 672
ALPHABET = 16
WINDOWS_PER_DAY = 96
SEGMENTS = 168          # hourly segments: one week at 15-minute windows
WINDOWS_PER_SEGMENT = 4
MATCH_PATTERN = f"{ALPHABET - 4}{{4,}} * 2"


def _fleet_values(windows: int) -> np.ndarray:
    rng = np.random.default_rng(31)
    levels = np.exp(rng.normal(5.5, 1.2, size=N_METERS))[:, None]
    days = windows / WINDOWS_PER_DAY
    day = 1.0 + 0.6 * np.sin(np.linspace(0, days * 2 * np.pi, windows))[None, :]
    noise = rng.normal(0, 0.08, size=(N_METERS, windows))
    return np.abs(levels * day + noise * levels)


@pytest.fixture(scope="module")
def ops_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench_ops") / "fleet.rsym"
    return write_fleet_store(
        path, _fleet_values(WINDOWS), alphabet_size=ALPHABET, method="median",
        window=1, shared_table=True, sampling_interval=900.0, query_index=True,
    )


@pytest.fixture(scope="module")
def rle_store(tmp_path_factory):
    """The ``ops_store`` fleet written with ``layout=RLE``."""
    path = tmp_path_factory.mktemp("bench_ops_rle") / "fleet.rsym"
    return write_fleet_store(
        path, _fleet_values(WINDOWS), alphabet_size=ALPHABET, method="median",
        window=1, shared_table=True, sampling_interval=900.0, layout=RLE,
    )


@pytest.fixture(scope="module")
def segmented_store(tmp_path_factory):
    """``SEGMENTS`` hourly segments and no sidecar index."""
    path = tmp_path_factory.mktemp("bench_ops_seg") / "fleet.rsyms"
    write_segmented_fleet(
        path, _fleet_values(SEGMENTS * WINDOWS_PER_SEGMENT),
        alphabet_size=ALPHABET, method="median",
        segment_windows=WINDOWS_PER_SEGMENT, sampling_interval=900.0,
    ).close()
    return path


def test_anomaly_throughput(benchmark, ops_store):
    """Fleet transition scoring on a dense store: adjacent symbol pairs."""
    engine = QueryEngine.open(ops_store.path)
    report = benchmark(engine.anomaly)
    assert len(report.ids) == N_METERS
    assert report.transitions.sum() > 0
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["meters_per_s"] = N_METERS / mean
    benchmark.extra_info["transitions"] = int(report.transitions.sum())


def test_rle_anomaly_throughput(benchmark, rle_store):
    """Fleet transition scoring off stored runs: no window expansion."""
    engine = QueryEngine.open(rle_store.path)
    assert engine.store.layout == RLE
    report = benchmark(engine.anomaly)
    assert len(report.ids) == N_METERS
    assert report.transitions.sum() > 0
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["meters_per_s"] = N_METERS / mean
    benchmark.extra_info["transitions"] = int(report.transitions.sum())


def test_drift_report_latency(benchmark, ops_store):
    """Whole-fleet drift report off the sidecar histograms alone."""
    engine = QueryEngine.open(ops_store.path)
    report = benchmark(engine.drift)
    # The acceptance gate: a drift report never decodes a column.
    assert report.columns_decoded == 0
    assert len(report.ids) == N_METERS
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["reports_per_s"] = 1.0 / mean
    benchmark.extra_info["meters_per_s"] = N_METERS / mean
    benchmark.extra_info["columns_decoded"] = report.columns_decoded


def test_aggregate_cold_throughput(benchmark, ops_store):
    """Aggregation that pays the payload scan every call (fresh source)."""

    def cold():
        return aggregate_store(ops_store, level=8,
                               source=ColumnSource(ops_store))

    report = benchmark(cold)
    assert len(report.ids) == N_METERS
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["aggregates_per_s"] = 1.0 / mean


def test_aggregate_cached_throughput(benchmark, ops_store):
    """Repeated aggregates on an open engine reuse the cached source."""
    engine = QueryEngine(ops_store)
    engine.aggregate(level=8)  # warm the source cache once
    decoded_before = engine.source.stats.columns_decoded
    report = benchmark(engine.aggregate, level=8)
    # Every benchmarked round was served from the cache: no new decodes.
    assert engine.source.stats.columns_decoded == decoded_before
    assert len(report.ids) == N_METERS
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["aggregates_per_s"] = 1.0 / mean


def test_private_aggregate_throughput(benchmark, ops_store):
    """k-anonymous noised release, index-backed (zero payload reads)."""
    engine = QueryEngine.open(ops_store.path)
    report = benchmark(
        engine.private_aggregate, k_anon=5, epsilon=1.0, seed=0
    )
    assert report.n_meters == N_METERS
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["releases_per_s"] = 1.0 / mean


def test_segmented_anomaly_throughput(benchmark, segmented_store):
    """Transition scoring over hourly segments: one read per segment."""
    engine = QueryEngine.open(segmented_store)
    report = benchmark(engine.anomaly)
    assert engine.store.n_segments == SEGMENTS
    assert len(report.ids) == N_METERS
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["meters_per_s"] = N_METERS / mean
    benchmark.extra_info["segments"] = SEGMENTS
    engine.close()


def test_segmented_match_throughput(benchmark, segmented_store):
    """Run-level pattern match over hourly segments, every column scanned:
    the match operator alone, with no index pruning stage in its plan."""
    engine = QueryEngine.open(segmented_store)
    pattern = SymbolPattern.parse(MATCH_PATTERN, ALPHABET)
    plan = ScanPlan(
        engine.source, MatchOperator(tokens=pattern.tokens, label=pattern.text)
    )
    matches = benchmark(plan.run)
    assert matches.columns_scanned == N_METERS
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["columns_per_s"] = N_METERS / mean
    benchmark.extra_info["segments"] = SEGMENTS
    benchmark.extra_info["total_matches"] = matches.total_matches
    engine.close()
