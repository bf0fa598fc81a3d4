"""Query-engine throughput benchmarks (``BENCH_query.json``).

Extends the perf trajectory (encoding → ML → multi-core → storage) to the
query layer: batched kNN throughput with lower-bound pruning, run-level
pattern matching, and sidecar index builds.  CI runs this file with
``--benchmark-json=BENCH_query.json`` and uploads it next to the other
artifacts; each entry's ``extra_info`` carries the derived numbers
(queries/sec, pruning ratio, candidates decoded per query, runs-vs-windows
scan fraction).

The assertions double as acceptance checks: pruned kNN must return
bit-identical neighbour sets to brute force while decoding **< 25 %** of
candidate columns per query on this benchmark fleet, and pattern matching
must scan fewer elements than the expanded windows.

The segmented entry runs one-vector kNN scans over the same fleet stored
as 168 hourly segments, as an hourly append feed leaves it: a query block
reads the store at most twice, each read one decode across the segments,
so its cost must not grow with refine rounds x segments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import disable_tracing, enable_tracing, set_metrics_enabled, tracer
from repro.query import QueryConfig, QueryEngine, build_query_index, write_query_index
from repro.store import write_fleet_store, write_segmented_fleet

from .test_segment_throughput import _median_ratio


def measure_obs_overhead(run_batch) -> float:
    """Median overhead fraction of telemetry-on vs telemetry-off batches.

    The median of per-pair on/off ratios over interleaved pairs
    (:func:`~benchmarks.test_segment_throughput._median_ratio`), so ambient
    machine noise slows both halves of a pair instead of biasing one arm;
    restores telemetry to its defaults (metrics on, tracing off) before
    returning.
    """
    def arm(on: bool):
        def run() -> None:
            set_metrics_enabled(on)
            (enable_tracing if on else disable_tracing)()
            run_batch()
        return run

    try:
        ratio, _ = _median_ratio(arm(False), arm(True))
    finally:
        set_metrics_enabled(True)
        disable_tracing()
        tracer().clear()
    return max(0.0, ratio - 1.0)

#: Benchmark fleet: a week of 15-minute windows for 192 meters whose
#: consumption levels span ~3 orders of magnitude (the paper's Figure 3
#: argument — level separates households — is what the banded histogram
#: bound exploits).
N_METERS = 192
WINDOWS = 672
ALPHABET = 16
N_QUERIES = 64
K = 5
SEGMENTS = 168          # hourly segments: one week at 15-minute windows
SINGLE_QUERIES = 16     # one-vector requests per segmented-kNN round
SCAN_CHUNK = 4          # candidates per refine round of the segmented scan


def _fleet_values() -> np.ndarray:
    rng = np.random.default_rng(42)
    levels = np.exp(rng.normal(5.5, 1.2, size=N_METERS))[:, None]
    day = 1.0 + 0.6 * np.sin(np.linspace(0, 7 * 2 * np.pi, WINDOWS))[None, :]
    noise = rng.normal(0, 0.08, size=(N_METERS, WINDOWS))
    return np.abs(levels * day + noise * levels)


@pytest.fixture(scope="module")
def query_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench_query") / "fleet.rsym"
    return write_fleet_store(
        path, _fleet_values(), alphabet_size=ALPHABET, method="median", window=1,
        shared_table=True, sampling_interval=900.0, query_index=True,
    )


@pytest.fixture(scope="module")
def segmented_query_store(tmp_path_factory):
    """The benchmark fleet as ``SEGMENTS`` hourly segments, with its index."""
    path = tmp_path_factory.mktemp("bench_query_seg") / "fleet.rsyms"
    store = write_segmented_fleet(
        path, _fleet_values(), alphabet_size=ALPHABET, method="median",
        segment_windows=WINDOWS // SEGMENTS, sampling_interval=900.0,
    )
    write_query_index(store)
    store.close()
    return path


@pytest.fixture(scope="module")
def query_batch(query_store):
    """Perturbed copies of stored days — realistic near-neighbour queries."""
    rng = np.random.default_rng(7)
    picks = rng.choice(N_METERS, size=N_QUERIES, replace=False)
    decoded = query_store.decode(meters=[query_store.ids[p] for p in picks])
    return decoded * (1.0 + rng.normal(0.0, 0.02, size=decoded.shape))


def test_knn_pruned_throughput(benchmark, query_store, query_batch):
    """Batched kNN with the banded-histogram bound and lazy refinement."""
    engine = QueryEngine.open(query_store.path)
    config = QueryConfig(k=K, refine_chunk=16)
    result = benchmark(engine.knn, query_batch, config)
    brute = engine.brute_force_knn(query_batch, k=K)
    np.testing.assert_array_equal(result.positions, brute.positions)
    np.testing.assert_array_equal(result.distances, brute.distances)
    stats = result.stats
    assert stats.index_used
    # Acceptance: < 25 % of candidate columns decoded per query.
    assert stats.decoded_fraction < 0.25, (
        f"pruning too weak: {100 * stats.decoded_fraction:.1f}% of "
        f"candidates decoded per query"
    )
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["n_queries"] = N_QUERIES
    benchmark.extra_info["n_candidates"] = stats.n_candidates
    benchmark.extra_info["queries_per_s"] = N_QUERIES / mean
    benchmark.extra_info["candidates_decoded_per_query"] = stats.refined_per_query
    benchmark.extra_info["decoded_fraction"] = stats.decoded_fraction
    benchmark.extra_info["pruning_ratio"] = stats.pruned_fraction
    # Tentpole gate: full tracing + metrics must cost <= 3 % on this path.
    benchmark.extra_info["obs_overhead_fraction"] = measure_obs_overhead(
        lambda: engine.knn(query_batch, config)
    )


def test_knn_brute_force_throughput(benchmark, query_store, query_batch):
    """The unpruned baseline the pruned entry is compared against."""
    engine = QueryEngine.open(query_store.path)
    result = benchmark(engine.brute_force_knn, query_batch, K)
    assert result.stats.decoded_fraction == 1.0
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["n_queries"] = N_QUERIES
    benchmark.extra_info["queries_per_s"] = N_QUERIES / mean
    benchmark.extra_info["decoded_fraction"] = 1.0


def test_segmented_knn_throughput(benchmark, segmented_query_store, query_batch):
    """One-vector kNN scans over 168 hourly segments.

    Without the bound every candidate is refined, ``SCAN_CHUNK`` a round
    (48 rounds): a query block that read the store once a round would make
    48 x 168 segment reads per query instead of at most 2 x 168.
    """
    engine = QueryEngine.open(segmented_query_store)
    config = QueryConfig(k=K, use_index=False, refine_chunk=SCAN_CHUNK)
    singles = query_batch[:SINGLE_QUERIES]

    def one_at_a_time():
        return [engine.knn(vector, config) for vector in singles]

    results = benchmark(one_at_a_time)
    brute = engine.brute_force_knn(singles, k=K)
    assert engine.store.n_segments == SEGMENTS
    np.testing.assert_array_equal(
        np.vstack([r.positions for r in results]), brute.positions
    )
    np.testing.assert_array_equal(
        np.vstack([r.distances for r in results]), brute.distances
    )
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["n_queries"] = SINGLE_QUERIES
    benchmark.extra_info["segments"] = SEGMENTS
    benchmark.extra_info["queries_per_s"] = SINGLE_QUERIES / mean
    engine.close()


def test_pattern_match_throughput(benchmark, query_store):
    """Run-level matching: ≥ 4 hours at the top quartile, then a low dip."""
    engine = QueryEngine.open(query_store.path)
    pattern = f"{ALPHABET - 4}{{4,}} * 2"
    result = benchmark(engine.match, pattern)
    assert result.windows_total == query_store.n_symbols
    assert result.runs_scanned < result.windows_total
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["columns_per_s"] = N_METERS / mean
    benchmark.extra_info["matches"] = result.total_matches
    benchmark.extra_info["runs_scanned"] = result.runs_scanned
    benchmark.extra_info["windows_total"] = result.windows_total
    benchmark.extra_info["scan_fraction"] = result.scan_fraction


def test_index_build_throughput(benchmark, query_store):
    """One-pass sidecar construction over the whole store."""
    index = benchmark(build_query_index, query_store)
    assert index.n_meters == N_METERS
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["columns_per_s"] = N_METERS / mean
    benchmark.extra_info["symbols_per_s"] = query_store.n_symbols / mean
