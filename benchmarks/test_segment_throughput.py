"""Segmented-store durability benchmarks (``BENCH_segments.json``).

Measures what the crash-safety layer costs: append latency for one
day-sized segment (write + checksum + fsync + atomic manifest commit),
scrub throughput in bytes per second, the CRC32C kernel's own bytes per
second, the checksum tax on the read path — an eagerly verified
full-matrix read versus the same read with verification off — and the
ingest cycle a server runs on a store fed hourly: append an hour, lease
the reloaded snapshot, aggregate the whole fleet.  The
query-overhead entry is the acceptance check for the durability layer:
verified kNN batches must stay within 10% of unverified ones, both on an
open engine (steady state) and through an eager open, so the integrity
guarantees are effectively free at query time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.store import (
    SegmentedStore,
    append_segment,
    scrub_store,
    write_segmented_fleet,
)

from repro.obs import registry
from repro.store.checksum import crc32c, crc32c_rows

from .conftest import write_result

N_METERS = 200
WINDOWS_PER_DAY = 96
#: Interleaved (unverified, verified) timing pairs behind each tax ratio.
PAIRS = 21
N_DAYS = 8
ALPHABET = 8


#: The hourly-append store of the reload benchmark: a week of hourly
#: segments, as an hourly append feed leaves it.
RELOAD_METERS = 192
RELOAD_SEGMENTS = 168
RELOAD_ALPHABET = 16
RELOAD_CYCLES = 30


@pytest.fixture(scope="module")
def fleet_matrix():
    rng = np.random.default_rng(23)
    fleet = np.abs(rng.normal(2.0, 0.8, size=(N_METERS, N_DAYS * WINDOWS_PER_DAY * 4)))
    fleet[:, ::7] = 0.3  # standby samples keep the symbol stream realistic
    return fleet


@pytest.fixture(scope="module")
def segment_dir(tmp_path_factory, fleet_matrix):
    """An 8-day store cut into one segment per day."""
    directory = tmp_path_factory.mktemp("bench_segments") / "fleet.rsyms"
    write_segmented_fleet(
        directory, fleet_matrix, alphabet_size=ALPHABET, window=4,
        sampling_interval=900, segment_windows=WINDOWS_PER_DAY,
    ).close()
    return directory


def test_append_day_latency(benchmark, tmp_path_factory, fleet_matrix):
    """Full durable append of one day: pack, checksum, fsync, commit.

    Runs against its own store copy — every timing round appends a real
    segment, which would bloat the shared fixture the read benchmarks open.
    """
    directory = tmp_path_factory.mktemp("bench_append") / "fleet.rsyms"
    write_segmented_fleet(
        directory, fleet_matrix, alphabet_size=ALPHABET, window=4,
        sampling_interval=900, segment_windows=WINDOWS_PER_DAY,
    ).close()
    rng = np.random.default_rng(99)
    day = rng.integers(0, ALPHABET, size=(N_METERS, WINDOWS_PER_DAY))

    def append_one():
        return append_segment(directory, day, reason="bench")

    record = benchmark(append_one)
    n_symbols = N_METERS * WINDOWS_PER_DAY
    mean = benchmark.stats.stats.mean
    benchmark.extra_info.update({
        "n_symbols": n_symbols,
        "segment_bytes": record.file_nbytes,
        "appends_per_s": 1.0 / mean,
        "symbols_per_s": n_symbols / mean,
    })


def test_scrub_throughput(benchmark, segment_dir):
    """Whole-file CRC + per-column verify over every live segment."""
    report = benchmark(scrub_store, segment_dir)
    assert report.ok
    mean = benchmark.stats.stats.mean
    benchmark.extra_info.update({
        "segments_checked": report.segments_checked,
        "bytes_checked": report.bytes_checked,
        "scrub_bytes_per_s": report.bytes_checked / mean,
    })


@pytest.mark.parametrize("case", ["32KiB", "1MiB", "rows-1024x48"])
def test_crc32c_throughput(benchmark, case):
    """CRC32C bytes/s on a segment-header-sized buffer, a 1 MiB buffer
    (whole-file checks stream 4 MiB chunks) and one 1 024-column batch of
    48-byte payloads, the shape a column verify or a writer shard hands
    :func:`crc32c_rows`."""
    rng = np.random.default_rng(29)
    if case.startswith("rows"):
        data = rng.integers(0, 256, size=(1024, 48), dtype=np.uint8)
        benchmark(crc32c_rows, data)
    else:
        size = {"32KiB": 32 << 10, "1MiB": 1 << 20}[case]
        data = rng.integers(0, 256, size=size, dtype=np.uint8)
        benchmark(crc32c, data)
    benchmark.extra_info.update({
        "nbytes": int(data.size),
        "bytes_per_s": data.size / benchmark.stats.stats.mean,
    })


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _median_ratio(baseline, verified) -> tuple:
    """Median of ``PAIRS`` interleaved ``verified / baseline`` timing ratios,
    and the median verified time: a noisy neighbour slows both halves of a
    pair instead of biasing one."""
    pairs = [(_timed(baseline), _timed(verified)) for _ in range(PAIRS)]
    ratio = statistics.median(v / b for b, v in pairs)
    return ratio, statistics.median(v for _, v in pairs)


@pytest.mark.parametrize("verify", ["off", "eager"])
def test_checksum_read_overhead(benchmark, segment_dir, verify, results_dir):
    """Cold open + full matrix read, with and without CRC verification."""
    def read_all(mode=verify):
        with SegmentedStore.open(segment_dir, verify=mode) as store:
            return store.matrix()

    matrix = benchmark(read_all)
    assert matrix.shape[0] == N_METERS
    mean = benchmark.stats.stats.mean
    benchmark.extra_info.update({
        "verify": verify,
        "n_symbols": int(matrix.size),
        "reads_per_s": 1.0 / mean,
        "symbols_per_s": matrix.size / mean,
    })
    if verify == "off":
        return
    ratio, verified = _median_ratio(lambda: read_all("off"), read_all)
    benchmark.extra_info["verified_over_unverified"] = ratio
    write_result(
        results_dir, "segment_read_overhead",
        f"verified read:    {verified * 1e3:.2f} ms\n"
        f"checksum tax:     {100.0 * (ratio - 1.0):+.1f}%",
    )
    # Worst case by construction (cold open + one full read, so the
    # one-time verify amortizes over nothing): keep it bounded, but the
    # strict <10% acceptance lives on the query path below, where the
    # verified-column cache makes checksums effectively free.
    assert ratio < 1.5


def test_query_throughput_with_checksums(benchmark, segment_dir, results_dir):
    """kNN throughput over a checksum-verified segmented store.

    Acceptance for the durability layer: checksum verification must cost
    under 10% of query throughput, in two cases, each a
    :func:`_median_ratio`:

    * steady state — one open engine per mode, ``verify="lazy"`` against
      ``"off"``.  Columns are verified once on first touch and cached, so
      a steady-state batch pays nothing; the flake-free check beside the
      ratio is that it adds zero to ``store.checksum_verifies_total``;
    * eager open — each timed call opens the store with ``verify="eager"``
      (every column CRC checked before the first read) against ``"off"``,
      then runs one batch.
    """
    from repro.query import QueryEngine
    from repro.query.engine import QueryConfig

    config = QueryConfig(k=5)

    def open_engine(verify):
        return QueryEngine(SegmentedStore.open(segment_dir, verify=verify))

    def run_queries(verify):
        engine = open_engine(verify)
        try:
            queries = engine.store.decode(meters=[0, 50, 100, 150])
            return engine.knn(queries, config)
        finally:
            engine.close()

    result = benchmark(run_queries, "eager")
    assert len(result.ids) == 4

    engines = {verify: open_engine(verify) for verify in ("off", "lazy")}
    try:
        queries = engines["off"].store.decode(meters=[0, 50, 100, 150])
        counter = "store.checksum_verifies_total"
        before = registry().counter_value(counter)
        warm = {v: engine.knn(queries, config) for v, engine in engines.items()}
        first_touch = registry().counter_value(counter) - before
        steady, _ = _median_ratio(
            lambda: engines["off"].knn(queries, config),
            lambda: engines["lazy"].knn(queries, config),
        )
        before = registry().counter_value(counter)
        again = engines["lazy"].knn(queries, config)
        steady_verifies = registry().counter_value(counter) - before
    finally:
        for engine in engines.values():
            engine.close()
    eager, eager_s = _median_ratio(
        lambda: run_queries("off"), lambda: run_queries("eager")
    )
    benchmark.extra_info.update({
        "queries_per_s": 4.0 / eager_s,
        "verified_over_unverified": eager,
        "steady_verified_over_unverified": steady,
    })
    write_result(
        results_dir, "segment_query_overhead",
        f"steady-state checksum tax:  {100.0 * (steady - 1.0):+.1f}%\n"
        f"eager-open checksum tax:    {100.0 * (eager - 1.0):+.1f}%\n"
        f"eager-open knn batch:       {eager_s * 1e3:.2f} ms",
    )
    # Both engines answer alike; the first lazy batch verified what it read
    # and every later one is served from the verified-column cache.
    assert np.array_equal(warm["off"].positions, warm["lazy"].positions)
    assert np.array_equal(again.positions, warm["lazy"].positions)
    assert first_touch > 0
    assert steady_verifies == 0
    # Acceptance: checksum verification costs < 10% of query throughput.
    assert steady < 1.10
    assert eager < 1.10


@pytest.fixture()
def hourly_dir(tmp_path):
    rng = np.random.default_rng(37)
    values = np.abs(rng.normal(
        2.0, 0.8, size=(RELOAD_METERS, RELOAD_SEGMENTS * 4)
    ))
    directory = tmp_path / "hourly.rsyms"
    write_segmented_fleet(
        directory, values, alphabet_size=RELOAD_ALPHABET, method="median",
        segment_windows=4, sampling_interval=900.0,
    ).close()
    return directory


def test_append_reload_throughput(benchmark, hourly_dir):
    """Ingest cycles on a store of 168 hourly segments, without HTTP: append
    one hour, lease the server's reloaded snapshot, aggregate the fleet.

    The lease is the server's own reload (``_StoreHandle``), so a cycle
    pays what a served append plus the next read pay, minus the wire.
    """
    from repro.query import QueryEngine
    from repro.serve.server import ServerConfig, _StoreHandle

    handle = _StoreHandle("fleet", hourly_dir, ServerConfig())
    with SegmentedStore.open(hourly_dir) as store:
        table = store.shared_table
    rng = np.random.default_rng(41)
    hours = iter([
        rng.integers(0, RELOAD_ALPHABET, size=(RELOAD_METERS, 4))
        for _ in range(RELOAD_CYCLES + 1)
    ])

    def cycle():
        append_segment(hourly_dir, next(hours), tables=table, reason="ingest")
        snapshot = handle.lease()
        try:
            return snapshot.engine.aggregate()
        finally:
            snapshot.release()

    try:
        cycle()  # the first snapshot opens cold, as a server's first read does
        report = benchmark.pedantic(cycle, rounds=RELOAD_CYCLES, iterations=1)
    finally:
        handle.drop_snapshot()
    with QueryEngine.open(hourly_dir) as engine:
        assert report.rows() == engine.aggregate().rows()
    mean = benchmark.stats.stats.mean
    benchmark.extra_info.update({
        "segments": RELOAD_SEGMENTS + RELOAD_CYCLES + 1,
        "meters": RELOAD_METERS,
        "cycles_per_s": 1.0 / mean,
    })
