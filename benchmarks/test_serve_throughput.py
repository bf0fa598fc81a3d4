"""Serving-layer throughput benchmarks (``BENCH_serve.json``).

Extends the perf trajectory to the query *service*: end-to-end HTTP
round-trips against a live in-process :class:`QueryServer`.  Four numbers
matter for capacity planning and each entry's ``extra_info`` carries them:

* concurrent queries/sec through the full stack (admission gate, deadline
  bookkeeping, JSON serialisation) and the p50/p99 per-request latency;
* the shed behaviour at 2x capacity — overload must convert to fast,
  structured 429/503 responses, not convoying latency;
* the overhead of degraded serving (a quarantined segment) relative to a
  healthy store;
* kNN request vectors through both wire ends (client body build and
  ``json.dumps``, server ``parse_body`` and ``KNNParams.from_body``), with
  no HTTP and no engine.

CI runs this file with ``--benchmark-json=BENCH_serve.json``; floors live
in ``perf_floors.json`` next to the other suites.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.errors import Overloaded, RateLimited
from repro.query.verbs import KNNParams
from repro.serve import (
    QueryServer,
    RetryPolicy,
    ServeClient,
    ServerConfig,
    protocol,
)
from repro.store import faults, write_segmented_fleet

N_METERS = 64
WINDOWS = 384
ALPHABET = 8
SEGMENT_WINDOWS = 128


def _values(seed: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    levels = np.exp(rng.normal(5.0, 1.0, size=N_METERS))[:, None]
    day = 1.0 + 0.5 * np.sin(np.linspace(0, 4 * np.pi, WINDOWS))[None, :]
    return np.abs(levels * day + rng.normal(0, 0.05, size=(N_METERS, WINDOWS)))


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench_serve") / "fleet.rsyms"
    write_segmented_fleet(
        path, _values(), alphabet_size=ALPHABET,
        segment_windows=SEGMENT_WINDOWS,
    ).close()
    return path


def _drive(url: str, n_threads: int, per_thread: int):
    """n_threads clients, per_thread agg queries each; returns latencies
    (successes) and a shed count (structured 429/503)."""
    latencies: list = []
    shed = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(n_threads)

    def worker() -> None:
        client = ServeClient(url, timeout=30.0,
                             policy=RetryPolicy(max_attempts=1))
        barrier.wait(timeout=30.0)
        for _ in range(per_thread):
            start = time.perf_counter()
            try:
                client.agg("fleet")
            except (RateLimited, Overloaded):
                with lock:
                    shed[0] += 1
                continue
            with lock:
                latencies.append(time.perf_counter() - start)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads)
    return latencies, shed[0]


def test_concurrent_query_throughput(benchmark, fleet_dir):
    """8 concurrent clients through the full HTTP stack."""
    n_threads, per_thread = 8, 12
    with QueryServer(
        {"fleet": fleet_dir}, ServerConfig(max_concurrent=8, max_queue=32)
    ) as server:
        # Warm the snapshot and its caches out-of-band.
        ServeClient(server.url, timeout=30.0).agg("fleet")

        def drive():
            return _drive(server.url, n_threads, per_thread)

        latencies, shed = benchmark.pedantic(drive, rounds=3, iterations=1)
        assert shed == 0, "no shedding expected below capacity"
        assert len(latencies) == n_threads * per_thread
        total = n_threads * per_thread
        mean = benchmark.stats.stats.mean
        ordered = sorted(latencies)
        benchmark.extra_info["n_clients"] = n_threads
        benchmark.extra_info["requests_total"] = total
        benchmark.extra_info["queries_per_s"] = total / mean
        benchmark.extra_info["p50_ms"] = 1e3 * ordered[len(ordered) // 2]
        benchmark.extra_info["p99_ms"] = 1e3 * ordered[
            min(len(ordered) - 1, int(len(ordered) * 0.99))
        ]
        # Tentpole gate: the server shares this process, so toggling the
        # global registry/tracer toggles its telemetry too.  Full request
        # tracing must cost <= 3 % end-to-end.
        from benchmarks.test_query_throughput import measure_obs_overhead

        benchmark.extra_info["obs_overhead_fraction"] = measure_obs_overhead(
            lambda: _drive(server.url, 4, 6)
        )


def test_shed_rate_at_2x_capacity(benchmark, fleet_dir):
    """Offered load at 2x the admission capacity: the excess sheds fast."""
    config = ServerConfig(max_concurrent=2, max_queue=0)
    with QueryServer({"fleet": fleet_dir}, config) as server:
        ServeClient(server.url, timeout=30.0).agg("fleet")

        def drive():
            # A slow handler makes each admitted request occupy its slot,
            # so ~2 run while the rest of the 8 concurrent arrivals shed.
            with faults.inject(faults.FaultPlan(
                "serve.handle", action="delay", delay_s=0.02, repeat=True,
            )):
                return _drive(server.url, 8, 4)

        latencies, shed = benchmark.pedantic(drive, rounds=3, iterations=1)
        total = 8 * 4
        assert shed > 0, "2x offered load must shed"
        assert len(latencies) + shed == total
        mean = benchmark.stats.stats.mean
        benchmark.extra_info["offered_total"] = total
        benchmark.extra_info["shed_total"] = shed
        benchmark.extra_info["shed_fraction"] = shed / total
        benchmark.extra_info["decisions_per_s"] = total / mean
        # Shedding is the fast path: overload decisions must not convoy
        # behind the slow handlers.
        assert mean < 10.0


def test_degraded_serving_overhead(benchmark, fleet_dir, tmp_path_factory):
    """Quarantine-aware serving vs healthy serving, same fleet."""
    damaged = tmp_path_factory.mktemp("bench_degraded") / "fleet.rsyms"
    write_segmented_fleet(
        damaged, _values(), alphabet_size=ALPHABET,
        segment_windows=SEGMENT_WINDOWS,
    ).close()
    victim = sorted(damaged.glob("seg-*.rsym"))[-1]
    faults.truncate_file(victim, victim.stat().st_size // 2)

    with QueryServer({"fleet": fleet_dir}, ServerConfig()) as healthy, \
            QueryServer({"fleet": damaged}, ServerConfig()) as degraded:
        healthy_client = ServeClient(healthy.url, timeout=30.0)
        degraded_client = ServeClient(degraded.url, timeout=30.0)
        healthy_client.agg("fleet")
        first = degraded_client.agg("fleet")
        assert first["degraded"] is True

        n = 20

        def healthy_loop():
            for _ in range(n):
                healthy_client.agg("fleet")

        start = time.perf_counter()
        healthy_loop()
        healthy_s = (time.perf_counter() - start) / n

        def degraded_loop():
            for _ in range(n):
                degraded_client.agg("fleet")

        benchmark.pedantic(degraded_loop, rounds=3, iterations=1)
        degraded_s = benchmark.stats.stats.mean / n
        benchmark.extra_info["healthy_ms_per_query"] = 1e3 * healthy_s
        benchmark.extra_info["degraded_ms_per_query"] = 1e3 * degraded_s
        benchmark.extra_info["degraded_overhead_x"] = degraded_s / healthy_s
        benchmark.extra_info["degraded_queries_per_s"] = 1.0 / degraded_s


def test_knn_request_wire_throughput(benchmark):
    """One 32 x 2 880 kNN request (the bench's knn-batch size) from params
    to the server's params: what the wire format costs per vector."""
    queries = np.random.default_rng(29).normal(size=(32, 2880)).cumsum(axis=1)

    def round_trip():
        raw = json.dumps(KNNParams(queries).to_body()).encode("utf-8")
        return KNNParams.from_body(protocol.parse_body(raw))

    params = benchmark.pedantic(round_trip, rounds=10, iterations=1,
                                warmup_rounds=1)
    assert params.queries.tobytes() == queries.tobytes()
    benchmark.extra_info["vectors_per_s"] = (
        len(queries) / benchmark.stats.stats.mean
    )
