"""Observability quickstart: trace a query, account the work, scrape it.

Run with ``python examples/observability_quickstart.py``.

Fast answers you can't explain are half a system.  This example walks the
telemetry layer (``repro.obs``) end to end, zero dependencies:

1. run a kNN batch with tracing on and print the span tree — one trace
   from ``engine.knn`` down through ``plan.run`` into each threaded
   ``plan.shard``, every span carrying its own work attributes
   (``columns_decoded``, ``runs_read``, ``refined``);
2. read the same numbers three ways — span attributes, registry counters
   and ``KNNStats`` — and check they agree exactly (the work-accounting
   identity the tests enforce);
3. prove telemetry never changes answers: the traced batch is
   bit-identical to the untraced one;
4. serve the store with tracing on, query it remotely with a pinned
   trace id, fetch the server's merged trace tree over
   ``/traces/recent``, and scrape ``/metrics`` in Prometheus exposition
   format — p50/p95/p99 per endpoint derive from the histogram buckets.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.obs import (
    diff_snapshots,
    disable_tracing,
    enable_tracing,
    format_span_tree,
    new_trace_id,
    recent_traces,
    registry,
    tracer,
)
from repro.query import QueryConfig, QueryEngine
from repro.serve import QueryServer, ServeClient, ServerConfig
from repro.store import write_segmented_fleet

N_METERS = 48
WINDOWS = 96 * 4                     # four days of 15-minute windows
ALPHABET = 8


def synth_fleet(rng: np.random.Generator) -> np.ndarray:
    levels = np.exp(rng.normal(5.5, 1.0, size=(N_METERS, 1)))
    day = 1.0 + 0.6 * np.sin(np.linspace(0, 8 * np.pi, WINDOWS))[None, :]
    noise = 1.0 + 0.05 * rng.standard_normal((N_METERS, WINDOWS))
    return np.abs(levels * day * noise)


def main() -> None:
    rng = np.random.default_rng(29)
    values = synth_fleet(rng)

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "fleet.rsyms"
        write_segmented_fleet(
            store_path, values, alphabet_size=ALPHABET, segment_windows=96,
        ).close()

        # -- 1. one trace tree across the shard threads -------------------
        enable_tracing()
        with QueryEngine.open(store_path) as engine:
            queries = engine.store.decode(meters=list(engine.store.ids[:4]))
            config = QueryConfig(k=5, workers=2)

            # Warm up once so the first call's sidecar index build doesn't
            # mix its decodes into the batch we account below.
            engine.knn(queries, config)
            tracer().clear()

            before = registry().snapshot()
            traced = engine.knn(queries, config)
            delta = diff_snapshots(registry().snapshot(), before)

            root = tracer().recent(1)[0]
            print("one merged trace, shard spans included:")
            print(format_span_tree(root.to_dict()))

            # -- 2. three views of the work, one set of numbers -----------
            shard_decoded = sum(
                child.attributes.get("columns_decoded", 0)
                for child in root.children[-1].children
                if child.name == "plan.shard"
            )
            counter_decoded = delta["counters"].get(
                "store.columns_decoded_total", 0,
            )
            print(f"columns decoded: shards say {shard_decoded}, "
                  f"registry says {counter_decoded}")
            print(f"refined: stats say {traced.stats.refined}, registry says "
                  f"{delta['counters'].get('query.candidates_refined_total')}")

            # -- 3. telemetry never changes the answer --------------------
            disable_tracing()
            plain = engine.knn(queries, config)
            identical = (
                traced.distances.tobytes() == plain.distances.tobytes()
            )
            print(f"traced vs untraced results bit-identical: {identical}")

        # -- 4. the same story over HTTP ----------------------------------
        with QueryServer(
            {"fleet": store_path}, ServerConfig(workers=2, tracing=True),
        ) as server:
            trace_id = new_trace_id()
            client = ServeClient(server.url, trace_id=trace_id)
            client.knn("fleet", values[:2], k=3)
            print(f"\npinned trace id round-trips: "
                  f"{client.last_trace_id == trace_id}")

            remote = [
                t for t in client.traces_recent(16)
                if t["trace_id"] == trace_id
            ]
            print("the server's merged tree for that request:")
            print(format_span_tree(remote[0]))

            exposition = client.metrics_prometheus()
            latency_lines = [
                line for line in exposition.splitlines()
                if line.startswith("serve_request_seconds")
            ]
            print("prometheus scrape, per-endpoint latency histogram:")
            for line in latency_lines[:6]:
                print(f"  {line}")

        # The CLI wraps all of this: `repro query ... --trace` prints the
        # tree + metric deltas, `repro serve --trace-sink FILE` persists
        # one JSON tree per line, `repro obs tail FILE` renders them.
        tracer().clear()
        print("\n(see also: repro query knn ... --trace / repro obs tail)")


if __name__ == "__main__":
    main()
