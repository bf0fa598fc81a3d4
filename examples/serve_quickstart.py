"""Serving quickstart: start a query server, hammer it, damage it, heal.

Run with ``python examples/serve_quickstart.py``.

A store that survives crashes is only half the story — the paper's
smart-meter analytics are a *service*: many readers, a daily writer, and
hardware that rots underneath.  This example walks the serving layer
end to end, stdlib only (``http.server`` + ``urllib``):

1. write a segmented fleet and serve it over HTTP with ``QueryServer``;
2. query it with ``ServeClient`` (exponential backoff + full jitter,
   retry budgets, Retry-After discipline) — results are **bit-identical**
   to the in-process library path;
3. append a new day *while serving* — the server hot-reloads the new
   manifest generation, in-flight requests keep their snapshot, and a
   retried append with the same idempotency key commits exactly once;
4. flip one bit in a committed segment — the next query trips the
   checksum, the server quarantines, serves the healthy remainder with
   ``"degraded": true`` while a background scrub heals, and the breaker's
   half-open trial clears the flag once the store is clean again.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.query import QueryConfig, QueryEngine
from repro.serve import QueryServer, RetryPolicy, ServeClient, ServerConfig
from repro.store import append_segment, faults, write_segmented_fleet
from repro.store.format import MAGIC_HEAD

N_METERS = 50
WINDOWS = 96 * 4                     # four days of 15-minute windows
ALPHABET = 8


def synth_fleet(rng: np.random.Generator) -> np.ndarray:
    levels = np.exp(rng.normal(5.5, 1.0, size=(N_METERS, 1)))
    day = 1.0 + 0.6 * np.sin(np.linspace(0, 8 * np.pi, WINDOWS))[None, :]
    noise = 1.0 + 0.05 * rng.standard_normal((N_METERS, WINDOWS))
    return np.abs(levels * day * noise)


def main() -> None:
    rng = np.random.default_rng(13)
    values = synth_fleet(rng)

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "fleet.rsyms"
        write_segmented_fleet(
            store_path, values, alphabet_size=ALPHABET, segment_windows=96,
        ).close()

        config = ServerConfig(
            max_concurrent=8,       # admission gate: slots
            max_queue=16,           # …plus a bounded queue, then 503
            rate=None,              # no rate limit for the demo
            breaker_reset_s=0.2,    # fast half-open trials for the demo
        )
        with QueryServer({"fleet": store_path}, config) as server:
            print(f"serving {store_path.name} on {server.url}")
            client = ServeClient(server.url)

            # -- 1. remote results are bit-identical to the library path --
            queries = values[:3]
            remote = client.knn("fleet", queries, k=5)
            with QueryEngine.open(store_path) as engine:
                local = engine.knn(queries, QueryConfig(k=5))
            identical = (
                np.asarray(remote["distances"]).tobytes()
                == local.distances.tobytes()
            )
            print(f"kNN over HTTP: ids={remote['ids'][0]}")
            print(f"  bit-identical to the library path: {identical}")

            # -- 2. hot reload: append a day while serving ----------------
            generation = client.store_info("fleet")["generation"]
            with QueryEngine.open(store_path) as engine:
                day_indices = engine.store.segments[-1].matrix()
            response = client.append(
                "fleet", day_indices, idempotency_key="day-5",
            )
            print(f"append day-5: segment={response['segment']} "
                  f"generation {generation} -> {response['generation']}")
            retried = client.append(
                "fleet", day_indices, idempotency_key="day-5",
            )
            print(f"  retried with same key: duplicate={retried['duplicate']} "
                  "(committed exactly once)")

            # -- 3. bit-rot mid-serve: degrade, heal, recover -------------
            victim = sorted(store_path.glob("seg-*.rsym"))[0]
            faults.flip_bit(victim, len(MAGIC_HEAD) + 5)
            print(f"flipped one bit in {victim.name}")

            patient = ServeClient(
                server.url,
                policy=RetryPolicy(max_attempts=20, backoff_base=0.05),
            )
            report = patient.agg("fleet")
            print(f"agg after corruption: degraded={report['degraded']} "
                  f"({len(report['ids'])} meters served, all correct)")

            deadline = time.monotonic() + 10.0
            while report["degraded"] and time.monotonic() < deadline:
                time.sleep(0.1)
                report = patient.agg("fleet")
            print(f"after background scrub + breaker trial: "
                  f"degraded={report['degraded']}, "
                  f"quarantined={client.store_info('fleet')['quarantined']}")

            counters = client.metrics()["registry"]["counters"]
            print(f"metrics: {counters['serve.requests_total']} requests, "
                  f"{counters['serve.degraded_responses_total']} degraded, "
                  f"{counters['serve.shed_total']} shed")


if __name__ == "__main__":
    main()
