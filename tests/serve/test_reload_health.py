"""Reloads read health off the snapshot, and do not wait on each other.

A reload counts the damage its open found from the store's own
``quarantined`` and ``rolled_back`` lists, so no process-wide lock or
warning capture sits around store opens: a slow reload of one store does
not hold another store's requests.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.query import QueryEngine
from repro.serve import QueryServer, RetryPolicy, ServeClient
from repro.store import append_segment, write_segmented_fleet
from repro.store.segments import _manifest_paths

from .conftest import SEGMENT_WINDOWS, fleet_values


def no_retry(url: str) -> ServeClient:
    return ServeClient(url, timeout=30.0, policy=RetryPolicy(max_attempts=1))


def _hour(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 8, size=(10, 4))


def test_a_slow_reload_does_not_hold_another_store(tmp_path, monkeypatch):
    paths = {}
    for name in ("slow", "fast"):
        paths[name] = tmp_path / f"{name}.rsyms"
        write_segmented_fleet(
            paths[name], fleet_values(), alphabet_size=8,
            segment_windows=SEGMENT_WINDOWS,
        ).close()
    held = threading.Event()
    reopen = QueryEngine.reopen

    def slow_reopen(engine):
        if engine.store.path == paths["slow"]:
            held.set()
            time.sleep(1.0)
        return reopen(engine)

    with QueryServer(paths) as server:
        client = no_retry(server.url)
        client.agg("slow")
        client.agg("fast")
        monkeypatch.setattr(QueryEngine, "reopen", slow_reopen)
        for seed, path in enumerate(paths.values()):
            append_segment(path, _hour(seed))
        thread = threading.Thread(target=lambda: no_retry(server.url).agg("slow"))
        thread.start()
        assert held.wait(10.0)
        started = time.perf_counter()
        answer = client.agg("fast")
        elapsed = time.perf_counter() - started
        thread.join(30.0)
    assert answer["degraded"] is False
    assert elapsed < 0.5, f"the fast store waited {elapsed:.2f} s"


def test_a_damaged_newest_manifest_serves_degraded_with_one_failure(
        server, fleet_dir):
    client = no_retry(server.url)
    assert client.store_info("fleet")["degraded"] is False
    append_segment(fleet_dir, _hour(1))
    _, newest = _manifest_paths(fleet_dir)[0]
    raw = bytearray(newest.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    newest.write_bytes(bytes(raw))
    info = client.store_info("fleet")
    assert info["degraded"] is True
    assert info["breaker"]["consecutive_failures"] == 1
