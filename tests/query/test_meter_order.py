"""A full-length meter list in any order labels every row with its own meter.

``agg`` and ``drift`` take the whole-fleet path (cached or index-backed
statistics in store order) only when the request is the fleet in store
order; a reversed or duplicated list of fleet length must still answer row
``i`` for ``meters[i]``, in process and through the server.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query import QueryEngine
from repro.serve import QueryServer, ServeClient, ServerConfig
from repro.store import write_fleet_store

N_METERS = 4
WINDOWS_PER_DAY = 96
ORDERS = [[3, 2, 1, 0], [0, 0, 1, 1], [1, 3, 0, 2]]


@pytest.fixture(scope="module", params=[False, True], ids=["scan", "index"])
def fleet_path(request, tmp_path_factory):
    rng = np.random.default_rng(41)
    # Distinct levels per meter, so every meter's counts and peak differ.
    levels = np.array([1.0, 4.0, 20.0, 90.0])[:, None]
    values = levels * np.exp(rng.normal(0.0, 0.6, (N_METERS, 2 * WINDOWS_PER_DAY)))
    path = tmp_path_factory.mktemp("order") / "fleet.rsym"
    write_fleet_store(
        path, values, alphabet_size=8, shared_table=True,
        sampling_interval=900.0, query_index=request.param,
    ).close()
    return path


def _expected(matrix: np.ndarray, order) -> dict:
    rows = matrix[order]
    hist = np.stack([np.bincount(row, minlength=8) for row in rows])
    pooled = hist.sum(axis=0) / hist.sum()
    share = hist / hist.sum(axis=1, keepdims=True)
    return {
        "symbol_counts": hist,
        "peak_level": rows.max(axis=1),
        "run_count": 1 + np.count_nonzero(np.diff(rows, axis=1), axis=1),
        "daily_peak": rows.reshape(len(order), -1, WINDOWS_PER_DAY).max(axis=2),
        "distances": 0.5 * np.abs(share - pooled).sum(axis=1),
    }


@pytest.mark.parametrize("order", ORDERS)
def test_engine_rows_follow_the_request(fleet_path, order):
    engine = QueryEngine.open(fleet_path)
    try:
        engine.aggregate()  # warm the whole-fleet cache the bug served from
        expected = _expected(engine.store.matrix(), order)
        report = engine.aggregate(meters=order, per_day=True)
        drift = engine.drift(meters=order)
    finally:
        engine.close()
    assert report.ids == order and drift.ids == order
    for name in ("symbol_counts", "peak_level", "run_count", "daily_peak"):
        np.testing.assert_array_equal(getattr(report, name), expected[name])
    np.testing.assert_array_equal(report.daily_peak.max(axis=1), report.peak_level)
    np.testing.assert_allclose(drift.distances, expected["distances"], rtol=1e-12)


@pytest.mark.parametrize("order", ORDERS)
def test_served_rows_follow_the_request(fleet_path, order):
    engine = QueryEngine.open(fleet_path)
    try:
        expected = _expected(engine.store.matrix(), order)
    finally:
        engine.close()
    server = QueryServer({"fleet": fleet_path}, ServerConfig()).start()
    try:
        client = ServeClient(server.url, timeout=10.0)
        client.agg("fleet")
        agg = client.agg("fleet", meters=order, per_day=True)
        drift = client.drift("fleet", meters=order)
    finally:
        server.shutdown()
    assert agg["ids"] == order and drift["ids"] == order
    for name in ("symbol_counts", "peak_level", "run_count", "daily_peak"):
        np.testing.assert_array_equal(np.asarray(agg[name]), expected[name])
    np.testing.assert_allclose(drift["distances"], expected["distances"], rtol=1e-12)
