"""A drift report counts the decodes of its own run, not the engine's history."""

from __future__ import annotations

import numpy as np

from repro.query import QueryEngine
from repro.store import write_fleet_store


def test_drift_after_aggregate_reports_zero_decodes(tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "fleet.rsym"
    write_fleet_store(
        path, np.abs(rng.normal(2.0, 1.0, size=(8, 96))), alphabet_size=8,
    ).close()
    with QueryEngine.open(path) as engine:
        engine.aggregate()
        assert engine.source.stats.columns_decoded > 0
        assert engine.drift().columns_decoded == 0
