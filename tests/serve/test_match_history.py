"""A served ``match`` body does not depend on the requests before it.

The server's snapshot and a cold in-process engine each answer from one
index, so ``repro query match --remote`` prints what the local command
prints after a ``drift`` (on a store without a sidecar) and after a keyed
HTTP append (which leaves the sidecar stale for a cold open, while the
server carries its index across the reload).
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.query import QueryEngine, write_query_index
from repro.query.verbs import VERBS, MatchParams
from repro.serve import QueryServer, ServeClient, ServerConfig, protocol
from repro.store import SymbolStore, write_segmented_fleet

N_METERS, ALPHABET, PER_DAY = 10, 8, 24
PATTERN = "a{2,} *"


@pytest.fixture()
def fleet_dir(tmp_path):
    """Three daily segments with ``windows_per_day``, so a reload after an
    append carries the server's index forward; no sidecar."""
    values = np.random.default_rng(41).normal(size=(N_METERS, 3 * PER_DAY)).cumsum(axis=1)
    write_segmented_fleet(
        tmp_path / "fleet.rsyms", values, alphabet_size=ALPHABET,
        segment_windows=PER_DAY, sampling_interval=3600.0,
    ).close()
    return tmp_path / "fleet.rsyms"


def _served(client: ServeClient) -> bytes:
    body = dict(client.match("fleet", pattern=PATTERN))
    assert body.pop("degraded") is False
    return protocol.dumps(body)


def _local(directory) -> bytes:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the stale sidecar, if any
        engine = QueryEngine.open(directory)
    with engine:
        return protocol.dumps(VERBS["match"].answer(engine, MatchParams(PATTERN)))


def test_served_match_after_drift_equals_a_cold_engine(fleet_dir):
    with QueryServer({"fleet": fleet_dir}, ServerConfig(tracing=False)) as server:
        client = ServeClient(server.url, timeout=30.0)
        client.drift("fleet")
        served = _served(client)
    assert served == _local(fleet_dir)
    assert 0 < json.loads(served)["columns_skipped"] < N_METERS


def test_served_match_after_a_keyed_append_equals_a_cold_open(fleet_dir):
    with SymbolStore.open(fleet_dir) as store:
        write_query_index(store)
    with QueryServer({"fleet": fleet_dir}, ServerConfig(tracing=False)) as server:
        client = ServeClient(server.url, timeout=30.0)
        before = _served(client)
        hour = np.random.default_rng(9).integers(0, ALPHABET, size=(N_METERS, 4))
        client.append("fleet", hour, idempotency_key="hour-1")
        served = _served(client)
    assert served != before
    assert served == _local(fleet_dir)
    assert 0 < json.loads(served)["columns_skipped"] < N_METERS
