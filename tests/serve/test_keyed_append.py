"""Keyed appends deduplicate in the store, under its writer lock.

The idempotency key is looked up in the manifest ``append_segment`` reads
under the directory's writer lock, so a key commits once however many
server processes (or in-process servers, which share no lock of their
own) send it.  The append body's one check is ``AppendParams``: a
non-string ``reason`` or ``idempotency_key`` is a 400, and nothing is
committed.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import BadRequest
from repro.obs import registry as obs_registry
from repro.serve import QueryServer, RetryPolicy, ServeClient
from repro.store import append_segment, faults
from repro.store.faults import FaultPlan
from repro.store.segments import SegmentedStore


def no_retry(url: str) -> ServeClient:
    return ServeClient(url, timeout=30.0, policy=RetryPolicy(max_attempts=1))


def _tail(fleet_dir) -> np.ndarray:
    with SegmentedStore.open(fleet_dir) as store:
        return np.vstack([store.indices(i)[-8:] for i in store.ids])


def _state(fleet_dir):
    with SegmentedStore.open(fleet_dir) as store:
        return store.n_segments, store.generation


def test_one_key_commits_once_through_two_servers(fleet_dir):
    """Server A's keyed append is held inside the writer lock; server B
    gets the same key meanwhile and answers with A's segment."""
    matrix = _tail(fleet_dir)
    segments, generation = _state(fleet_dir)
    counters = obs_registry()
    appends = counters.counter_value("serve.appends_total")
    duplicates = counters.counter_value("serve.append_duplicates_total")
    with QueryServer({"fleet": fleet_dir}) as a, \
            QueryServer({"fleet": fleet_dir}) as b:
        first = {}
        with faults.inject(FaultPlan(
            "segments.before_manifest", action="delay", delay_s=1.0,
        )) as injector:
            thread = threading.Thread(target=lambda: first.update(
                no_retry(a.url).append("fleet", matrix, idempotency_key="k1")
            ))
            thread.start()
            deadline = time.monotonic() + 10.0
            while not injector.fired:
                assert time.monotonic() < deadline, "A's append never held"
                time.sleep(0.005)
            second = no_retry(b.url).append(
                "fleet", matrix, idempotency_key="k1"
            )
            thread.join(30.0)
    assert first["duplicate"] is False
    assert second["duplicate"] is True
    assert second["segment"] == first["segment"]
    assert first["generation"] == second["generation"] == generation + 1
    assert _state(fleet_dir) == (segments + 1, generation + 1)
    assert counters.counter_value("serve.appends_total") == appends + 1
    assert counters.counter_value("serve.append_duplicates_total") == duplicates + 1


def test_a_replayed_key_writes_nothing(fleet_dir):
    """The second call with one key returns the stored record, its
    generation the current one, and leaves every file as it was."""
    matrix = _tail(fleet_dir)
    first = append_segment(fleet_dir, matrix, reason="ingest", key="k")
    files = sorted(path.name for path in fleet_dir.iterdir())
    commits = obs_registry().counter_value("store.segment_commits_total")
    second = append_segment(fleet_dir, matrix[:, :3], reason="ingest", key="k")
    assert (first.duplicate, second.duplicate) == (False, True)
    assert second == first and second.reason == "ingest:key=k"
    assert second.generation == first.generation
    assert sorted(path.name for path in fleet_dir.iterdir()) == files
    assert obs_registry().counter_value("store.segment_commits_total") == commits
    with SegmentedStore.open(fleet_dir) as store:
        assert store.records[-1] == first
        assert store.generation == first.generation


@pytest.mark.parametrize("field,value", [
    ("reason", {"a": 1}),
    ("reason", 7),
    ("idempotency_key", [1, 2]),
    ("idempotency_key", 3),
])
def test_non_string_fields_400(server, fleet_dir, field, value):
    """A non-string ``reason`` or ``idempotency_key`` is a 400 naming it;
    the generation does not move."""
    body = {"indices": _tail(fleet_dir).tolist(), field: value}
    _, generation = _state(fleet_dir)
    with pytest.raises(BadRequest) as info:
        no_retry(server.url)._call("POST", "/stores/fleet/append", body)
    assert (info.value.code, info.value.status) == ("serve.bad-request", 400)
    assert f"'{field}'" in str(info.value)
    assert _state(fleet_dir)[1] == generation


@pytest.mark.parametrize("indices", [
    [[0, "3"], [1, 2]], [[True, 1], [0, 1]], [[2.7, 1], [0, 1]],
    [[2**70, 1], [0, 1]], [0, 1, 2], [[0, 1], [2]], None,
], ids=["string", "bool", "float", "int64-overflow", "1-d", "ragged", "absent"])
def test_bad_indices_in_a_raw_body_400(server, fleet_dir, indices):
    """The server's own check, for bodies no ``ServeClient`` would send."""
    body = {} if indices is None else {"indices": indices}
    _, generation = _state(fleet_dir)
    with pytest.raises(BadRequest) as info:
        no_retry(server.url)._call("POST", "/stores/fleet/append", body)
    assert "'indices'" in str(info.value)
    assert _state(fleet_dir)[1] == generation
