"""Answers across reloads: the server after N appends equals a cold engine.

Appends arrive over HTTP while the server keeps answering, so each read
reloads the snapshot through ``QueryEngine.reopen`` and its carried
index.  After 1, 5 and 40 appends every verb's wire body must equal the
codec output of a cold in-process engine at the same generation — on a
store with ``windows_per_day`` (the index carries) and on one without it
(the index is rebuilt), with the verbs asked in one order (``match``
first) and then in the reverse one.  An HTTP append carries the table of
the store's newest segment, so the table-bound verbs (``knn``,
``private_agg``) answer too; appends made in process with the store's
table, and ones that cut a new table epoch, are checked the same way.
"""

from __future__ import annotations

import warnings
from dataclasses import fields

import numpy as np
import pytest

from repro.core.lookup import LookupTable
from repro.errors import ReproError
from repro.query import QueryEngine
from repro.query.verbs import (
    VERBS,
    AggParams,
    AnomalyParams,
    DriftParams,
    KNNParams,
    MatchParams,
    PrivateAggParams,
)
from repro.serve import QueryServer, ServeClient, ServerConfig, protocol
from repro.store import SymbolStore, append_segment, write_segmented_fleet

N_METERS, ALPHABET, PER_DAY, DAYS = 10, 8, 24, 3
CHECKS = (1, 5, 40)

ORDER = ("knn", "private_agg", "drift", "agg", "anomaly", "match")
TABLE_FREE = ("drift", "match", "agg", "anomaly")


def _params(name: str, width: int):
    queries = np.random.default_rng(width).normal(size=(2, width)).cumsum(axis=1)
    return {
        "knn": KNNParams(queries, k=3),
        "private_agg": PrivateAggParams(k_anon=3),
        "drift": DriftParams(),
        "match": MatchParams("a{2,} *"),
        "agg": AggParams(level=3),
        "anomaly": AnomalyParams(),
    }[name]


def _outcome(call):
    """``("ok", body bytes)`` or ``("error", message)``."""
    try:
        body = dict(call())
    except ReproError as exc:
        return "error", str(exc)
    body.pop("degraded", None)
    return "ok", protocol.dumps(body)


def _assert_parity(client: ServeClient, directory, verbs) -> int:
    with SymbolStore.open(directory) as store:
        width = int(store.counts[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the stale sidecar, if any
        cold = QueryEngine.open(directory)
    answered = 0
    try:
        for name in verbs:
            params = _params(name, width)
            kwargs = {f.name: getattr(params, f.name) for f in fields(params)}
            served = _outcome(lambda: getattr(client, name)("fleet", **kwargs))
            local = _outcome(lambda: VERBS[name].answer(cold, params))
            assert served == local, name
            answered += served[0] == "ok"
    finally:
        cold.close()
    return answered


def _assert_parity_both_orders(client: ServeClient, directory) -> int:
    """Every verb in reverse ``ORDER`` (``match`` first, so after a reload
    both sides meet it first), then in ``ORDER``; each pass opens its own
    cold engine."""
    return sum(
        _assert_parity(client, directory, verbs) for verbs in (ORDER[::-1], ORDER)
    )


def _store(tmp_path, per_day: bool):
    directory = tmp_path / "fleet.rsyms"
    values = np.random.default_rng(41).normal(size=(N_METERS, DAYS * PER_DAY)).cumsum(axis=1)
    write_segmented_fleet(
        directory, values, alphabet_size=ALPHABET, segment_windows=PER_DAY,
        sampling_interval=3600.0 if per_day else None,
    ).close()
    return directory


def _hour(i: int) -> np.ndarray:
    return np.random.default_rng(100 + i).integers(0, ALPHABET, size=(N_METERS, 4))


@pytest.mark.parametrize("per_day", [True, False], ids=["windows_per_day", "no-windows_per_day"])
def test_http_appends_answer_like_a_cold_engine(tmp_path, per_day):
    directory = _store(tmp_path, per_day)
    with QueryServer({"fleet": directory}, ServerConfig(tracing=False)) as server:
        client = ServeClient(server.url, timeout=30.0)
        assert _assert_parity_both_orders(client, directory) == 2 * len(ORDER)
        for i in range(1, max(CHECKS) + 1):
            client.append("fleet", _hour(i), idempotency_key=f"hour-{i}")
            if i in CHECKS:
                assert _assert_parity_both_orders(client, directory) == 2 * len(ORDER)
            else:
                assert _assert_parity(client, directory, ("agg",)) == 1
        # The last reload was an append of the snapshot before it.
        store = server.manager.handle("fleet").snapshot.engine.store
        assert store.appended is not None and store.segments_opened == 1


@pytest.mark.parametrize("per_day", [True, False], ids=["windows_per_day", "no-windows_per_day"])
def test_appends_with_the_store_table_answer_every_verb(tmp_path, per_day):
    directory = _store(tmp_path, per_day)
    with SymbolStore.open(directory) as store:
        table = store.shared_table
    with QueryServer({"fleet": directory}, ServerConfig(tracing=False)) as server:
        client = ServeClient(server.url, timeout=30.0)
        for i in range(1, max(CHECKS) + 1):
            append_segment(directory, _hour(i), tables=table)
            if i in CHECKS:
                assert _assert_parity_both_orders(client, directory) == 2 * len(ORDER)
            else:
                assert _assert_parity(client, directory, ("knn",)) == 1


def test_a_new_table_epoch_answers_the_table_free_verbs(tmp_path):
    directory = _store(tmp_path, True)
    epoch = LookupTable.fit(np.random.default_rng(7).normal(size=500), ALPHABET)
    with QueryServer({"fleet": directory}, ServerConfig(tracing=False)) as server:
        client = ServeClient(server.url, timeout=30.0)
        assert _assert_parity_both_orders(client, directory) == 2 * len(ORDER)
        for i in range(1, 6):
            append_segment(directory, _hour(i), tables=epoch, reason="drift")
            assert _assert_parity(client, directory, TABLE_FREE) == len(TABLE_FREE)


def test_an_append_then_a_read_opens_one_segment(tmp_path):
    directory = _store(tmp_path, True)
    with QueryServer({"fleet": directory}, ServerConfig(tracing=True)) as server:
        client = ServeClient(server.url, timeout=30.0)
        client.agg("fleet")
        client.append("fleet", _hour(1))
        client.agg("fleet")
        trace_id = client.last_trace_id
        (trace,) = [
            t for t in client.traces_recent(16) if t["trace_id"] == trace_id
        ]
    assert trace["name"] == "serve.agg"
    (reload,) = [c for c in trace["children"] if c["name"] == "store.reopen"]
    assert reload["attributes"]["segments_opened"] == 1
    assert reload["attributes"]["segments_shared"] == DAYS
    assert reload["attributes"]["summaries"] == "carried"


def test_an_http_append_carries_the_newest_table_epoch(tmp_path):
    directory = _store(tmp_path, True)
    epoch = LookupTable.fit(np.random.default_rng(7).normal(size=500), ALPHABET)
    with QueryServer({"fleet": directory}, ServerConfig(tracing=False)) as server:
        append_segment(directory, _hour(1), tables=epoch, reason="drift")
        ServeClient(server.url, timeout=30.0).append("fleet", _hour(2))
    with SymbolStore.open(directory) as store:
        first, *_, drift, appended = store.segments
        assert drift.tables == epoch and appended.tables == epoch
        assert first.tables != epoch
