"""A ``.rsymx`` sidecar that cannot be read degrades like a stale one.

A truncated sidecar, or one written in index format version 1, is dropped
at open with one warning per path and a count on
``store.stale_index_total``; the engine then builds its index in memory, so
every verb answers as it does on a store with no sidecar, locally and
served.  The warning's advice to rebuild the sidecar is said once.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import StoreIntegrityWarning
from repro.obs import registry
from repro.query import QueryEngine, query_index_path, write_query_index
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
from repro.store import append_segment, open_store, write_segmented_fleet

N_METERS, PER_DAY = 10, 24
ADVICE = "rebuild it with write_query_index()"


def _damage_truncated(sidecar) -> None:
    sidecar.write_bytes(sidecar.read_bytes()[:-5])


def _damage_version_1(sidecar) -> None:
    blob = sidecar.read_bytes()
    assert blob.count(b'"version":2') == 1
    sidecar.write_bytes(blob.replace(b'"version":2', b'"version":1'))


DAMAGE = {"truncated": _damage_truncated, "version-1": _damage_version_1}


@pytest.fixture(params=sorted(DAMAGE))
def damaged(request, tmp_path):
    """``(store dir, damage name)``: a segmented store whose sidecar is
    unreadable."""
    directory = tmp_path / "fleet.rsyms"
    values = np.random.default_rng(5).normal(size=(N_METERS, 3 * PER_DAY)).cumsum(axis=1)
    store = write_segmented_fleet(
        directory, values, alphabet_size=8, segment_windows=PER_DAY,
        sampling_interval=3600.0,
    )
    write_query_index(store)
    store.close()
    DAMAGE[request.param](query_index_path(directory))
    return directory, request.param


def _params(width: int):
    queries = np.random.default_rng(width).normal(size=(2, width)).cumsum(axis=1)
    return {
        "knn": KNNParams(queries, k=3),
        "match": MatchParams("a{2,} *"),
        "agg": AggParams(level=3),
        "anomaly": AnomalyParams(),
        "drift": DriftParams(),
        "private_agg": PrivateAggParams(k_anon=3),
    }


def test_a_local_open_answers_like_a_sidecar_less_engine(damaged):
    directory, _ = damaged
    stale_before = registry().counter_value("store.stale_index_total")
    with pytest.warns(StoreIntegrityWarning, match="ignoring stale query index") as caught:
        engine = QueryEngine.open(directory)
    (warning,) = [w for w in caught if issubclass(w.category, StoreIntegrityWarning)]
    assert str(warning.message).count(ADVICE) == 1
    assert registry().counter_value("store.stale_index_total") == stale_before + 1
    bare = QueryEngine(open_store(directory))  # no sidecar at all
    try:
        assert engine._index is None
        for name, params in _params(int(engine.store.counts[0])).items():
            ours = protocol.dumps(VERBS[name].answer(engine, params))
            assert ours == protocol.dumps(VERBS[name].answer(bare, params)), name
    finally:
        engine.close()
        bare.close()
    with warnings.catch_warnings(record=True) as again:
        warnings.simplefilter("always")
        QueryEngine.open(directory).close()
    assert not [w for w in again if issubclass(w.category, StoreIntegrityWarning)]
    assert registry().counter_value("store.stale_index_total") == stale_before + 2


def test_served_agg_and_anomaly_answer(damaged):
    directory, _ = damaged
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StoreIntegrityWarning)
        with QueryServer({"fleet": directory}, ServerConfig(tracing=False)) as server:
            client = ServeClient(server.url, timeout=30.0)
            served = {"agg": client.agg("fleet", level=3), "anomaly": client.anomaly("fleet")}
        with QueryEngine(open_store(directory)) as bare:
            params = _params(int(bare.store.counts[0]))
            for name, body in served.items():
                body = dict(body)
                body.pop("degraded", None)
                local = VERBS[name].answer(bare, params[name])
                assert protocol.dumps(body) == protocol.dumps(local), name


def test_a_stale_sidecar_warning_gives_its_advice_once(tmp_path):
    directory = tmp_path / "fleet.rsyms"
    values = np.random.default_rng(6).normal(size=(N_METERS, 2 * PER_DAY)).cumsum(axis=1)
    store = write_segmented_fleet(
        directory, values, alphabet_size=8, segment_windows=PER_DAY,
        sampling_interval=3600.0,
    )
    write_query_index(store)
    append_segment(directory, store.matrix(window_range=(0, 4)), tables=store.shared_table)
    store.close()
    with pytest.warns(StoreIntegrityWarning, match="ignoring stale query index") as caught:
        QueryEngine.open(directory).close()
    (warning,) = [w for w in caught if issubclass(w.category, StoreIntegrityWarning)]
    assert "is stale" in str(warning.message)
    assert str(warning.message).count(ADVICE) == 1
    assert str(warning.message).count("rebuild") == 1
