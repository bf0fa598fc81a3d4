"""Every snapshot answers from one index, whatever ran before.

An engine holds exactly one ``QueryIndex``: the fresh sidecar, the one a
reload carried, or one built in memory by the first query that reads it.
So on a store without a sidecar a ``match`` body is the same before and
after a ``drift``, every index-reading verb answers as it does over a fresh
sidecar, the build is counted like any other read, and ``anomaly`` and
unindexed kNN never build one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import registry, set_metrics_enabled, span, tracer
from repro.obs.trace import recent_traces
from repro.query import QueryConfig, QueryEngine, write_query_index
from repro.query.verbs import (
    VERBS,
    AggParams,
    DriftParams,
    MatchParams,
    PrivateAggParams,
)
from repro.serve import protocol
from repro.store import write_segmented_fleet

N_METERS, PER_DAY = 12, 24
PATTERN = "a{2,} *"


@pytest.fixture()
def bare_dir(tmp_path):
    """A segmented store without a sidecar, where the pattern's histogram
    prune skips some meters but not all."""
    values = np.random.default_rng(44).normal(size=(N_METERS, 3 * PER_DAY)).cumsum(axis=1)
    write_segmented_fleet(
        tmp_path / "fleet.rsyms", values, alphabet_size=8,
        segment_windows=PER_DAY, sampling_interval=3600.0,
    ).close()
    return tmp_path / "fleet.rsyms"


def _body(engine: QueryEngine, name: str, params) -> bytes:
    return protocol.dumps(VERBS[name].answer(engine, params))


def test_match_body_does_not_depend_on_an_earlier_drift(bare_dir):
    with QueryEngine.open(bare_dir) as engine:
        first = _body(engine, "match", MatchParams(PATTERN))
        engine.drift()
        assert _body(engine, "match", MatchParams(PATTERN)) == first
    body = json.loads(first)
    assert 0 < body["columns_skipped"] < N_METERS  # the index really pruned


@pytest.mark.parametrize("name,params", [
    ("match", MatchParams(PATTERN)),
    ("agg", AggParams(level=3)),
    ("drift", DriftParams()),
    ("private_agg", PrivateAggParams(k_anon=3)),
], ids=["match", "agg", "drift", "private_agg"])
def test_a_cold_build_answers_like_a_fresh_sidecar(bare_dir, name, params):
    with QueryEngine.open(bare_dir) as engine:
        built = _body(engine, name, params)
    with QueryEngine.open(bare_dir) as engine:
        write_query_index(engine.store)
    with QueryEngine.open(bare_dir) as engine:
        assert engine._index is not None
        assert _body(engine, name, params) == built


def test_the_build_is_a_counted_nested_plan_run(bare_dir):
    trace, reg = tracer(), registry()
    was_enabled, metrics_were = trace.enabled, set_metrics_enabled(True)
    trace.enable()
    try:
        with QueryEngine.open(bare_dir) as engine:
            decoded = reg.counter_value("store.columns_decoded_total")
            with span("test.match"):
                engine.match(PATTERN)
            read = reg.counter_value("store.columns_decoded_total") - decoded
            assert engine.source.stats.columns_decoded == N_METERS
        (root,) = recent_traces(1)
        runs = [c for c in root["children"] if c["name"] == "plan.run"]
        assert [r["attributes"]["operator"] for r in runs] == [
            "IndexBuildOperator", "MatchOperator",
        ]
        assert runs[0]["attributes"]["columns_decoded"] == N_METERS
        assert read == N_METERS
    finally:
        set_metrics_enabled(metrics_were)
        if not was_enabled:
            trace.disable()


def test_anomaly_and_unindexed_knn_build_no_index(bare_dir):
    with QueryEngine.open(bare_dir) as engine:
        engine.anomaly()
        query = engine.store.decode(meters=[engine.store.ids[0]])[0]
        result = engine.knn(query, QueryConfig(k=3, use_index=False))
        assert not result.stats.index_used
        assert engine._index is None
