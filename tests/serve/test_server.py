"""End-to-end server behaviour: parity, shedding, deadlines, degradation.

The central claims pinned here:

* remote results are **bit-identical** to the library path (floats survive
  JSON via repr round-trip);
* overload and damage always surface as *structured* responses — 429, 503,
  504, ``"degraded": true`` — never a hang, a crash, or silently wrong
  data;
* a concurrent append becomes visible without restart (hot manifest-
  generation reload) while in-flight snapshots stay consistent.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    RateLimited,
    ServeError,
    UnknownStore,
)
from repro.obs import registry as obs_registry
from repro.query import QueryConfig, QueryEngine
from repro.query.verbs import KNNParams
from repro.serve import (
    QueryServer,
    RetryPolicy,
    ServeClient,
    ServerConfig,
    protocol,
)
from repro.store import append_segment, faults
from repro.store.faults import FaultPlan
from repro.store.segments import SegmentedStore

from .conftest import SEGMENT_WINDOWS, fleet_values


def no_retry(url: str) -> ServeClient:
    return ServeClient(
        url, timeout=10.0, policy=RetryPolicy(max_attempts=1)
    )


class TestParity:
    """Remote results must be bit-identical to the library path."""

    def test_knn(self, server, client, fleet_dir):
        with QueryEngine.open(fleet_dir) as engine:
            T = int(engine.store.counts[0])
            queries = fleet_values()[:3, :T]
            local = engine.knn(queries, QueryConfig(k=4))
        remote = client.knn("fleet", queries, k=4)
        assert remote["positions"] == local.positions.tolist()
        assert remote["ids"] == local.ids
        assert (
            np.asarray(remote["distances"]).tobytes()
            == local.distances.tobytes()
        )
        assert remote["stats"]["refined"] == local.stats.refined
        assert remote["degraded"] is False

    def test_match(self, server, client, fleet_dir):
        with QueryEngine.open(fleet_dir) as engine:
            local = engine.match("a{2,} *")
        remote = client.match("fleet", "a{2,} *")
        assert remote["total_matches"] == local.total_matches
        spans = {
            str(k): [[int(a), int(b)] for a, b in v]
            for k, v in local.spans.items()
        }
        assert remote["spans"] == spans

    def test_agg(self, server, client, fleet_dir):
        with QueryEngine.open(fleet_dir) as engine:
            local = engine.aggregate()
        remote = client.agg("fleet")
        assert remote["ids"] == list(local.ids)
        assert remote["symbol_counts"] == local.symbol_counts.tolist()
        assert (
            np.asarray(remote["duty_cycle"]).tobytes()
            == local.duty_cycle.tobytes()
        )

    def test_anomaly_and_drift(self, server, client, fleet_dir):
        with QueryEngine.open(fleet_dir) as engine:
            anomaly = engine.anomaly()
            drift = engine.drift()
        remote_anomaly = client.anomaly("fleet")
        remote_drift = client.drift("fleet")
        assert (
            np.asarray(remote_anomaly["scores"]).tobytes()
            == anomaly.scores.tobytes()
        )
        assert (
            np.asarray(remote_drift["distances"]).tobytes()
            == drift.distances.tobytes()
        )
        assert remote_drift["reference"] == drift.reference

    def test_private_agg(self, server, client, fleet_dir):
        with QueryEngine.open(fleet_dir) as engine:
            local = engine.private_aggregate(k_anon=3, epsilon=2.0, seed=9)
        remote = client.private_agg("fleet", k_anon=3, epsilon=2.0, seed=9)
        assert (
            np.asarray(remote["symbol_counts"]).tobytes()
            == local.symbol_counts.tobytes()
        )

    def test_store_info(self, server, client, fleet_dir):
        info = client.store_info("fleet")
        with SegmentedStore.open(fleet_dir) as store:
            assert info["n_meters"] == store.n_meters
            assert info["generation"] == store.generation
            assert info["n_segments"] == store.n_segments
        assert info["degraded"] is False
        assert info["breaker"]["state"] == "closed"


class TestStructuredErrors:
    def test_unknown_store_404(self, server):
        with pytest.raises(UnknownStore):
            no_retry(server.url).agg("nope")

    def test_unknown_op_404(self, server):
        client = no_retry(server.url)
        with pytest.raises(UnknownStore):
            client._call("POST", "/stores/fleet/frobnicate", {})

    def test_bad_body_400(self, server):
        client = no_retry(server.url)
        with pytest.raises(BadRequest):
            client.knn("fleet", [["not", "numbers"]])

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_query_400(self, server, value):
        """A non-finite query value is the engine's 400, never an answer:
        an inf query once got distances of inf, which JSON cannot carry."""
        queries = fleet_values()[:1]
        queries[0, 7] = value
        with pytest.raises(ServeError) as info:
            no_retry(server.url).knn("fleet", queries, k=3)
        assert (info.value.code, info.value.status) == ("query.invalid", 400)

    def test_missing_pattern_400(self, server):
        with pytest.raises(BadRequest):
            no_retry(server.url)._call("POST", "/stores/fleet/match", {})

    def test_bad_deadline_400(self, server):
        with pytest.raises(BadRequest):
            no_retry(server.url)._call(
                "POST", "/stores/fleet/agg", {"deadline_ms": -5}
            )

    @pytest.mark.parametrize("op,body", [
        ("knn", {"k": "three"}),
        ("knn", {"refine_chunk": "x"}),
        ("knn", {"exclude_ids": 5}),
        ("knn", {"use_index": "false"}),
        ("agg", {"level": "high"}),
        ("agg", {"per_day": "false"}),
        ("private_agg", {"k_anon": "five"}),
        ("private_agg", {"epsilon": "big"}),
        ("private_agg", {"seed": "s"}),
    ])
    def test_malformed_param_400(self, server, op, body):
        """Each param's type is checked: a 400, never a 500 or a misread."""
        if op == "knn":
            body = dict(body, queries=fleet_values()[:1].tolist())
        errors = obs_registry().counter_value("serve.errors_total")
        with pytest.raises(BadRequest):
            no_retry(server.url)._call("POST", f"/stores/fleet/{op}", body)
        assert obs_registry().counter_value("serve.errors_total") == errors

    def test_unhashable_meter_id_400(self, server):
        errors = obs_registry().counter_value("serve.errors_total")
        with pytest.raises(ServeError) as info:
            no_retry(server.url).agg("fleet", meters=[[0, 1]])
        assert (info.value.code, info.value.status) == ("store.invalid", 400)
        assert obs_registry().counter_value("serve.errors_total") == errors

    def test_unknown_ops_share_one_latency_series(self, server):
        def series():
            return {
                key for key in obs_registry().snapshot()["histograms"]
                if key.startswith("serve.request_seconds")
            }

        client = no_retry(server.url)
        before = series()
        for i in range(50):
            with pytest.raises(UnknownStore):
                client._call("POST", f"/stores/fleet/op-{i}", {})
        assert len(series() - before) <= 1

    def test_server_survives_errors(self, server, client):
        """After a pile of failures the server still answers healthily."""
        bad = no_retry(server.url)
        for _ in range(5):
            with pytest.raises((UnknownStore, BadRequest)):
                bad.agg("nope")
        assert client.healthz()["ok"] is True


_DROP = object()


def _packed(**change):
    """A valid packed one-vector ``queries`` with ``change`` applied
    (``_DROP`` removes a key)."""
    packed = KNNParams(fleet_values()[0]).to_body()["queries"]
    packed.update(change)
    return {key: value for key, value in packed.items() if value is not _DROP}


class TestQueryWireForms:
    """``queries`` travels packed from the client; lists stay accepted."""

    @pytest.mark.parametrize("queries", [
        pytest.param(_packed(float64=12), id="float64-int"),
        pytest.param(_packed(float64=None), id="float64-null"),
        pytest.param(_packed(float64=["AAAAAAAAAAA="]), id="float64-list"),
        pytest.param(_packed(float64="not base64!"), id="float64-alphabet"),
        pytest.param(_packed(float64="AAA"), id="float64-padding"),
        pytest.param(_packed(float64="\u00e9t\u00e9"), id="float64-non-ascii"),
        pytest.param(_packed(shape=[]), id="shape-empty"),
        pytest.param(_packed(shape=[0]), id="shape-zero"),
        pytest.param(_packed(shape=[-192]), id="shape-negative"),
        pytest.param(_packed(shape=[1, 1, 192]), id="shape-3d"),
        pytest.param(_packed(shape=[True]), id="shape-bool"),
        pytest.param(_packed(shape=[192.0]), id="shape-float"),
        pytest.param(_packed(shape="192"), id="shape-string"),
        pytest.param(_packed(shape=None), id="shape-null"),
        pytest.param(_packed(shape=[191]), id="bytes-short"),
        pytest.param(_packed(shape=[2, 192]), id="bytes-long"),
        pytest.param(_packed(extra=1), id="extra-key"),
        pytest.param(_packed(shape=_DROP), id="missing-shape"),
        pytest.param(_packed(float64=_DROP), id="missing-float64"),
    ])
    def test_malformed_packed_queries_400(self, server, queries):
        errors = obs_registry().counter_value("serve.errors_total")
        with pytest.raises(BadRequest) as info:
            no_retry(server.url)._call(
                "POST", "/stores/fleet/knn", {"queries": queries}
            )
        assert (info.value.code, info.value.status) == ("serve.bad-request", 400)
        assert "'queries" in str(info.value)
        assert obs_registry().counter_value("serve.errors_total") == errors

    @pytest.mark.parametrize("rows", [1, 32])
    def test_list_body_answers_like_the_client(self, server, client, rows):
        """Hand-written nested lists get the same wire body as the packed
        form the client sends, for one vector and for a batch."""
        T = fleet_values().shape[1]
        queries = np.random.default_rng(rows).normal(size=(rows, T)).cumsum(axis=1)
        queries = queries[0] if rows == 1 else queries
        listed = client._call("POST", "/stores/fleet/knn",
                              {"queries": queries.tolist(), "k": 3})
        packed = client.knn("fleet", queries, k=3)
        assert protocol.dumps(listed) == protocol.dumps(packed)


class TestRateLimiting:
    def test_429_with_retry_after(self, fleet_dir):
        config = ServerConfig(rate=1.0, burst=2)
        with QueryServer({"fleet": fleet_dir}, config) as server:
            client = no_retry(server.url)
            client.agg("fleet")
            client.agg("fleet")
            with pytest.raises(RateLimited) as info:
                client.agg("fleet")
            assert info.value.retry_after is not None
            assert info.value.retry_after > 0

    def test_healthz_is_never_limited(self, fleet_dir):
        config = ServerConfig(rate=1.0, burst=1)
        with QueryServer({"fleet": fleet_dir}, config) as server:
            client = no_retry(server.url)
            client.agg("fleet")
            for _ in range(5):
                assert client.healthz()["ok"] is True


class TestOverload:
    def test_sheds_at_2x_capacity(self, fleet_dir):
        """With 1 slot, 0 queue and a slow handler, extra load sheds 503."""
        config = ServerConfig(max_concurrent=1, max_queue=0)
        with QueryServer({"fleet": fleet_dir}, config) as server:
            outcomes = []
            lock = threading.Lock()

            def hit():
                try:
                    no_retry(server.url).agg("fleet")
                    with lock:
                        outcomes.append("ok")
                except Overloaded:
                    with lock:
                        outcomes.append("shed")

            with faults.inject(FaultPlan(
                "serve.handle", action="delay", delay_s=0.3, repeat=True,
            )):
                threads = [threading.Thread(target=hit) for _ in range(3)]
                for t in threads:
                    t.start()
                    time.sleep(0.02)   # establish arrival order
                for t in threads:
                    t.join(timeout=10.0)
            assert "ok" in outcomes
            assert "shed" in outcomes
            # And afterwards the server is healthy again.
            assert no_retry(server.url).agg("fleet")["ids"]


class TestDeadlines:
    def test_slow_handler_times_out_504(self, fleet_dir):
        with QueryServer({"fleet": fleet_dir}, ServerConfig()) as server:
            client = no_retry(server.url)
            with faults.inject(FaultPlan(
                "serve.handle", action="delay", delay_s=0.15,
            )):
                with pytest.raises(DeadlineExceeded) as info:
                    client.agg("fleet", deadline_ms=50.0)
            assert info.value.budget_ms == 50.0
            assert info.value.elapsed_ms >= 50.0
            # Partial-work accounting rides the 504.
            assert info.value.completed == 0
            # The next, un-delayed request is fine.
            assert client.agg("fleet", deadline_ms=5000.0)["ids"]

    def test_expired_deadline_is_not_retried(self, server):
        client = ServeClient(server.url, timeout=10.0)
        before = client.retries_total
        with faults.inject(FaultPlan(
            "serve.handle", action="delay", delay_s=0.15,
        )):
            with pytest.raises(DeadlineExceeded):
                client.agg("fleet", deadline_ms=50.0)
        assert client.retries_total == before

    def test_default_deadline_from_config(self, fleet_dir):
        config = ServerConfig(default_deadline_ms=50.0)
        with QueryServer({"fleet": fleet_dir}, config) as server:
            with faults.inject(FaultPlan(
                "serve.handle", action="delay", delay_s=0.15,
            )):
                with pytest.raises(DeadlineExceeded):
                    no_retry(server.url).agg("fleet")


class TestHotReload:
    def test_append_becomes_visible_without_restart(
        self, server, client, fleet_dir
    ):
        info_before = client.store_info("fleet")
        with SegmentedStore.open(fleet_dir) as store:
            matrix = np.vstack([
                store.indices(i)[-8:] for i in store.ids
            ])
        append_segment(fleet_dir, matrix, reason="concurrent-writer")
        info_after = client.store_info("fleet")
        assert info_after["generation"] == info_before["generation"] + 1
        agg = client.agg("fleet")
        with QueryEngine.open(fleet_dir) as engine:
            local = engine.aggregate()
        assert agg["symbol_counts"] == local.symbol_counts.tolist()

    def test_inflight_snapshot_survives_reload(self, server, fleet_dir):
        handle = server.manager.handle("fleet")
        old = handle.lease()
        old_generation = old.engine.store.generation
        with SegmentedStore.open(fleet_dir) as store:
            matrix = np.vstack([store.indices(i)[-8:] for i in store.ids])
        append_segment(fleet_dir, matrix)
        new = handle.lease()
        assert new is not old
        assert new.engine.store.generation == old_generation + 1
        # The old snapshot still answers (its mmap is alive) until released.
        assert old.engine.store.n_symbols > 0
        old.release()
        new.release()
        assert handle.reloads_total >= 1


class TestIdempotentAppend:
    def test_same_key_appends_once(self, server, client, fleet_dir):
        with SegmentedStore.open(fleet_dir) as store:
            matrix = np.vstack([store.indices(i)[-8:] for i in store.ids])
            segments_before = store.n_segments
        first = client.append("fleet", matrix, idempotency_key="abc")
        second = client.append("fleet", matrix, idempotency_key="abc")
        assert first["duplicate"] is False
        assert second["duplicate"] is True
        assert second["segment"] == first["segment"]
        with SegmentedStore.open(fleet_dir) as store:
            assert store.n_segments == segments_before + 1

    def test_different_keys_append_twice(self, server, client, fleet_dir):
        with SegmentedStore.open(fleet_dir) as store:
            matrix = np.vstack([store.indices(i)[-8:] for i in store.ids])
            segments_before = store.n_segments
        client.append("fleet", matrix, idempotency_key="k1")
        client.append("fleet", matrix, idempotency_key="k2")
        with SegmentedStore.open(fleet_dir) as store:
            assert store.n_segments == segments_before + 2

    def test_append_to_file_store_is_400(self, fleet_file):
        with QueryServer({"fleet": fleet_file}) as server:
            with pytest.raises(BadRequest):
                no_retry(server.url).append("fleet", [[0, 1]])

    @pytest.mark.parametrize(
        "cell", ["3", True, 2.7, 2**70],
        ids=["string", "bool", "float", "int64-overflow"],
    )
    def test_non_integer_indices_400(self, server, fleet_dir, cell):
        """Strings, booleans, floats and integers past int64 are a 400
        naming ``indices``, and nothing is committed."""
        indices = [[0] * 8 for _ in range(10)]
        indices[1][2] = cell
        with SegmentedStore.open(fleet_dir) as store:
            generation = store.generation
        with pytest.raises(BadRequest) as info:
            no_retry(server.url).append("fleet", indices)
        assert (info.value.code, info.value.status) == ("serve.bad-request", 400)
        assert "'indices'" in str(info.value)
        with SegmentedStore.open(fleet_dir) as store:
            assert store.generation == generation


class TestShardThreads:
    def test_sharded_queries_start_no_process(self, fleet_dir, monkeypatch):
        """``workers=2`` shards run on threads, so neither the engine nor
        the multi-threaded server forks to answer a query."""
        def fork():
            raise AssertionError("a query forked a process")

        monkeypatch.setattr(os, "fork", fork)
        with QueryEngine.open(fleet_dir) as engine:
            anomaly = engine.anomaly(workers=2)
            local = engine.aggregate()
        assert anomaly.transitions.sum() > 0
        with QueryServer(
            {"fleet": fleet_dir}, ServerConfig(workers=2)
        ) as server:
            client = no_retry(server.url)
            knn = client.knn("fleet", fleet_values()[:2], k=3)
            agg = client.agg("fleet")
        assert len(knn["ids"]) == 2
        assert agg["symbol_counts"] == local.symbol_counts.tolist()


class TestFileStore:
    """Single-file ``.rsym`` stores serve through the same surface."""

    def test_knn_parity(self, fleet_file):
        with QueryServer({"fleet": fleet_file}) as server:
            with QueryEngine.open(fleet_file) as engine:
                T = int(engine.store.counts[0])
                queries = fleet_values()[:2, :T]
                local = engine.knn(queries, QueryConfig(k=3))
            remote = no_retry(server.url).knn("fleet", queries, k=3)
            assert (
                np.asarray(remote["distances"]).tobytes()
                == local.distances.tobytes()
            )

    def test_file_rewrite_reloads(self, tmp_path):
        from repro.store import write_fleet_store

        path = tmp_path / "fleet.rsym"
        write_fleet_store(path, fleet_values(), alphabet_size=8).close()
        with QueryServer({"fleet": path}) as server:
            client = no_retry(server.url)
            before = client.store_info("fleet")["n_symbols"]
            time.sleep(0.01)    # ensure a distinct mtime stamp
            write_fleet_store(
                path, fleet_values()[:, :96], alphabet_size=8
            ).close()
            after = client.store_info("fleet")["n_symbols"]
            assert after != before
