"""Serve-side fault matrix: damage and disruption under live traffic.

Each cell pins the availability invariant: an injected fault — slow
handler, mid-response disconnect, corrupt segment under load — produces
either a *structured* error the client can act on or a successful retry.
The server never crashes, never hangs, and never returns wrong data.
"""

from __future__ import annotations

import threading
import time
import warnings

import numpy as np
import pytest

from repro.errors import Degraded, ReproError
from repro.query import QueryEngine
from repro.serve import (
    QueryServer,
    RetryPolicy,
    ServeClient,
    ServerConfig,
)
from repro.store import faults
from repro.store.faults import FaultPlan
from repro.store.format import MAGIC_HEAD

from .conftest import fleet_values


def _segment_paths(directory):
    return sorted(directory.glob("seg-*.rsym"))


def _local_expected(path):
    """Quarantine-aware local answer: what a degraded server should say.

    Payload rot is invisible to a lazy open, so the read itself may trip;
    scrub like an operator would and read the healed store.
    """
    from repro.errors import CorruptStoreError
    from repro.store import scrub_store

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(2):
            try:
                with QueryEngine.open(path) as engine:
                    return engine.aggregate()
            except CorruptStoreError:
                scrub_store(path, repair=True)
        raise AssertionError("store unreadable even after scrub")


def _await_healthy(client, expected_counts, timeout=10.0):
    """Poll until scrub has healed the store and responses go clean."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        response = client.agg("fleet")
        assert response["symbol_counts"] == expected_counts
        if not response["degraded"]:
            return response
        time.sleep(0.05)
    raise AssertionError("store never recovered from degraded serving")


class TestDegradedServing:
    def test_truncated_segment_serves_degraded_then_heals(self, fleet_dir):
        victim = _segment_paths(fleet_dir)[1]
        faults.truncate_file(victim, victim.stat().st_size // 2)
        expected = _local_expected(fleet_dir).symbol_counts.tolist()

        config = ServerConfig(breaker_reset_s=0.1)
        with QueryServer({"fleet": fleet_dir}, config) as server:
            client = ServeClient(
                server.url, timeout=10.0,
                policy=RetryPolicy(max_attempts=1),
            )
            # The very first response is degraded but *correct*: the
            # healthy segments serve their exact bytes.
            first = client.agg("fleet")
            assert first["degraded"] is True
            assert first["symbol_counts"] == expected

            healed = _await_healthy(client, expected)
            assert healed["degraded"] is False
            # The quarantined segment is parked, not deleted.
            assert (fleet_dir / "quarantine" / victim.name).exists()
            metrics = client.metrics()["registry"]["counters"]
            assert metrics["serve.degraded_responses_total"] >= 1

    def test_bit_rot_mid_serve_degrades_then_recovers(self, fleet_dir):
        """Payload rot is invisible to a lazy open: the query trips on it,
        the handler retries once, gives a structured 503, and background
        scrub quarantines the segment so later retries succeed."""
        config = ServerConfig(breaker_reset_s=0.1)
        with QueryServer({"fleet": fleet_dir}, config) as server:
            no_retry = ServeClient(
                server.url, timeout=10.0,
                policy=RetryPolicy(max_attempts=1),
            )
            victim = _segment_paths(fleet_dir)[0]
            faults.flip_bit(victim, len(MAGIC_HEAD) + 5)

            # The first query trips on the rot.  Two legitimate outcomes:
            # the in-handler retry still sees the damage → structured 503
            # with a Retry-After hint; or the background scrub already
            # healed the store → a correct healthy-subset answer.  Never
            # wrong data, never a crash.
            try:
                first = no_retry.agg("fleet")
            except Degraded as error:
                assert error.retry_after == config.breaker_reset_s
            else:
                expected_now = _local_expected(
                    fleet_dir
                ).symbol_counts.tolist()
                assert first["symbol_counts"] == expected_now

            # A patient client rides the Retry-After hints to a correct,
            # healed answer — no wrong data was ever served.
            patient = ServeClient(
                server.url, timeout=10.0,
                policy=RetryPolicy(max_attempts=20, backoff_base=0.05),
            )
            expected = _local_expected(fleet_dir).symbol_counts.tolist()
            healed = _await_healthy(patient, expected)
            assert healed["degraded"] is False
            assert no_retry.healthz()["ok"] is True


class TestResponseDisconnect:
    def test_torn_response_is_retried_to_success(self, server, fleet_dir):
        client = ServeClient(server.url, timeout=10.0)
        with QueryEngine.open(fleet_dir) as engine:
            expected = engine.aggregate().symbol_counts.tolist()
        with faults.inject(FaultPlan(
            "serve.response", action="torn_write", after_bytes=20,
        )) as injector:
            response = client.agg("fleet")
        assert [p.step for p in injector.fired] == ["serve.response"]
        assert response["symbol_counts"] == expected
        assert client.retries_total >= 1
        # The handler thread survived the severed socket.
        assert client.healthz()["ok"] is True

    def test_disconnect_before_any_byte(self, server):
        client = ServeClient(server.url, timeout=10.0)
        with faults.inject(FaultPlan(
            "serve.response", action="torn_write", after_bytes=0,
        )):
            assert client.agg("fleet")["ids"]
        assert client.retries_total >= 1


class TestCorruptionUnderLoad:
    def test_concurrent_queries_survive_bit_rot(self, fleet_dir):
        """Hammer the server from several threads while a segment rots:
        every request ends in a valid answer or a structured error."""
        config = ServerConfig(breaker_reset_s=0.1, max_concurrent=8)
        with QueryServer({"fleet": fleet_dir}, config) as server:
            stop = threading.Event()
            failures = []

            def hammer(seed):
                client = ServeClient(
                    server.url, timeout=10.0,
                    policy=RetryPolicy(max_attempts=8, backoff_base=0.02),
                )
                T = 192
                queries = fleet_values(seed)[:2, :T]
                while not stop.is_set():
                    try:
                        if seed % 2:
                            response = client.agg("fleet")
                        else:
                            response = client.knn("fleet", queries, k=3)
                        assert "degraded" in response
                    except ReproError:
                        pass          # structured — acceptable under damage
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)
                        return

            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(4)
            ]
            for t in threads:
                t.start()
            time.sleep(0.2)
            victim = _segment_paths(fleet_dir)[2]
            faults.flip_bit(victim, len(MAGIC_HEAD) + 5)
            time.sleep(1.0)
            stop.set()
            for t in threads:
                t.join(timeout=15.0)
            assert not any(t.is_alive() for t in threads), "hung client"
            assert not failures, f"unstructured failure: {failures[:1]}"

            # After the dust settles the server serves the healthy subset,
            # bit-identical to a local quarantine-aware open.
            client = ServeClient(server.url, timeout=10.0)
            expected = _local_expected(fleet_dir)
            final = _await_healthy(
                client, expected.symbol_counts.tolist()
            )
            assert (
                np.asarray(final["duty_cycle"]).tobytes()
                == expected.duty_cycle.tobytes()
            )
