"""Deadlines and thread safety in the query layer.

Two satellite contracts of the serving PR live here:

* cooperative deadlines — ``ScanPlan.run(deadline=...)`` chunks serial
  execution, checks between chunks and inside the kNN refine loop, and a
  deadline-bearing run is **bit-identical** to the deadline-free path;
* thread safety — ``ColumnSource`` caches and ``QueryEngine`` survive a
  multi-threaded hammer with every thread seeing exactly the
  single-threaded answers.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import DeadlineExceeded
from repro.obs import registry
from repro.query import (
    ColumnSource,
    Deadline,
    QueryConfig,
    QueryEngine,
    ScanPlan,
    active_deadline,
    build_query_index,
    check_deadline,
)
from repro.query.ops import Operator
from repro.store import write_fleet_store


@pytest.fixture(scope="module")
def fleet_values():
    rng = np.random.default_rng(31)
    values = np.abs(rng.lognormal(4.0, 0.8, size=(40, 192)))
    values[:, 30:70] = 9.0
    return values


@pytest.fixture(scope="module")
def store(tmp_path_factory, fleet_values):
    path = tmp_path_factory.mktemp("deadline") / "fleet.rsym"
    return write_fleet_store(
        path, fleet_values, alphabet_size=8, method="median", window=1,
        shared_table=True, sampling_interval=900.0,
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestDeadline:
    def test_accounting(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        clock.now = 0.5
        assert deadline.elapsed() == 0.5
        assert deadline.remaining() == 1.5
        assert not deadline.expired()
        deadline.check(1, 10)            # not expired: free
        clock.now = 2.0
        assert deadline.expired()

    def test_check_raises_with_partial_work(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.now = 1.5
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check(7, 40)
        error = info.value
        assert error.budget_ms == 1000.0
        assert error.elapsed_ms == 1500.0
        assert error.completed == 7
        assert error.total == 40
        assert "7 of 40" in str(error)
        assert error.code == "query.deadline-exceeded"

    def test_from_ms(self):
        assert Deadline.from_ms(250.0).budget == 0.25

    def test_check_deadline_free_when_inactive(self):
        assert active_deadline() is None
        check_deadline(0, 10)            # no-op, must not raise


@dataclass(frozen=True)
class RecordingOperator(Operator):
    """Observes the active deadline and the shard sizes the driver picks."""

    seen: list

    def run_shard(self, source, items):
        self.seen.append((len(items), active_deadline() is not None))
        matrix = source.matrix(meters=[source.ids[int(c)] for c in items])
        return matrix.sum(axis=1)

    def merge(self, parts, source, items, kept):
        return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])


class TestPlanDeadline:
    def test_deadline_run_is_bit_identical(self, store):
        plain = ScanPlan(ColumnSource(store), RecordingOperator([])).run()
        timed = ScanPlan(ColumnSource(store), RecordingOperator([])).run(
            deadline=Deadline(3600.0)
        )
        np.testing.assert_array_equal(plain, timed)

    def test_deadline_chunks_serial_execution(self, store):
        seen: list = []
        ScanPlan(ColumnSource(store), RecordingOperator(seen)).run(
            deadline=Deadline(3600.0)
        )
        # 40 meters in chunks of 32: two shards, both under the deadline.
        assert [n for n, _ in seen] == [32, 8]
        assert all(active for _, active in seen)
        # Without a deadline: one shard, no ambient deadline.
        seen.clear()
        ScanPlan(ColumnSource(store), RecordingOperator(seen)).run()
        assert seen == [(40, False)]

    def test_shard_threads_see_the_deadline(self, store):
        seen: list = []
        ScanPlan(ColumnSource(store), RecordingOperator(seen)).run(
            workers=2, deadline=Deadline(3600.0)
        )
        # Shards finish in any order; each ran under the request's deadline.
        assert sorted(seen) == [(20, True), (20, True)]

    def test_expired_deadline_raises_before_any_read(self, store):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.now = 2.0
        source = ColumnSource(store)
        with pytest.raises(DeadlineExceeded) as info:
            ScanPlan(source, RecordingOperator([])).run(deadline=deadline)
        assert info.value.completed == 0
        assert info.value.total == 40
        assert source.stats.columns_decoded == 0

    def test_mid_plan_expiry_reports_progress(self, store):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)

        @dataclass(frozen=True)
        class SlowOperator(RecordingOperator):
            def run_shard(self, source, items):
                clock.now += 1.2       # the first chunk blows the budget
                return super().run_shard(source, items)

        with pytest.raises(DeadlineExceeded) as info:
            ScanPlan(ColumnSource(store), SlowOperator([])).run(
                deadline=deadline
            )
        assert info.value.completed == 32
        assert info.value.total == 40

    def test_deadline_token_reset_after_run(self, store):
        ScanPlan(ColumnSource(store), RecordingOperator([])).run(
            deadline=Deadline(3600.0)
        )
        assert active_deadline() is None
        with pytest.raises(DeadlineExceeded):
            clock = FakeClock()
            expired = Deadline(1.0, clock=clock)
            clock.now = 2.0
            ScanPlan(ColumnSource(store), RecordingOperator([])).run(
                deadline=expired
            )
        assert active_deadline() is None


class TestEngineDeadline:
    def test_queries_with_roomy_deadline_match_without(
        self, store, fleet_values
    ):
        engine = QueryEngine(store)
        roomy = lambda: Deadline(3600.0)  # noqa: E731
        queries = fleet_values[:3]
        plain = engine.knn(queries, QueryConfig(k=5))
        timed = engine.knn(queries, QueryConfig(k=5), deadline=roomy())
        assert plain.ids == timed.ids
        assert plain.distances.tobytes() == timed.distances.tobytes()
        assert (
            engine.aggregate().symbol_counts.tobytes()
            == engine.aggregate(deadline=roomy()).symbol_counts.tobytes()
        )
        assert (
            engine.anomaly().scores.tobytes()
            == engine.anomaly(deadline=roomy()).scores.tobytes()
        )
        assert (
            engine.match("a{1,}").total_matches
            == engine.match("a{1,}", deadline=roomy()).total_matches
        )
        assert (
            engine.drift().distances.tobytes()
            == engine.drift(deadline=roomy()).distances.tobytes()
        )

    def test_each_query_kind_honours_expiry(self, store, fleet_values):
        engine = QueryEngine(store)
        clock = FakeClock()

        def expired():
            deadline = Deadline(1.0, clock=clock)
            clock.now += 2.0
            return deadline

        with pytest.raises(DeadlineExceeded):
            engine.knn(fleet_values[:2], QueryConfig(k=3),
                       deadline=expired())
        with pytest.raises(DeadlineExceeded):
            engine.aggregate(deadline=expired())
        with pytest.raises(DeadlineExceeded):
            engine.anomaly(deadline=expired())
        with pytest.raises(DeadlineExceeded):
            engine.match("a{1,}", deadline=expired())
        with pytest.raises(DeadlineExceeded):
            engine.drift(deadline=expired())

    def test_knn_refine_loop_checks_mid_item(self, store, fleet_values):
        """The refine loop must notice expiry even inside one query block."""
        engine = QueryEngine(store)
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)

        real_matrix = type(engine.source).matrix

        def slow_matrix(self, *args, **kwargs):
            clock.now += 2.0           # every decode burns the whole budget
            return real_matrix(self, *args, **kwargs)

        source_cls = type(engine.source)
        original = source_cls.matrix
        source_cls.matrix = slow_matrix
        try:
            with pytest.raises(DeadlineExceeded):
                engine.knn(fleet_values[:8], QueryConfig(k=3),
                           deadline=deadline)
        finally:
            source_cls.matrix = original


def _stats_bytes(source) -> bytes:
    return b"".join(stat.tobytes() for stat in source.column_stats())


class TestThreadSafety:
    def test_hammer_engine_from_many_threads(self, store, fleet_values):
        """Satellite stress test: shared engine, 8 threads, zero divergence."""
        engine = QueryEngine(store)
        reference = {
            "knn": engine.knn(fleet_values[:2], QueryConfig(k=4)),
            "agg": engine.aggregate(),
            "anomaly": engine.anomaly(),
            "stats": _stats_bytes(engine.source),
        }
        failures: list = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for _ in range(10):
                    knn = engine.knn(fleet_values[:2], QueryConfig(k=4))
                    assert knn.ids == reference["knn"].ids
                    assert (
                        knn.distances.tobytes()
                        == reference["knn"].distances.tobytes()
                    )
                    agg = engine.aggregate()
                    assert (
                        agg.symbol_counts.tobytes()
                        == reference["agg"].symbol_counts.tobytes()
                    )
                    assert (
                        agg.run_count.tobytes()
                        == reference["agg"].run_count.tobytes()
                    )
                    scores = engine.anomaly().scores
                    assert (
                        scores.tobytes()
                        == reference["anomaly"].scores.tobytes()
                    )
                    assert _stats_bytes(engine.source) == reference["stats"]
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads), "hung worker"
        assert not failures, f"thread-safety violation: {failures[:1]}"

    def test_cold_source_raced_by_threads(self, store, fleet_values):
        """The first index build raced by 8 threads at once: one build,
        and every thread sees its one index."""
        engine = QueryEngine(store)   # no index held yet
        expected = _stats_bytes(
            QueryEngine(store, index=build_query_index(store)).source
        )
        results: list = []
        failures: list = []
        barrier = threading.Barrier(8)

        def worker() -> None:
            try:
                barrier.wait(timeout=10.0)
                index = engine.index()
                results.append((index, _stats_bytes(engine.source)))
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not failures, f"cold-cache race: {failures[:1]}"
        assert len(results) == 8
        assert all(index is results[0][0] for index, _ in results)
        assert all(stats == expected for _, stats in results)
        assert engine.source.stats.columns_decoded == store.n_meters  # once

    def test_shard_threads_lose_no_counts(self, store):
        """More shard threads than cores, switching often: the answer is
        the serial one and the shared registry loses no increment."""
        engine = QueryEngine(store)
        serial = engine.anomaly()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                before = registry().counter_value("store.columns_decoded_total")
                sharded = engine.anomaly(workers=8)
                read = registry().counter_value("store.columns_decoded_total") - before
                assert read == store.n_meters
                assert sharded.scores.tobytes() == serial.scores.tobytes()
        finally:
            sys.setswitchinterval(interval)
