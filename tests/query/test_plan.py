"""The scan-plan layer: ColumnSource accounting, the one shard driver, stages.

These tests pin the plan layer's contracts directly — every query kind's
parity with brute force is pinned by its own suite; here we prove the shared
machinery: counted reads, cached fleet statistics, index-backed zero-read
stats, and that ONE driver produces bit-identical merges for every worker
count even for an operator the engine has never seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import QueryError
from repro.query import (
    ColumnSource,
    QueryConfig,
    QueryEngine,
    ScanPlan,
    SymbolCountPrune,
    build_query_index,
)
from repro.obs import registry
from repro.query.ops import Operator
from repro.store import (
    RLE, append_segment, open_store, write_fleet_store, write_segmented_fleet,
)


@pytest.fixture(scope="module")
def fleet_values():
    rng = np.random.default_rng(29)
    values = np.abs(rng.lognormal(4.2, 0.9, size=(10, 192)))
    values[:, 40:80] = 12.0  # standby plateau: real runs for RLE paths
    return values


@pytest.fixture(scope="module")
def file_store(tmp_path_factory, fleet_values):
    path = tmp_path_factory.mktemp("plan-file") / "fleet.rsym"
    return write_fleet_store(
        path, fleet_values, alphabet_size=8, method="median", window=1,
        shared_table=True, sampling_interval=900.0,
    )


@pytest.fixture(scope="module")
def seg_dir(tmp_path_factory, fleet_values):
    directory = tmp_path_factory.mktemp("plan-seg") / "fleet.rsyms"
    write_segmented_fleet(
        directory, fleet_values, alphabet_size=8, window=1,
        sampling_interval=900.0, segment_windows=48,
    ).close()
    return directory


@dataclass(frozen=True)
class SymbolSumOperator(Operator):
    """Toy third-party operator: per-column symbol sums, merged in task order."""

    def run_shard(self, source, items):
        cols = [int(c) for c in items]
        if not cols:
            return np.zeros(0, dtype=np.int64)
        matrix = source.matrix(meters=[source.ids[c] for c in cols])
        return matrix.sum(axis=1)

    def merge(self, parts, source, items, kept):
        return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])


class TestColumnSource:
    def test_counted_matrix_and_run_reads(self, file_store):
        source = ColumnSource(file_store)
        assert source.stats.columns_decoded == 0
        source.matrix(meters=[file_store.ids[0], file_store.ids[3]])
        assert source.stats.columns_decoded == 2
        source.matrix_block(1, 4)
        assert source.stats.columns_decoded == 5
        source.runs(file_store.ids[0])
        assert source.stats.runs_read == 1

    def test_fleet_column_stats_computed_once(self, file_store):
        engine = QueryEngine(file_store)
        source = engine.source
        with pytest.raises(QueryError, match="index"):
            source.column_stats()  # nothing scans behind the index's back
        index = engine.index()
        decoded = source.stats.columns_decoded
        assert decoded == file_store.n_meters  # the build's one scan
        hist, peaks, _ = source.column_stats()
        sub_h, sub_p, _ = source.column_stats([1, 4])
        assert source.stats.columns_decoded == decoded  # off the index
        matrix = file_store.matrix()
        k = file_store.alphabet_size
        np.testing.assert_array_equal(
            hist, [np.bincount(row, minlength=k) for row in matrix]
        )
        np.testing.assert_array_equal(peaks, matrix.max(axis=1))
        np.testing.assert_array_equal(sub_h, hist[[1, 4]])
        np.testing.assert_array_equal(sub_p, peaks[[1, 4]])
        assert index is engine.index()

    def test_index_backed_stats_read_nothing(self, file_store):
        index = build_query_index(file_store)
        source = ColumnSource(file_store, index=index)
        hist, peaks, runs = source.column_stats()
        sub_h, _, _ = source.column_stats([2, 7])
        assert source.stats.columns_decoded == 0
        np.testing.assert_array_equal(hist, index.histograms)
        np.testing.assert_array_equal(sub_h, index.histograms[[2, 7]])
        np.testing.assert_array_equal(peaks, index.max_symbols)
        np.testing.assert_array_equal(runs, index.run_counts)

    def test_run_counts_cached_and_sliced(self, file_store):
        """Run counts are column statistics: the index build counts them
        once, and the fleet and any subset read them with no decode."""
        engine = QueryEngine(file_store)
        source = engine.source
        engine.index()
        decoded = source.stats.columns_decoded
        full = source.column_stats()[2]
        sub = source.column_stats([0, 5])[2]
        assert source.stats.columns_decoded == decoded
        np.testing.assert_array_equal(sub, full[[0, 5]])
        matrix = file_store.matrix()
        np.testing.assert_array_equal(
            full, 1 + np.count_nonzero(np.diff(matrix, axis=1), axis=1)
        )

    def test_matrix_block_matches_meter_list(self, file_store, seg_dir):
        with open_store(seg_dir) as seg:
            for store in (file_store, seg):
                block = store.matrix_block(2, 6)
                listed = store.matrix(
                    meters=[store.ids[c] for c in range(2, 6)]
                )
                np.testing.assert_array_equal(block, listed)
                assert store.matrix_block(4, 4).shape[0] == 0
                np.testing.assert_array_equal(
                    store.matrix_block(0, store.n_meters), store.matrix()
                )


class TestScanPlanDriver:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_custom_operator_identical_for_every_worker_count(
        self, file_store, seg_dir, workers
    ):
        serial = ScanPlan(
            ColumnSource(file_store), SymbolSumOperator()
        ).run(workers=1)
        sharded = ScanPlan(
            ColumnSource(file_store), SymbolSumOperator()
        ).run(workers=workers)
        np.testing.assert_array_equal(serial, sharded)
        with open_store(seg_dir) as seg:
            seg_result = ScanPlan(
                ColumnSource(seg), SymbolSumOperator()
            ).run(workers=workers)
        np.testing.assert_array_equal(serial, seg_result)

    def test_shards_read_the_engines_snapshot_after_an_append(self, tmp_path):
        """An append between open and query changes no answer at any
        worker count: every shard reads the generation the engine holds."""
        rng = np.random.default_rng(3)
        path = tmp_path / "fleet.rsyms"
        write_segmented_fleet(
            path, np.abs(rng.normal(size=(64, 96 * 5)).cumsum(axis=1)),
            alphabet_size=16, segment_windows=96,
        ).close()
        with QueryEngine.open(path) as engine:
            queries = engine.store.decode(meters=list(range(8)))
            append_segment(
                path, rng.integers(0, 16, size=(64, 96)),
                tables=engine.store.shared_table,
            )

            def answers(workers):
                anomaly = engine.anomaly(workers=workers)
                agg = engine.aggregate(workers=workers)
                match = engine.match("a{2,}", workers=workers)
                knn = engine.knn(queries, QueryConfig(k=5, workers=workers))
                return (
                    anomaly.transitions.tobytes(), anomaly.scores.tobytes(),
                    agg.symbol_counts.tobytes(), agg.run_count.tobytes(),
                    sorted(match.spans.items()),
                    knn.positions.tobytes(), knn.distances.tobytes(),
                )

            serial = answers(1)
            assert answers(2) == serial
            assert answers(4) == serial

    def test_items_subset_and_stage_pruning(self, file_store):
        index = build_query_index(file_store)
        source = ColumnSource(file_store, index=index)
        # A needed-count above every histogram cell prunes every column.
        needed = np.full(file_store.alphabet_size, 10**9, dtype=np.int64)
        plan = ScanPlan(
            source, SymbolSumOperator(), items=[0, 3, 5],
            stages=[SymbolCountPrune(needed=needed, index=index)],
        )
        assert plan.run(workers=2).size == 0
        assert source.stats.columns_decoded == 0  # pruned before any read
        none_needed = np.zeros(file_store.alphabet_size, dtype=np.int64)
        kept = ScanPlan(
            source, SymbolSumOperator(), items=[0, 3, 5],
            stages=[SymbolCountPrune(needed=none_needed, index=index)],
        ).run(workers=1)
        np.testing.assert_array_equal(
            kept,
            ScanPlan(source, SymbolSumOperator(), items=[0, 3, 5]).run(),
        )

    def test_explain_names_the_pipeline(self, file_store):
        index = build_query_index(file_store)
        source = ColumnSource(file_store, index=index)
        needed = np.zeros(file_store.alphabet_size, dtype=np.int64)
        plan = ScanPlan(
            source, SymbolSumOperator(),
            stages=[SymbolCountPrune(needed=needed, index=index)],
        )
        text = plan.explain()
        assert "SymbolSumOperator" in text
        assert "SymbolCountPrune" in text
        assert "ColumnSource" in text


class TestEngineSourceCache:
    def test_engine_keeps_one_source_per_store(self, file_store):
        engine = QueryEngine(file_store)
        assert engine.source is engine.source

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_aggregate_reuses_the_engines_cached_stats(
        self, seg_dir, workers
    ):
        """After one serial aggregate, shard threads start from the engine
        source's cached histograms, peaks and run counts: no payload read."""
        reg = registry()
        with QueryEngine.open(seg_dir) as engine:
            serial = engine.aggregate()
            runs = reg.counter_value("store.runs_read_total")
            columns = reg.counter_value("store.columns_decoded_total")
            sharded = engine.aggregate(workers=workers)
            assert reg.counter_value("store.runs_read_total") == runs
            assert reg.counter_value("store.columns_decoded_total") == columns
        assert sharded.ids == serial.ids
        for field in ("symbol_counts", "peak_level", "duty_cycle",
                      "run_count", "mean_run_length"):
            assert (getattr(sharded, field).tobytes()
                    == getattr(serial, field).tobytes())

    def test_rle_store_round_trips_through_plan(self, tmp_path, fleet_values):
        rle = write_fleet_store(
            tmp_path / "rle.rsym", fleet_values, alphabet_size=8,
            method="median", window=1, shared_table=True,
            sampling_interval=900.0, layout=RLE,
        )
        dense_sums = None
        for workers in (1, 3):
            sums = ScanPlan(
                ColumnSource(rle), SymbolSumOperator()
            ).run(workers=workers)
            if dense_sums is None:
                dense_sums = sums
            np.testing.assert_array_equal(sums, dense_sums)
