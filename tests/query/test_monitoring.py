"""Fleet monitoring operators: anomaly, drift, private aggregates.

Correctness is pinned against decoded-matrix references; the determinism
contract (bit-identical for every worker count) and the drift operator's
"zero columns decoded" guarantee are asserted explicitly.  A property test
pins anomaly's transition counts on both layouts (dense stores count
adjacent symbol pairs, RLE stores read their runs) against the written
symbols, for bare files (ragged ones included), one segment and many.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lookup import LookupTable
from repro.errors import QueryError
from repro.query import ColumnSource, QueryEngine, write_query_index
from repro.query.ops import AnomalyOperator
from repro.store import (
    DENSE,
    RLE,
    append_segment,
    create_segmented_store,
    open_store,
    write_segmented_fleet,
)

from ..store.test_runs_block import _write


@pytest.fixture(scope="module")
def fleet_values():
    rng = np.random.default_rng(41)
    values = np.abs(rng.normal(2.0, 0.6, size=(12, 192)))
    values[:, 30:70] = 0.5            # shared standby plateau
    values[11, 96:] = 8.0             # meter 11 drifts high in the second half
    return values


@pytest.fixture(scope="module")
def seg_dir(tmp_path_factory, fleet_values):
    directory = tmp_path_factory.mktemp("monitoring") / "fleet.rsyms"
    store = write_segmented_fleet(
        directory, fleet_values, alphabet_size=8, window=2,
        sampling_interval=900.0, segment_windows=24,
    )
    write_query_index(store)
    store.close()
    return directory


def _reference_transition_counts(matrix: np.ndarray, k: int) -> np.ndarray:
    """(N, k*k) transition counts of the expanded symbol rows."""
    counts = np.zeros((matrix.shape[0], k * k), dtype=np.int64)
    for row in range(matrix.shape[0]):
        pairs = matrix[row, :-1] * k + matrix[row, 1:]
        counts[row] = np.bincount(pairs, minlength=k * k)
    return counts


def _column_counts(rows, columns, k: int) -> np.ndarray:
    """Reference counts of ``rows[c]`` for each ``c`` in ``columns``; rows
    may differ in length."""
    counts = [
        _reference_transition_counts(np.asarray(rows[c], dtype=np.int64)[None, :], k)
        for c in columns
    ]
    return np.vstack(counts) if counts else np.zeros((0, k * k), dtype=np.int64)


@st.composite
def symbol_fleets(draw):
    """Symbols with plateaus (runs cross the cuts), the cuts of a
    many-segment store, and a ragged copy for a bare file."""
    alphabet = draw(st.sampled_from([2, 16, 17, 512]))
    n = draw(st.integers(1, 6))
    width = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, alphabet, size=(n, width))
    keep = rng.random((n, width)) < draw(st.sampled_from([0.0, 0.6, 0.9]))
    for t in range(1, width):                     # repeat the previous symbol
        rows[:, t] = np.where(keep[:, t], rows[:, t - 1], rows[:, t])
    cuts = sorted(draw(st.lists(st.integers(0, width), max_size=4)))
    ragged = [row[: int(cut)] for row, cut in
              zip(rows, rng.integers(0, width + 1, size=n))]
    return alphabet, rows, cuts, ragged


@given(fleet=symbol_fleets(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_anomaly_counts_match_reference_on_every_layout(fleet, data):
    alphabet, rows, cuts, ragged = fleet
    n = rows.shape[0]
    scattered = sorted(data.draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n)
    ))
    drawn = data.draw(st.lists(st.integers(0, n - 1), max_size=9))
    lists = [
        list(range(n)), scattered, list(range(n))[::-1], [n - 1, 0, n - 1],
        [], drawn,
    ]
    stores = (
        ("bare", list(rows), []), ("one", list(rows), []),
        ("many", list(rows), cuts), ("bare", ragged, []),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for layout in (DENSE, RLE):
            for at, (kind, symbols, kind_cuts) in enumerate(stores):
                base = Path(tmp) / f"{layout}-{at}"
                base.mkdir()
                path = _write(base, kind, layout, alphabet, symbols, kind_cuts)
                with QueryEngine.open(path) as engine:
                    for columns in lists:
                        counts = AnomalyOperator().run_shard(
                            ColumnSource(engine.store), columns
                        )
                        np.testing.assert_array_equal(
                            counts, _column_counts(symbols, columns, alphabet)
                        )
                    meters = [f"m{c}" for c in drawn]
                    serial = engine.anomaly(meters=meters)
                    for workers in (2, 4):
                        sharded = engine.anomaly(meters=meters, workers=workers)
                        assert sharded.scores.tobytes() == serial.scores.tobytes()
                        assert (sharded.transitions.tobytes()
                                == serial.transitions.tobytes())


@pytest.mark.parametrize("layout", [DENSE, RLE])
def test_ragged_bare_file_counts_each_column_at_its_length(tmp_path, layout):
    rng = np.random.default_rng(8)
    rows = [rng.integers(0, 16, size=width) for width in (50, 70, 1, 0, 90)]
    path = _write(tmp_path, "bare", layout, 16, rows, [])
    with QueryEngine.open(path) as engine:
        report = engine.anomaly()
        sharded = [engine.anomaly(workers=workers) for workers in (2, 4)]
    assert report.transitions.tolist() == [49, 69, 0, 0, 89]
    for other in sharded:
        assert other.scores.tobytes() == report.scores.tobytes()


class TestAnomaly:
    def test_scores_match_expanded_reference(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            report = engine.anomaly()
            matrix = engine.store.matrix()
            k = engine.store.alphabet_size
        counts = _reference_transition_counts(matrix, k)
        pooled = counts.sum(axis=0).reshape(k, k).astype(np.float64) + 1.0
        model = pooled / pooled.sum(axis=1, keepdims=True)
        log_model = np.log(model).reshape(k * k)
        transitions = counts.sum(axis=1)
        expected = -(counts @ log_model) / np.maximum(transitions, 1)
        np.testing.assert_array_equal(report.transitions, transitions)
        np.testing.assert_allclose(report.scores, expected)
        assert report.model.shape == (k, k)
        np.testing.assert_allclose(report.model.sum(axis=1), 1.0)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_for_every_worker_count(self, seg_dir, workers):
        with QueryEngine.open(seg_dir) as engine:
            serial = engine.anomaly(workers=1)
            sharded = engine.anomaly(workers=workers)
        assert serial.ids == sharded.ids
        np.testing.assert_array_equal(serial.scores, sharded.scores)
        np.testing.assert_array_equal(serial.transitions, sharded.transitions)

    def test_top_orders_by_score(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            report = engine.anomaly()
        top = report.top(3)
        assert len(top) == 3
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)
        assert {"meter", "score", "transitions"} <= set(report.rows()[0])

    def test_meter_subset(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            sub = engine.anomaly(meters=[1, 4, 7])
        assert sub.ids == [1, 4, 7]
        # Subset scores use the subset's pooled model, not the fleet's.
        np.testing.assert_array_equal(
            sub.transitions,
            np.array([int(t) for t in sub.transitions]),
        )


class TestDrift:
    def test_reads_zero_columns_with_sidecar(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            assert engine._index is not None
            report = engine.drift()
            assert engine.source.stats.columns_decoded == 0
        assert report.columns_decoded == 0
        assert report.reference == "fleet-mean"
        assert np.all(report.distances >= 0.0)
        assert np.all(report.distances <= 1.0)

    def test_drifted_meter_tops_the_fleet_mean_report(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            report = engine.drift()
        assert report.top(1)[0][0] == 11
        assert 11 in report.shifted(0.1)

    def test_self_baseline_is_zero(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            report = engine.drift(baseline=seg_dir)
        assert report.reference == "baseline"
        np.testing.assert_allclose(report.distances, 0.0)

    def test_snapshot_baseline_sees_appended_drift(
        self, tmp_path, fleet_values
    ):
        directory = tmp_path / "drifting.rsyms"
        store = write_segmented_fleet(
            directory, fleet_values, alphabet_size=8, window=2,
            sampling_interval=900.0, segment_windows=48,
        )
        snapshot = tmp_path / "baseline.rsymx"
        write_query_index(store, path=snapshot)
        # Meter 0 pins to its top symbol for a whole appended span.
        span = store.matrix(window_range=(0, 48))
        span[0, :] = store.alphabet_size - 1
        append_segment(directory, span, tables=store.shared_table)
        store.close()
        with QueryEngine.open(directory) as engine:
            report = engine.drift(baseline=snapshot)
        assert report.reference == "baseline"
        assert report.top(1)[0][0] == 0
        assert report.distances[0] > 0.2

    def test_tv_distance_matches_histogram_reference(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            report = engine.drift()
            matrix = engine.store.matrix()
            k = engine.store.alphabet_size
        hist = np.stack(
            [np.bincount(matrix[r], minlength=k) for r in range(matrix.shape[0])]
        ).astype(np.float64)
        current = hist / hist.sum(axis=1, keepdims=True)
        fleet = hist.sum(axis=0) / hist.sum()
        expected = 0.5 * np.abs(current - fleet[None, :]).sum(axis=1)
        np.testing.assert_allclose(report.distances, expected)


class TestPrivateAggregate:
    @pytest.fixture(scope="class")
    def rare_symbol_dir(self, tmp_path_factory):
        """12 meters whose pooled counts leave symbol 7 below any sane k."""
        directory = tmp_path_factory.mktemp("private") / "rare.rsyms"
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 4, size=(12, 96))
        indices[0, :3] = 7  # exactly three windows at the top symbol
        table = LookupTable.fit(
            np.linspace(0.5, 8.0, 64), 8, method="median"
        )
        create_segmented_store(directory, alphabet_size=8,
                               ids=list(range(12))).close()
        append_segment(directory, indices, tables=table)
        return directory

    def test_suppression_zeroes_rare_cells(self, rare_symbol_dir):
        with QueryEngine.open(rare_symbol_dir) as engine:
            report = engine.private_aggregate(k_anon=6)
        assert bool(report.suppressed[7])
        assert report.symbol_counts[7] == 0.0
        assert not report.suppressed[0]
        assert report.n_meters == 12

    def test_released_counts_match_pooled_reference(self, rare_symbol_dir):
        with QueryEngine.open(rare_symbol_dir) as engine:
            report = engine.private_aggregate(k_anon=6)
            pooled = np.bincount(
                engine.store.matrix().ravel(),
                minlength=engine.store.alphabet_size,
            )
        expected = pooled.astype(np.float64)
        expected[(pooled > 0) & (pooled < 6)] = 0.0
        np.testing.assert_array_equal(report.symbol_counts, expected)

    def test_noise_is_deterministic_per_seed(self, rare_symbol_dir):
        with QueryEngine.open(rare_symbol_dir) as engine:
            first = engine.private_aggregate(k_anon=5, epsilon=1.0, seed=9)
            again = engine.private_aggregate(k_anon=5, epsilon=1.0, seed=9)
            other = engine.private_aggregate(k_anon=5, epsilon=1.0, seed=10)
            clean = engine.private_aggregate(k_anon=5)
        np.testing.assert_array_equal(first.symbol_counts, again.symbol_counts)
        np.testing.assert_array_equal(first.band_profile, again.band_profile)
        assert not np.array_equal(first.symbol_counts, other.symbol_counts)
        assert not np.array_equal(first.symbol_counts, clean.symbol_counts)
        assert np.all(first.symbol_counts >= 0.0)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_for_every_worker_count(self, seg_dir, workers):
        with QueryEngine.open(seg_dir) as engine:
            serial = engine.private_aggregate(k_anon=5, epsilon=2.0, seed=3)
            sharded = engine.private_aggregate(
                k_anon=5, epsilon=2.0, seed=3, workers=workers
            )
        np.testing.assert_array_equal(
            serial.symbol_counts, sharded.symbol_counts
        )
        np.testing.assert_array_equal(
            serial.band_profile, sharded.band_profile
        )
        assert serial.duty_cycle == sharded.duty_cycle

    def test_small_group_refused(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            with pytest.raises(QueryError, match="smaller than k_anon"):
                engine.private_aggregate(meters=[0, 1, 2], k_anon=5)
            with pytest.raises(QueryError, match="k_anon"):
                engine.private_aggregate(k_anon=0)
            with pytest.raises(QueryError, match="level"):
                engine.private_aggregate(level=99)

    def test_band_profile_within_reconstruction_range(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            report = engine.private_aggregate(k_anon=5)
            recon = engine.table.reconstruction_array
        assert report.band_profile.shape[0] >= 1
        assert np.all(report.band_profile >= 0.0)
        assert np.all(report.band_profile <= recon.max() + 1e-9)
        rows = report.rows()
        assert {"symbol", "count", "suppressed"} <= set(rows[0])

    def test_index_backed_group_aggregate_reads_nothing(self, seg_dir):
        with QueryEngine.open(seg_dir) as engine:
            assert engine._index is not None
            report = engine.private_aggregate(k_anon=5)
            assert engine.source.stats.columns_decoded == 0
        assert report.symbol_counts.sum() > 0


class TestSegmentedVsFileParity:
    def test_monitoring_matches_single_file(
        self, tmp_path, seg_dir, fleet_values
    ):
        from repro.store import write_fleet_store

        path = tmp_path / "flat.rsym"
        write_fleet_store(
            path, fleet_values, alphabet_size=8, window=2,
            sampling_interval=900.0,
        ).close()
        with QueryEngine.open(seg_dir) as seg, QueryEngine.open(path) as ref:
            seg_anom, ref_anom = seg.anomaly(), ref.anomaly()
            np.testing.assert_array_equal(seg_anom.scores, ref_anom.scores)
            seg_drift, ref_drift = seg.drift(), ref.drift()
            np.testing.assert_allclose(
                seg_drift.distances, ref_drift.distances
            )
            seg_priv = seg.private_aggregate(k_anon=5, epsilon=1.0, seed=2)
            ref_priv = ref.private_aggregate(k_anon=5, epsilon=1.0, seed=2)
            np.testing.assert_array_equal(
                seg_priv.symbol_counts, ref_priv.symbol_counts
            )
