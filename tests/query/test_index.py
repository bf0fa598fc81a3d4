"""``.rsymx`` sidecar tests: statistics, persistence, banding, staleness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
from repro.query import QueryIndex, build_query_index, query_index_path
from repro.query.index import band_of_windows
from repro.store import RLE, write_fleet_store


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    rng = np.random.default_rng(3)
    values = np.abs(rng.lognormal(4.0, 1.0, size=(12, 192)))
    path = tmp_path_factory.mktemp("idx") / "fleet.rsym"
    return write_fleet_store(
        path, values, alphabet_size=8, method="median", window=1,
        shared_table=True, sampling_interval=900.0,
    )


class TestStatistics:
    def test_histograms_match_bincount(self, store):
        index = build_query_index(store)
        matrix = store.matrix()
        for row in range(store.n_meters):
            expected = np.bincount(matrix[row], minlength=store.alphabet_size)
            np.testing.assert_array_equal(index.histograms[row], expected)

    def test_band_histograms_partition_the_total(self, store):
        index = build_query_index(store)
        np.testing.assert_array_equal(
            index.band_histograms.sum(axis=1), index.histograms
        )
        # Each band's counts come from that band's window positions only.
        matrix = store.matrix()
        bands = index.bands_for(matrix.shape[1])
        for band in range(index.n_bands):
            cols = matrix[:, bands == band]
            for row in range(store.n_meters):
                expected = np.bincount(cols[row], minlength=store.alphabet_size)
                np.testing.assert_array_equal(
                    index.band_histograms[row, band], expected
                )

    def test_peak_last_symbols_and_run_counts(self, store):
        index = build_query_index(store)
        matrix = store.matrix()
        np.testing.assert_array_equal(index.max_symbols, matrix.max(axis=1))
        np.testing.assert_array_equal(index.last_symbols, matrix[:, -1])
        np.testing.assert_array_equal(
            index.run_counts, 1 + np.count_nonzero(np.diff(matrix, axis=1), axis=1)
        )

    def test_rle_store_same_statistics(self, store, tmp_path):
        rng = np.random.default_rng(3)
        values = np.abs(rng.lognormal(4.0, 1.0, size=(12, 192)))
        rle = write_fleet_store(
            tmp_path / "rle.rsym", values, alphabet_size=8, method="median",
            window=1, shared_table=True, sampling_interval=900.0, layout=RLE,
        )
        dense_index = build_query_index(store)
        rle_index = build_query_index(rle)
        np.testing.assert_array_equal(
            dense_index.band_histograms, rle_index.band_histograms
        )
        # The RLE header's stored run counts are the index's run counts.
        (segment,) = rle.segments
        np.testing.assert_array_equal(rle_index.run_counts, segment.run_counts)
        np.testing.assert_array_equal(dense_index.run_counts, segment.run_counts)


class TestBanding:
    def test_folded_bands_follow_time_of_day(self):
        # 2 days of 8 windows/day folded into 4 bands: window t and t + 8
        # land in the same band.
        bands = band_of_windows(16, 4, windows_per_day=8)
        np.testing.assert_array_equal(bands[:8], bands[8:])
        np.testing.assert_array_equal(bands[:8], [0, 0, 1, 1, 2, 2, 3, 3])

    def test_contiguous_fallback(self):
        bands = band_of_windows(8, 4, windows_per_day=None)
        np.testing.assert_array_equal(bands, [0, 0, 1, 1, 2, 2, 3, 3])

    def test_index_uses_store_windows_per_day(self, store):
        index = build_query_index(store)
        assert index.windows_per_day == store.metadata["windows_per_day"]


class TestPersistence:
    def test_round_trip(self, store, tmp_path):
        index = build_query_index(store)
        path = index.write(tmp_path / "x.rsymx")
        loaded = QueryIndex.open(path)
        np.testing.assert_array_equal(loaded.band_histograms, index.band_histograms)
        np.testing.assert_array_equal(loaded.max_symbols, index.max_symbols)
        np.testing.assert_array_equal(loaded.last_symbols, index.last_symbols)
        np.testing.assert_array_equal(loaded.run_counts, index.run_counts)
        assert loaded.fingerprint == index.fingerprint
        assert loaded.windows_per_day == index.windows_per_day
        loaded.check_store(store)  # does not raise

    def test_default_sidecar_path(self):
        from pathlib import Path

        assert query_index_path("a/fleet.rsym") == Path("a/fleet.rsymx")
        assert query_index_path("noext") == Path("noext.rsymx")

    def test_truncated_file_is_refused(self, store, tmp_path):
        index = build_query_index(store)
        path = index.write(tmp_path / "x.rsymx")
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(QueryError):
            QueryIndex.open(path)

    def test_other_version_is_refused(self, store, tmp_path):
        # A version-1 sidecar (first/min/max symbols, no run counts).
        path = build_query_index(store).write(tmp_path / "x.rsymx")
        blob = path.read_bytes()
        assert blob.count(b'"version":2') == 1
        path.write_bytes(blob.replace(b'"version":2', b'"version":1'))
        with pytest.raises(QueryError, match="index version 1, expected 2"):
            QueryIndex.open(path)

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(QueryError, match="no such"):
            QueryIndex.open(tmp_path / "absent.rsymx")

    def test_stale_fingerprint_is_refused(self, store, tmp_path):
        rng = np.random.default_rng(9)
        other = write_fleet_store(
            tmp_path / "other.rsym",
            np.abs(rng.lognormal(4.0, 1.0, size=(5, 64))),
            alphabet_size=8, method="median", window=1, shared_table=True,
        )
        index = build_query_index(store)
        with pytest.raises(QueryError, match="stale"):
            index.check_store(other)
