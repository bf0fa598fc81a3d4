"""Unit tests for the fleet-scale encoder (global vs per-meter tables)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LookupTable, SymbolicEncoder, TimeSeries
from repro.errors import LookupTableError, SegmentationError
from repro.pipeline import FleetEncoder


@pytest.fixture(scope="module")
def fleet_values():
    """20 meters x 960 samples with per-meter consumption levels."""
    rng = np.random.default_rng(21)
    levels = rng.uniform(50.0, 800.0, size=20)
    return rng.lognormal(np.log(levels)[:, None], 0.6, size=(20, 960))


class TestFleetEncoding:
    def test_shared_table_shape_and_range(self, fleet_values):
        fleet = FleetEncoder(alphabet_size=8, window=4, shared_table=True)
        indices = fleet.fit_encode(fleet_values)
        assert indices.shape == (20, 240)
        assert indices.dtype == np.int64
        assert indices.min() >= 0 and indices.max() < 8
        assert fleet.shared is not None

    def test_per_meter_matches_per_series_encoder(self, fleet_values):
        """Fleet encoding row-by-row equals SymbolicEncoder on each meter."""
        fleet = FleetEncoder(
            alphabet_size=8, method="median", window=4, shared_table=False,
        )
        indices = fleet.fit_encode(fleet_values)
        for row, meter_values in zip(indices, fleet_values):
            encoder = SymbolicEncoder(
                alphabet_size=8, method="median", aggregation_count=4,
            )
            series = TimeSeries.regular(meter_values)
            encoded = encoder.fit(series).encode(series)
            np.testing.assert_array_equal(row, encoded.indices)

    def test_per_meter_matches_single_meter_pipeline(self, fleet_values):
        fleet = FleetEncoder(alphabet_size=16, window=6, shared_table=False)
        indices = fleet.fit_encode(fleet_values)
        for meter in (0, 7, 19):
            piped = fleet.pipeline_for(meter).run_batch(fleet_values[meter])
            np.testing.assert_array_equal(indices[meter], piped)

    def test_shared_table_pools_all_meters(self, fleet_values):
        fleet = FleetEncoder(alphabet_size=4, window=4, shared_table=True)
        fleet.fit(fleet_values)
        pooled = fleet.aggregate(fleet_values).ravel()
        expected = LookupTable.fit(pooled, 4, method="median")
        assert fleet.shared == expected

    def test_decode_roundtrip_shared_and_per_meter(self, fleet_values):
        for shared in (True, False):
            fleet = FleetEncoder(alphabet_size=8, window=4, shared_table=shared)
            indices = fleet.fit_encode(fleet_values)
            decoded = fleet.decode(indices)
            assert decoded.shape == indices.shape
            # Decoded values re-encode to the same symbols (idempotence).
            fleet2 = FleetEncoder.from_tables(
                fleet.shared if shared else fleet.tables, window=1,
            )
            np.testing.assert_array_equal(fleet2.encode(decoded), indices)

    def test_rle_runs_with_empty_rows(self):
        # Regression: rows with zero runs (legal via from_parts) used to
        # break row_lengths()/expand() through np.add.reduceat edge cases.
        from repro.pipeline import RLERuns

        runs = RLERuns.from_parts(
            values=np.array([5, 2]), run_lengths=np.array([3, 1]),
            offsets=np.array([0, 0, 2, 2]),
        )
        np.testing.assert_array_equal(runs.row_lengths(), [0, 4, 0])
        np.testing.assert_array_equal(runs.expand_row(0), [])
        np.testing.assert_array_equal(runs.expand_row(1), [5, 5, 5, 2])
        with pytest.raises(SegmentationError):
            runs.expand()  # ragged widths must fail loudly, not reshape-crash

    def test_rle_roundtrip(self, fleet_values):
        fleet = FleetEncoder(alphabet_size=4, window=8, shared_table=True)
        fleet.fit(fleet_values)
        indices = fleet.encode(fleet_values)
        runs = fleet.encode_rle(fleet_values)
        # The flat container expands back to the whole index matrix.
        np.testing.assert_array_equal(runs.expand(), indices)

    def test_rle_from_matrix_keeps_integer_dtype(self):
        # A narrow decoded block run-length encodes in its own dtype, with
        # the same three int64 arrays as its int64 copy.
        from repro.pipeline import RLERuns

        rng = np.random.default_rng(3)
        narrow = rng.integers(0, 3, size=(5, 40)).astype(np.uint8)
        narrow[1] = 2
        wide = RLERuns.from_matrix(narrow.astype(np.int64))
        runs = RLERuns.from_matrix(narrow)
        for got, want in zip(runs, wide):
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        floats = RLERuns.from_matrix(narrow.astype(np.float64))
        for got, want in zip(floats, wide):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_window_one_is_identity_aggregation(self, fleet_values):
        fleet = FleetEncoder(alphabet_size=4, window=1, shared_table=True)
        np.testing.assert_array_equal(fleet.aggregate(fleet_values), fleet_values)


class TestFleetValidation:
    def test_requires_2d(self):
        fleet = FleetEncoder()
        with pytest.raises(SegmentationError):
            fleet.fit(np.zeros(10))

    def test_unfitted_encode_raises(self, fleet_values):
        with pytest.raises(LookupTableError):
            FleetEncoder(shared_table=False).encode(fleet_values)
        with pytest.raises(LookupTableError):
            FleetEncoder().tables

    def test_nan_rejected(self):
        fleet = FleetEncoder(alphabet_size=4, window=1)
        values = np.full((2, 8), 100.0)
        fleet.fit(values)
        values[1, 3] = np.nan
        with pytest.raises(LookupTableError):
            fleet.encode(values)

    def test_from_tables_validates(self):
        table4 = LookupTable.fit(np.arange(100.0), 4)
        table8 = LookupTable.fit(np.arange(100.0), 8)
        with pytest.raises(LookupTableError):
            FleetEncoder.from_tables([])
        with pytest.raises(LookupTableError):
            FleetEncoder.from_tables([table4, table8])
        fleet = FleetEncoder.from_tables([table4, table4])
        with pytest.raises(LookupTableError):
            fleet.encode(np.zeros((3, 4)))  # 2 tables, 3 meters

    def test_invalid_window(self):
        with pytest.raises(SegmentationError):
            FleetEncoder(window=0)

    def test_decode_requires_2d(self, fleet_values):
        fleet = FleetEncoder(alphabet_size=4, window=4).fit(fleet_values)
        with pytest.raises(SegmentationError):
            fleet.decode(np.zeros(5, dtype=np.int64))

    def test_decode_rejects_out_of_range_indices(self, fleet_values):
        # Negative indices must not silently wrap to the highest symbol.
        for shared in (True, False):
            fleet = FleetEncoder(alphabet_size=4, window=4,
                                 shared_table=shared).fit(fleet_values)
            with pytest.raises(LookupTableError):
                fleet.decode(np.asarray([[-1, 0]] * 20, dtype=np.int64))
            with pytest.raises(LookupTableError):
                fleet.decode(np.asarray([[4, 0]] * 20, dtype=np.int64))


class TestBlockedLookup:
    def test_blocked_broadcast_equals_searchsorted(self):
        """The per-meter broadcast kernel == np.searchsorted row by row."""
        rng = np.random.default_rng(8)
        values = rng.uniform(0.0, 1000.0, size=(50, 40))
        separators = np.sort(rng.uniform(0.0, 1000.0, size=(50, 7)), axis=1)
        # Inject exact ties to pin down the side="left" convention.
        values[:, 0] = separators[:, 3]
        out = FleetEncoder._blocked_lookup(values, separators)
        for i in range(values.shape[0]):
            np.testing.assert_array_equal(
                out[i], np.searchsorted(separators[i], values[i], side="left")
            )
