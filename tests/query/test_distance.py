"""MINDIST kernel tests: the lower-bound property and SAX parity.

The satellite acceptance: ``MINDIST(a, b) <= exact_distance(a, b)``
property-tested across alphabet sizes {2, 4, 8, 16, 27, 32} — powers of two
through fitted :class:`LookupTable` separators (the paper's encoder),
non-powers through raw Gaussian breakpoints (the SAX baseline), both via
the same kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sax import SAXWord, gaussian_breakpoints
from repro.baselines.sax import mindist as sax_mindist
from repro.core import LookupTable
from repro.errors import QueryError
from repro.query import (
    banded_min_cells,
    cell_bounds,
    histogram_bound,
    mindist,
    transport_bound,
    value_cell_bounds,
)
from repro.query.index import band_of_windows
from repro.query.ops import _PRUNE_SLACK

ALPHABETS = [2, 4, 8, 16, 27, 32]
POWER_ALPHABETS = [2, 4, 8, 16, 32]


def _reconstruction_for(alphabet_size: int, rng: np.random.Generator):
    """(breakpoints, reconstruction values) for any alphabet size.

    Powers of two fit a real :class:`LookupTable` on non-negative power
    data; other sizes use Gaussian breakpoints with true interval centres
    (mirrored outer widths) — both constructions keep every reconstruction
    value inside its symbol's range, the premise of the lower bound.
    """
    if alphabet_size in POWER_ALPHABETS:
        data = rng.lognormal(mean=5.0, sigma=1.0, size=512)
        table = LookupTable.fit(data, alphabet_size, method="median")
        return table.breakpoints(), table.reconstruction_array
    beta = np.asarray(gaussian_breakpoints(alphabet_size))
    lows = np.concatenate([[beta[0] - 1.0], beta])
    highs = np.concatenate([beta, [beta[-1] + 1.0]])
    return beta, (lows + highs) / 2.0


class TestCellBounds:
    def test_shape_symmetry_and_zero_band(self):
        beta = gaussian_breakpoints(8)
        cells = cell_bounds(beta)
        assert cells.shape == (8, 8)
        np.testing.assert_array_equal(cells, cells.T)
        # Equal and adjacent symbols have touching ranges: bound is zero.
        for i in range(8):
            assert cells[i, i] == 0.0
            if i + 1 < 8:
                assert cells[i, i + 1] == 0.0

    def test_matches_sax_cell_formula(self):
        beta = gaussian_breakpoints(16)
        cells = cell_bounds(beta)
        for i in range(16):
            for j in range(16):
                expected = 0.0 if abs(i - j) <= 1 else beta[max(i, j) - 1] - beta[min(i, j)]
                assert cells[i, j] == pytest.approx(expected)

    def test_accepts_lookup_table(self, rng):
        table = LookupTable.fit(rng.uniform(0, 100, 256), 8, method="uniform")
        np.testing.assert_array_equal(
            cell_bounds(table), cell_bounds(table.breakpoints())
        )

    def test_rejects_decreasing_breakpoints(self):
        with pytest.raises(QueryError):
            cell_bounds([2.0, 1.0])


class TestMindistSAXParity:
    @pytest.mark.parametrize("alphabet_size", [3, 4, 8, 27])
    def test_equals_sax_mindist(self, alphabet_size, rng):
        """The vectorized kernel reproduces the baseline's scalar formula."""
        length, original = 16, 96
        a = rng.integers(0, alphabet_size, size=length)
        b = rng.integers(0, alphabet_size, size=length)
        ours = mindist(a, b, gaussian_breakpoints(alphabet_size),
                       original_length=original)
        reference = sax_mindist(
            SAXWord(tuple(a.tolist()), alphabet_size),
            SAXWord(tuple(b.tolist()), alphabet_size),
            original,
        )
        assert ours == pytest.approx(reference, rel=1e-12)

    def test_batched_candidates(self, rng):
        beta = gaussian_breakpoints(8)
        query = rng.integers(0, 8, size=24)
        candidates = rng.integers(0, 8, size=(10, 24))
        batch = mindist(query, candidates, beta)
        assert batch.shape == (10,)
        for row in range(10):
            assert batch[row] == pytest.approx(mindist(query, candidates[row], beta))

    def test_length_and_range_validation(self):
        beta = gaussian_breakpoints(4)
        with pytest.raises(QueryError):
            mindist([0, 1], [0, 1, 2], beta)
        with pytest.raises(QueryError):
            mindist([0, 7], [0, 1], beta)


class TestLowerBoundProperty:
    """MINDIST never exceeds the exact distance between reconstructions."""

    @pytest.mark.parametrize("alphabet_size", ALPHABETS)
    def test_seeded_sweep(self, alphabet_size, rng):
        beta, recon = _reconstruction_for(alphabet_size, rng)
        for _ in range(50):
            a = rng.integers(0, alphabet_size, size=48)
            b = rng.integers(0, alphabet_size, size=48)
            lb = mindist(a, b, beta)
            exact = float(np.sqrt(np.sum((recon[a] - recon[b]) ** 2)))
            assert lb <= exact + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        alphabet_size=st.sampled_from(ALPHABETS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        length=st.integers(min_value=1, max_value=64),
    )
    def test_property(self, alphabet_size, seed, length):
        rng = np.random.default_rng(seed)
        beta, recon = _reconstruction_for(alphabet_size, rng)
        a = rng.integers(0, alphabet_size, size=length)
        b = rng.integers(0, alphabet_size, size=length)
        lb = mindist(a, b, beta)
        exact = float(np.sqrt(np.sum((recon[a] - recon[b]) ** 2)))
        assert lb <= exact + 1e-9

    @pytest.mark.parametrize("alphabet_size", ALPHABETS)
    def test_value_bounds_property(self, alphabet_size, rng):
        """The raw-query bound never exceeds |q - reconstruction|."""
        beta, recon = _reconstruction_for(alphabet_size, rng)
        queries = rng.uniform(
            float(recon.min()) - 10.0, float(recon.max()) + 10.0, size=128
        )
        bounds = value_cell_bounds(queries, beta)
        assert bounds.shape == (128, alphabet_size)
        exact = np.abs(queries[:, None] - recon[None, :])
        assert np.all(bounds <= exact + 1e-9)

    def test_value_bounds_zero_inside_range(self):
        beta = [10.0, 20.0]
        bounds = value_cell_bounds([5.0, 15.0, 25.0], beta)
        # Each query value sits inside one symbol's range: bound is zero
        # there and positive for ranges it lies outside.
        assert bounds[0, 0] == 0.0 and bounds[1, 1] == 0.0 and bounds[2, 2] == 0.0
        assert bounds[0, 2] == pytest.approx(15.0)  # 5 is 15 below (20, inf)
        assert bounds[2, 0] == pytest.approx(15.0)  # 25 is 15 above (-inf, 10]


class TestBandedMinCells:
    """The batched per-(band, symbol) minima match the serial reduction."""

    @staticmethod
    def _serial(cells: np.ndarray, bands: np.ndarray, n_bands: int):
        band_min = np.full((n_bands, cells.shape[1]), np.inf)
        np.minimum.at(band_min, bands, cells)
        band_min[~np.isfinite(band_min)] = 0.0
        return band_min

    @pytest.mark.parametrize(
        "layout", ["folded", "contiguous", "shuffled", "one_band"]
    )
    def test_matches_serial_minimum(self, layout, rng):
        T, k, n_bands = 96, 16, 8
        t = np.arange(T)
        bands = {
            "folded": (t % 24) * n_bands // 24,       # periodic fast path
            "contiguous": t * n_bands // T,
            "shuffled": rng.permutation(t * n_bands // T),
            "one_band": np.full(T, 5),                # 7 empty bands
        }[layout]
        cells = rng.random((T, k))
        got = banded_min_cells(cells, bands, n_bands)
        np.testing.assert_array_equal(got, self._serial(cells, bands, n_bands))
        batch = rng.random((6, T, k))
        got_batch = banded_min_cells(batch, bands, n_bands)
        for q in range(6):
            np.testing.assert_array_equal(
                got_batch[q], self._serial(batch[q], bands, n_bands)
            )

    def test_trailing_empty_bands_keep_last_position(self, rng):
        # Regression: clipped reduceat boundaries once dropped the final
        # position's cells from the last *non-empty* band.
        T, k, n_bands = 50, 4, 8
        bands = np.full(T, 3)
        cells = rng.random((T, k))
        got = banded_min_cells(cells, bands, n_bands)
        np.testing.assert_array_equal(got[3], cells.min(axis=0))
        assert np.all(got[[0, 1, 2, 4, 5, 6, 7]] == 0.0)

    def test_rejects_bad_shapes_and_labels(self):
        with pytest.raises(QueryError, match="one entry per position"):
            banded_min_cells(np.zeros((4, 2)), np.zeros(3, dtype=int), 2)
        with pytest.raises(QueryError, match="out of range"):
            banded_min_cells(np.zeros((4, 2)), np.array([0, 1, 2, 5]), 3)
        with pytest.raises(QueryError, match="n_bands"):
            banded_min_cells(np.zeros((4, 2)), np.zeros(4, dtype=int), 0)


class TestHistogramBound:
    def test_batched_equals_per_query_matvec_values(self, rng):
        Q, C, B, k = 5, 17, 8, 16
        mins = rng.random((Q, B, k))
        hist = rng.integers(0, 9, size=(C, B, k))
        lb = histogram_bound(mins, hist)
        assert lb.shape == (Q, C)
        expect = np.einsum("qbk,cbk->qc", mins, hist.astype(np.float64))
        np.testing.assert_allclose(lb, expect, rtol=1e-12)
        one = histogram_bound(mins[2], hist)
        assert one.shape == (C,)
        np.testing.assert_allclose(one, expect[2], rtol=1e-12)

    def test_is_a_lower_bound_on_gathered_distance(self, rng):
        """hist @ band-min never exceeds the exact gathered distance."""
        T, k, n_bands, C = 48, 8, 6, 25
        bands = np.arange(T) * n_bands // T
        cells = rng.random((T, k))
        matrix = rng.integers(0, k, size=(C, T))
        hist = np.zeros((C, n_bands, k), dtype=np.int64)
        for c in range(C):
            np.add.at(hist[c], (bands, matrix[c]), 1)
        lb = histogram_bound(banded_min_cells(cells, bands, n_bands), hist)
        exact = cells[np.arange(T), matrix].sum(axis=1)
        assert np.all(lb <= exact + 1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(QueryError, match="disagree"):
            histogram_bound(np.zeros((2, 3, 4)), np.zeros((5, 3, 5)))


def _banded_store(rng, alphabet_size, length, n_bands, per_day, scale):
    """``(reconstruction, bands, symbols, histograms)`` of a random store.

    Reconstruction values sit at ``scale`` (with ties when the alphabet is
    large), every third column is constant, and the band histograms fold
    by ``band_of_windows`` as the index builds them.
    """
    recon = np.sort(np.round(scale * rng.lognormal(0.0, 1.0, alphabet_size), 2))
    bands = band_of_windows(length, n_bands, per_day)
    symbols = rng.integers(0, alphabet_size, size=(12, length))
    symbols[::3] = symbols[::3, :1]
    hist = np.zeros((symbols.shape[0], n_bands, alphabet_size), dtype=np.int64)
    for column, row in enumerate(symbols):
        np.add.at(hist[column], (bands, row), 1)
    return recon, bands, symbols, hist


def _sorted_blocks(query, symbols, bands, recon):
    """The band transport cost the direct way: each band's sorted query
    values handed to the column's reconstruction values in sorted blocks."""
    total = 0.0
    for band in np.unique(bands):
        at = bands == band
        total += float(((np.sort(query[at]) - np.sort(recon[symbols[at]])) ** 2).sum())
    return total


class TestTransportBound:
    """The band transport bound: below every exact distance after its
    rounding allowance, and never looser than the banded minimum."""

    @settings(max_examples=40, deadline=None)
    @given(
        alphabet_size=st.integers(min_value=2, max_value=32),
        length=st.integers(min_value=1, max_value=400),
        n_bands=st.integers(min_value=1, max_value=8),
        per_day=st.sampled_from([None, 7, 24, 96]),
        exponent=st.floats(min_value=-3.0, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property(self, alphabet_size, length, n_bands, per_day,
                      exponent, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        recon, bands, symbols, hist = _banded_store(
            rng, alphabet_size, length, n_bands, per_day, scale
        )
        queries = scale * rng.lognormal(0.0, 1.0, size=(8, length))
        queries[0] = recon[symbols[1]]        # distance 0 to column 1
        queries[1] = recon[symbols[3]]        # ... and to a constant column
        bound, allowance = transport_bound(queries, bands, n_bands, recon, hist)
        cells = (queries[:, :, None] - recon[None, None, :]) ** 2
        exact = ((queries[:, None, :] - recon[symbols][None]) ** 2).sum(axis=2)
        minimum = histogram_bound(banded_min_cells(cells, bands, n_bands), hist)
        assert np.all(bound - allowance <= exact * (1.0 + _PRUNE_SLACK))
        assert np.all(bound >= minimum - allowance)
        assert bound[0, 1] - allowance[0, 1] <= 0.0

    def test_equals_the_sorted_assignment(self, rng):
        """Unequal bands (T not a multiple of the day) and an unsorted
        reconstruction order: the kernel is the direct sorted pairing."""
        recon, bands, symbols, hist = _banded_store(rng, 16, 250, 8, 96, 300.0)
        recon = rng.permutation(recon)
        queries = 300.0 * rng.lognormal(0.0, 1.0, size=(4, 250))
        bound, allowance = transport_bound(queries, bands, 8, recon, hist)
        direct = np.array([
            [_sorted_blocks(q, row, bands, recon) for row in symbols]
            for q in queries
        ])
        assert np.all(np.abs(bound - direct) <= allowance)
        assert np.all(allowance <= 1e-9 * np.maximum(direct, 1.0))

    def test_pairs_match_the_grid(self, rng):
        recon, bands, symbols, hist = _banded_store(rng, 8, 96, 4, None, 1.0)
        queries = rng.lognormal(0.0, 1.0, size=(3, 96))
        grid, grid_allowance = transport_bound(queries, bands, 4, recon, hist)
        rows, cols = np.array([2, 0, 2, 1]), np.array([5, 5, 0, 11])
        pairs, allowance = transport_bound(
            queries, bands, 4, recon, hist, rows=rows, cols=cols
        )
        np.testing.assert_array_equal(pairs, grid[rows, cols])
        np.testing.assert_array_equal(allowance, grid_allowance[rows, cols])
        one, _ = transport_bound(queries[1], bands, 4, recon, hist)
        np.testing.assert_array_equal(one, grid[1])

    def test_histograms_must_count_every_window_once(self, rng):
        recon, bands, _, hist = _banded_store(rng, 8, 96, 4, 24, 1.0)
        hist[0, 0, 0] += 1
        with pytest.raises(QueryError, match="exactly once"):
            transport_bound(np.ones(96), bands, 4, recon, hist)
