"""Decode/distance kernel micro-benchmarks (``BENCH_kernels.json``).

The PR 6 kernel-speed pass in numbers: symbols/s per bit-width for the
pack / unpack / slice kernels (LUT + strided decode for aligned widths,
phase decode for odd ones), and the batched multi-query bound against the
per-query matvec it replaced.  Exact kNN scoring is gated end to end by
``test_knn_pruned_throughput`` and ``test_knn_brute_force_throughput`` in
``test_query_throughput.py``.  CI runs this file with
``--benchmark-json=BENCH_kernels.json`` and uploads it next to the other
artifacts; ``benchmarks/check_perf_floors.py`` then asserts every
``extra_info`` throughput stays above the generous floors checked in at
``benchmarks/perf_floors.json``, so a future PR cannot silently ship a
slow kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.distance import banded_min_cells, histogram_bound
from repro.store import pack_indices, unpack_indices, unpack_slice

from .conftest import write_result

#: Symbols per kernel call: large enough to be memory-bound (past the
#: LUT -> strided dispatch point), small enough that the tier-1 suite
#: (which collects benchmarks) stays quick.
N_SYMBOLS = 1_000_000

#: One bit-width per decode path: 1/2/4/8 hit the aligned LUT/strided
#: kernels (8 is the memcpy identity), 3 exercises the odd-width phase
#: decode.
BIT_WIDTHS = (1, 2, 3, 4, 8)

_RESULT_LINES = {}


def _record_symbols(benchmark, n_symbols: int, label: str, bits: int) -> None:
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["n_symbols"] = n_symbols
    benchmark.extra_info["symbols_per_s"] = n_symbols / mean
    benchmark.extra_info["bits"] = bits
    _RESULT_LINES[(label, bits)] = n_symbols / mean


@pytest.fixture(scope="module")
def symbol_blocks():
    rng = np.random.default_rng(42)
    return {
        bits: rng.integers(0, 1 << bits, size=N_SYMBOLS)
        for bits in BIT_WIDTHS
    }


@pytest.fixture(scope="module")
def packed_blocks(symbol_blocks):
    return {
        bits: pack_indices(block, bits)
        for bits, block in symbol_blocks.items()
    }


@pytest.mark.parametrize("bits", BIT_WIDTHS)
def test_pack_throughput_per_width(benchmark, symbol_blocks, bits):
    packed = benchmark(pack_indices, symbol_blocks[bits], bits)
    assert packed.size == -(-N_SYMBOLS * bits // 8)
    _record_symbols(benchmark, N_SYMBOLS, "pack", bits)


@pytest.mark.parametrize("bits", BIT_WIDTHS)
def test_unpack_throughput_per_width(benchmark, symbol_blocks, packed_blocks, bits):
    out = benchmark(unpack_indices, packed_blocks[bits], bits, N_SYMBOLS)
    np.testing.assert_array_equal(out[:64], symbol_blocks[bits][:64])
    _record_symbols(benchmark, N_SYMBOLS, "unpack", bits)


@pytest.mark.parametrize("bits", BIT_WIDTHS)
def test_unpack_slice_throughput_per_width(
    benchmark, symbol_blocks, packed_blocks, bits
):
    # A misaligned window (start % 8 = 5) half the column long: the lazy
    # read path `store.indices(meter, start, stop)` runs through here.
    start, stop = 5, 5 + N_SYMBOLS // 2
    out = benchmark(unpack_slice, packed_blocks[bits], bits, start, stop)
    np.testing.assert_array_equal(out[:64], symbol_blocks[bits][start: start + 64])
    _record_symbols(benchmark, stop - start, "unpack_slice", bits)


# -- distance kernels --------------------------------------------------------------

#: The bound micro-benchmarks mirror the kNN refine shape: a week of
#: 15-minute windows, 16 symbols, a few hundred candidates.
T_WINDOWS = 672
ALPHABET = 16
N_CANDIDATES = 256
N_BANDS = 8
N_QUERIES = 64


@pytest.fixture(scope="module")
def bound_workload():
    rng = np.random.default_rng(11)
    queries_cells = rng.random((N_QUERIES, T_WINDOWS, ALPHABET))
    bands = (np.arange(T_WINDOWS) % 96) * N_BANDS // 96
    hist = rng.integers(
        0, 12, size=(N_CANDIDATES, N_BANDS, ALPHABET)
    ).astype(np.int64)
    return queries_cells, bands, hist


def test_batched_bound_throughput(benchmark, bound_workload):
    """All queries x all candidates in one banded-min + one matmul."""
    cells, bands, hist = bound_workload

    def batched():
        return histogram_bound(banded_min_cells(cells, bands, N_BANDS), hist)

    lb = benchmark(batched)
    assert lb.shape == (N_QUERIES, N_CANDIDATES)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["bounds_per_s"] = N_QUERIES * N_CANDIDATES / mean
    _RESULT_LINES[("bound_batched", 0)] = N_QUERIES / mean


def test_per_query_bound_throughput(benchmark, bound_workload):
    """The serial form the engine used before: one minimum.at + matvec per
    query (kept as the reference the batched kernel is diffed against)."""
    cells, bands, hist = bound_workload
    flat = hist.reshape(N_CANDIDATES, -1).astype(np.float64)

    def per_query():
        out = np.empty((N_QUERIES, N_CANDIDATES))
        for qi in range(N_QUERIES):
            band_min = np.full((N_BANDS, ALPHABET), np.inf)
            np.minimum.at(band_min, bands, cells[qi])
            band_min[~np.isfinite(band_min)] = 0.0
            out[qi] = flat @ band_min.ravel()
        return out

    lb = benchmark(per_query)
    batched = histogram_bound(banded_min_cells(cells, bands, N_BANDS), hist)
    np.testing.assert_allclose(lb, batched, rtol=1e-9)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["bounds_per_s"] = N_QUERIES * N_CANDIDATES / mean
    _RESULT_LINES[("bound_per_query", 0)] = N_QUERIES / mean


def test_write_kernel_results(results_dir):
    """Persist the rendered table after the benchmarks above have run."""
    if not _RESULT_LINES:
        pytest.skip("benchmarks did not run (collection-only or filtered)")
    lines = ["kernel throughput (this box):"]
    for label in ("pack", "unpack", "unpack_slice"):
        row = ", ".join(
            f"{bits}b {value / 1e6:.0f}M/s"
            for (lbl, bits), value in sorted(_RESULT_LINES.items())
            if lbl == label
        )
        if row:
            lines.append(f"  {label:13s} {row}")
    for label, title in (
        ("bound_batched", "batched bound"),
        ("bound_per_query", "per-query bound"),
    ):
        if (label, 0) in _RESULT_LINES:
            lines.append(
                f"  {title:17s} {_RESULT_LINES[(label, 0)]:.0f} query batches/s"
            )
    write_result(results_dir, "kernel_throughput", "\n".join(lines))
