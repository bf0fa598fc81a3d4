"""CRC32C correctness: check vector, lane parity, combine, row batches,
and the eager open's row batches pooled across segments.

Every fast path is compared with :func:`_crc_bytes`, the reference byte
loop, and the writer's stored column checksums with the same loop.
"""

from __future__ import annotations

import zlib
from collections import Counter

import numpy as np
import pytest

from repro.store import (
    DENSE,
    RLE,
    SymbolStore,
    write_fleet_store,
    write_segmented_fleet,
)
from repro.store import format as format_module
from repro.store.checksum import (
    _LANE_PIECE,
    _LANE_THRESHOLD,
    _LANE_WIDTH,
    _MASK,
    _crc_bytes,
    crc32c,
    crc32c_combine,
    crc32c_hex,
    crc32c_rows,
)
from repro.store.format import _Segment, packed_nbytes
from repro.store.segments import _FILE_CRC_CHUNK


def _reference(data: bytes, value: int = 0) -> int:
    return (_crc_bytes(data, value ^ _MASK) ^ _MASK) & _MASK


def _random_bytes(size: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


class TestCheckVector:
    def test_standard_check_vector(self):
        # The canonical CRC32C test vector (RFC 3720 / every implementation).
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_input_is_identity(self):
        assert crc32c(b"") == 0
        assert crc32c(b"", 0xDEADBEEF) == 0xDEADBEEF

    def test_hex_rendering(self):
        assert crc32c_hex(0xE3069283) == "e3069283"
        assert crc32c_hex(0x1) == "00000001"

    def test_differs_from_crc32(self):
        # Castagnoli, not the zlib/IEEE polynomial.
        assert crc32c(b"123456789") != zlib.crc32(b"123456789")


class TestIncremental:
    def test_zlib_call_shape(self):
        a, b = b"smart meter", b" symbols"
        assert crc32c(b, crc32c(a)) == crc32c(a + b)

    def test_combine_matches_concatenation(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 256, size=313, dtype=np.uint8).tobytes()
        b = rng.integers(0, 256, size=4097, dtype=np.uint8).tobytes()
        assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c(a + b)

    def test_combine_with_empty_suffix(self):
        assert crc32c_combine(0x12345678, 0, 0) == 0x12345678

    @pytest.mark.parametrize("len2", [1 << 20, (1 << 20) + 37, 3 << 20])
    def test_combine_with_megabyte_suffix(self, len2):
        a, b = _random_bytes(129, 1), _random_bytes(len2, len2)
        assert crc32c_combine(crc32c(a), crc32c(b), len2) == _reference(a + b)


class TestLaneParity:
    @pytest.mark.parametrize("size", [
        2047, 2048, 6161,          # lane tails of 63, 0 and 17 bytes
        100_003,                   # prime, many lanes
        _LANE_THRESHOLD - 1,       # byte loop
        _LANE_THRESHOLD,           # smallest lane split
        _LANE_THRESHOLD + 1,
        # k lanes of _LANE_WIDTH, minus one byte, exact, plus one byte: a
        # power-of-two lane count and two that pad the fold tree.
        *[k * _LANE_WIDTH + d for k in (64, 33, 391) for d in (-1, 0, 1)],
        # Around the piece size the lane path continues from.
        _LANE_PIECE - 1, _LANE_PIECE, _LANE_PIECE + 1,
    ])
    def test_lane_path_equals_byte_loop(self, size):
        data = _random_bytes(size, size)
        assert crc32c(data) == _reference(data)
        # A split continues the lane path from a non-zero value.
        cut = min(1024, size // 2)
        assert crc32c(data[cut:], crc32c(data[:cut])) == _reference(data)

    @pytest.mark.parametrize("size", [_LANE_THRESHOLD, 5000, 64 * 1024 + 3])
    def test_continuation_value_through_lane_path(self, size):
        data = _random_bytes(size, 3 * size)
        for value in (0x1, 0xDEADBEEF, 0xFFFFFFFF):
            assert crc32c(data, value) == _reference(data, value)

    def test_file_chunks_match_byte_loop(self):
        # Fed the way segments._file_crc32c feeds a file: whole chunks, each
        # continuing from the last, then a short tail.
        data = _random_bytes(_FILE_CRC_CHUNK + 7, 11)
        value = 0
        for start in range(0, len(data), _FILE_CRC_CHUNK):
            value = crc32c(data[start: start + _FILE_CRC_CHUNK], value)
        assert value == _reference(data)

    def test_strided_view_matches_bytes(self):
        rng = np.random.default_rng(12)
        arr = rng.integers(0, 256, size=(300, 40), dtype=np.uint8)
        view = arr[::2, 3:37]
        assert not view.flags.c_contiguous
        assert crc32c(view) == _reference(view.tobytes())
        assert crc32c(arr[:, 5]) == _reference(arr[:, 5].tobytes())

    def test_numpy_input_matches_bytes(self):
        rng = np.random.default_rng(9)
        arr = rng.integers(0, 256, size=5000, dtype=np.uint8)
        assert crc32c(arr) == crc32c(arr.tobytes())


class TestRows:
    def test_rows_match_per_row_scalar(self):
        rng = np.random.default_rng(21)
        matrix = rng.integers(0, 256, size=(37, 53), dtype=np.uint8)
        rows = crc32c_rows(matrix)
        assert rows.dtype == np.uint32
        for i in range(matrix.shape[0]):
            assert int(rows[i]) == crc32c(matrix[i].tobytes())

    @pytest.mark.parametrize("n_rows,width", [
        # One block, some narrower than the 4-byte register.
        *[(40, width) for width in range(1, 8)],
        (16, 9), (200, 36), (1024, 48), (33, 66), (64, 1023),
        (40, 65), (40, 131),                       # a last block of 1 or 3 bytes
    ])
    def test_rows_match_byte_loop(self, n_rows, width):
        rng = np.random.default_rng(n_rows * 1000 + width)
        matrix = rng.integers(0, 256, size=(n_rows, width), dtype=np.uint8)
        expected = [_reference(row.tobytes()) for row in matrix]
        assert crc32c_rows(matrix).tolist() == expected
        # A non-contiguous view of the same rows.
        wide = np.zeros((n_rows, width + 3), dtype=np.uint8)
        wide[:, 2: 2 + width] = matrix
        assert crc32c_rows(wide[:, 2: 2 + width]).tolist() == expected

    def test_few_rows_take_scalar_path(self):
        rng = np.random.default_rng(22)
        matrix = rng.integers(0, 256, size=(3, 64), dtype=np.uint8)
        rows = crc32c_rows(matrix)
        for i in range(3):
            assert int(rows[i]) == crc32c(matrix[i].tobytes())

    def test_empty_and_bad_inputs(self):
        assert crc32c_rows(np.zeros((0, 8), dtype=np.uint8)).size == 0
        assert np.array_equal(
            crc32c_rows(np.zeros((4, 0), dtype=np.uint8)), np.zeros(4)
        )
        with pytest.raises(TypeError):
            crc32c_rows(np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(TypeError):
            crc32c_rows(np.zeros(16, dtype=np.uint8))


def _segment_paths(path):
    return sorted(path.glob("seg-*.rsym")) if path.is_dir() else [path]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tables", ["shared", "per-meter", "segmented"])
@pytest.mark.parametrize("layout", [DENSE, RLE])
def test_writer_column_crcs_match_byte_loop(tmp_path, layout, tables, workers):
    """Each stored column CRC is the reference CRC of that column's payload."""
    rng = np.random.default_rng(31)
    values = np.abs(rng.normal(2.0, 0.8, size=(40, 384)))
    values[:, 100:160] = 1.0  # runs, so RLE payload widths differ
    if tables == "segmented":
        path = tmp_path / "fleet.rsyms"
        write_segmented_fleet(
            path, values, alphabet_size=8, layout=layout,
            segment_windows=96, workers=workers,
        ).close()
    else:
        path = tmp_path / "fleet.rsym"
        write_fleet_store(
            path, values, alphabet_size=8, layout=layout,
            shared_table=tables == "shared", workers=workers, shard_meters=17,
        ).close()
    for seg_path in _segment_paths(path):
        segment = _Segment.open(seg_path, verify="off")
        stored = segment._header["checksums"]["columns"]
        per = segment.counts if layout == DENSE else segment.run_counts
        assert len(stored) == segment.n_meters == 40
        for column in range(segment.n_meters):
            start = int(segment.offsets[column])
            stop = start + packed_nbytes(int(per[column]), segment.bits_per_symbol)
            payload = segment._payload[start:stop].tobytes()
            assert stored[column] == _reference(payload)
        segment.close()


@pytest.mark.parametrize("layout", [DENSE, RLE])
def test_eager_open_pools_bounded_row_batches(tmp_path, monkeypatch, layout):
    """An eager open checks equal-width columns of every segment together,
    in row-kernel calls of at most ``_Segment._RUN_SCAN_BLOCK`` rows."""
    rng = np.random.default_rng(41)
    values = np.abs(rng.normal(2.0, 0.8, size=(40, 8 * 48)))
    path = tmp_path / "fleet.rsyms"
    write_segmented_fleet(
        path, values, alphabet_size=8, layout=layout, segment_windows=48,
    ).close()
    calls = []
    rows = format_module.crc32c_rows

    def counted(matrix):
        calls.append(matrix.shape[0])
        return rows(matrix)

    monkeypatch.setattr(_Segment, "_RUN_SCAN_BLOCK", 64)
    monkeypatch.setattr(format_module, "crc32c_rows", counted)
    with SymbolStore.open(path, verify="eager") as store:
        assert store.n_segments == 8 and not store.quarantined
        assert all(seg._verified.all() for seg in store.segments)
        widths = Counter(
            width for seg in store.segments
            for width in seg._column_widths(np.arange(seg.n_meters)).tolist()
        )
    assert sum(calls) == 8 * 40 and max(calls) <= 64
    # One call per 64 columns of a width, whichever segments they sit in.
    assert len(calls) == sum(-(-count // 64) for count in widths.values())
