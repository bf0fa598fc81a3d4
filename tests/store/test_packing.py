"""Property-style round-trip tests for the bit-pack/unpack kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.store import (
    bits_for_alphabet,
    pack_indices,
    packed_nbytes,
    slice_byte_window,
    symbol_dtype,
    unpack_indices,
    unpack_slice,
)
from repro.store.packing import unpack_columns

#: Alphabet sizes from the issue spec: powers of two the paper uses, plus
#: awkward non-powers whose top code does not fill the bit width.
ALPHABETS = (2, 3, 4, 8, 16, 27, 32)


@pytest.mark.parametrize("alphabet", ALPHABETS)
class TestRoundTrip:
    def test_flat_roundtrip_many_lengths(self, alphabet):
        bits = bits_for_alphabet(alphabet)
        rng = np.random.default_rng(alphabet)
        # Lengths around byte boundaries: 8/bits multiples plus off-by-ones.
        for n in (0, 1, 2, 7, 8, 9, 63, 64, 65, 997):
            indices = rng.integers(0, alphabet, size=n)
            packed = pack_indices(indices, bits)
            assert packed.dtype == np.uint8
            assert packed.size == packed_nbytes(n, bits)
            np.testing.assert_array_equal(
                unpack_indices(packed, bits, n), indices
            )

    def test_matrix_roundtrip(self, alphabet):
        bits = bits_for_alphabet(alphabet)
        rng = np.random.default_rng(100 + alphabet)
        matrix = rng.integers(0, alphabet, size=(13, 97))
        packed = pack_indices(matrix, bits)
        assert packed.shape == (13, packed_nbytes(97, bits))
        np.testing.assert_array_equal(
            unpack_indices(packed, bits, 97), matrix
        )
        # Row packing is independent: row i's bytes equal the flat packing.
        for row in range(13):
            np.testing.assert_array_equal(
                packed[row], pack_indices(matrix[row], bits)
            )

    def test_slice_decoding_at_every_offset(self, alphabet):
        bits = bits_for_alphabet(alphabet)
        rng = np.random.default_rng(200 + alphabet)
        indices = rng.integers(0, alphabet, size=131)
        packed = pack_indices(indices, bits)
        for start in range(0, 131, 17):
            for stop in (start, start + 1, min(start + 29, 131), 131):
                np.testing.assert_array_equal(
                    unpack_slice(packed, bits, start, stop),
                    indices[start:stop],
                )

    def test_extreme_values_roundtrip(self, alphabet):
        bits = bits_for_alphabet(alphabet)
        edge = np.array([0, alphabet - 1] * 11)
        np.testing.assert_array_equal(
            unpack_indices(pack_indices(edge, bits), bits, edge.size), edge
        )

    def test_packing_is_deterministic(self, alphabet):
        bits = bits_for_alphabet(alphabet)
        rng = np.random.default_rng(300 + alphabet)
        indices = rng.integers(0, alphabet, size=500)
        first = pack_indices(indices, bits).tobytes()
        assert pack_indices(indices, bits).tobytes() == first


class TestBitsForAlphabet:
    @pytest.mark.parametrize(
        "alphabet,expected",
        [(2, 1), (3, 2), (4, 2), (8, 3), (16, 4), (27, 5), (32, 5)],
    )
    def test_ceil_log2(self, alphabet, expected):
        assert bits_for_alphabet(alphabet) == expected

    def test_rejects_degenerate_alphabets(self):
        with pytest.raises(StoreError):
            bits_for_alphabet(1)


def _reference_pack(indices: np.ndarray, bits: int) -> np.ndarray:
    """The seed bit-plane packer: expand to bits, ``np.packbits`` MSB-first.

    Deliberately independent of ``repro.store.packing`` internals — it pins
    the *byte layout* the fast paths must reproduce exactly.
    """
    arr = np.asarray(indices, dtype=np.int64)
    shifts = np.arange(bits - 1, -1, -1)
    planes = ((arr[..., None] >> shifts) & 1).astype(np.uint8)
    flat = planes.reshape(arr.shape[:-1] + (arr.shape[-1] * bits,))
    return np.packbits(flat, axis=-1)


def _reference_unpack(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    expanded = np.unpackbits(
        np.asarray(packed, dtype=np.uint8), axis=-1
    )[..., : count * bits]
    planes = expanded.reshape(expanded.shape[:-1] + (count, bits))
    weights = (1 << np.arange(bits - 1, -1, -1)).astype(np.int64)
    return planes.astype(np.int64) @ weights


@pytest.mark.parametrize("bits", range(1, 9))
class TestFastPathsMatchReferenceKernels:
    """The LUT / strided / odd-phase paths are bit-identical to bit-planes."""

    def test_pack_bytes_identical(self, bits):
        rng = np.random.default_rng(bits)
        for n in (0, 1, 5, 8, 9, 24, 63, 64, 65, 255, 1000, 8191, 8192, 8193):
            indices = rng.integers(0, 1 << bits, size=n)
            assert pack_indices(indices, bits).tobytes() == \
                _reference_pack(indices, bits).tobytes()

    def test_unpack_values_identical(self, bits):
        rng = np.random.default_rng(100 + bits)
        # 8193 symbols crosses the LUT -> strided dispatch threshold for
        # every aligned width; odd counts exercise partial trailing bytes.
        for n in (1, 7, 8, 9, 97, 8191, 8193):
            indices = rng.integers(0, 1 << bits, size=n)
            packed = _reference_pack(indices, bits)
            out = unpack_indices(packed, bits, n)
            np.testing.assert_array_equal(
                out.astype(np.int64), _reference_unpack(packed, bits, n)
            )
            assert out.dtype == symbol_dtype(bits)

    def test_unpack_slice_every_phase(self, bits):
        rng = np.random.default_rng(200 + bits)
        n = 259  # odd length: trailing partial byte for every width
        indices = rng.integers(0, 1 << bits, size=n)
        packed = pack_indices(indices, bits)
        reference = _reference_unpack(packed, bits, n)
        # Every start % 8 phase (and then some), misaligned stops included.
        for start in list(range(0, 17)) + [100, 128, 250, 258, 259]:
            for stop in (start, start + 1, start + 13, min(start + 64, n), n):
                stop = min(stop, n)
                np.testing.assert_array_equal(
                    unpack_slice(packed, bits, start, stop).astype(np.int64),
                    reference[start:stop],
                )

    def test_matrix_rows_identical(self, bits):
        rng = np.random.default_rng(300 + bits)
        matrix = rng.integers(0, 1 << bits, size=(7, 131))
        packed = pack_indices(matrix, bits)
        assert packed.tobytes() == _reference_pack(matrix, bits).tobytes()
        np.testing.assert_array_equal(
            unpack_indices(packed, bits, 131).astype(np.int64),
            _reference_unpack(packed, bits, 131),
        )


@given(
    bits=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(bits, data):
    n = data.draw(st.integers(min_value=0, max_value=700))
    symbols = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            min_size=n, max_size=n,
        )
    )
    indices = np.asarray(symbols, dtype=np.int64)
    packed = pack_indices(indices, bits)
    assert packed.tobytes() == _reference_pack(indices, bits).tobytes()
    np.testing.assert_array_equal(
        unpack_indices(packed, bits, n).astype(np.int64), indices
    )
    if n:
        start = data.draw(st.integers(min_value=0, max_value=n))
        stop = data.draw(st.integers(min_value=start, max_value=n))
        np.testing.assert_array_equal(
            unpack_slice(packed, bits, start, stop).astype(np.int64),
            indices[start:stop],
        )


@given(
    bits=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 25, 32]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_unpack_columns_property(bits, data):
    """Columns of any lengths, packed back to back on byte boundaries,
    decode in any order (repeats included) to their concatenated symbols,
    each from any window ``[lo, hi)`` of the column."""
    lengths = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    columns = [rng.integers(0, 1 << bits, size=n, dtype=np.int64) for n in lengths]
    payloads = [pack_indices(column, bits).tobytes() for column in columns]
    starts = np.cumsum([0] + [len(p) for p in payloads[:-1]])
    packed = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    order = data.draw(st.lists(st.integers(0, len(columns) - 1), max_size=8))
    windows = []
    for i in order:
        lo = data.draw(st.integers(0, lengths[i]))
        windows.append((lo, data.draw(st.integers(lo, lengths[i]))))
    decoded = unpack_columns(
        packed,
        np.asarray([starts[i] * 8 + lo * bits for i, (lo, _) in zip(order, windows)]),
        np.asarray([hi - lo for lo, hi in windows], dtype=np.int64),
        bits,
    )
    expected = np.concatenate(
        [np.zeros(0, np.int64)]
        + [columns[i][lo:hi] for i, (lo, hi) in zip(order, windows)]
    )
    assert decoded.dtype == symbol_dtype(bits)
    np.testing.assert_array_equal(decoded.astype(np.int64), expected)


class TestSymbolDtype:
    def test_narrow_widths(self):
        for bits in range(1, 9):
            assert symbol_dtype(bits) == np.uint8
        for bits in range(9, 17):
            assert symbol_dtype(bits) == np.uint16
        assert symbol_dtype(17) == np.int64

    def test_slice_byte_window_bounds(self):
        # The window always covers [start, stop) and starts on a
        # symbol-aligned byte: lead symbols precede start inside it.
        for bits in range(1, 9):
            for start in range(0, 40):
                first, last, lead = slice_byte_window(bits, start, start + 11)
                assert 0 <= lead < 8
                assert first * 8 <= start * bits
                assert last * 8 >= (start + 11) * bits
                assert (start - lead) * bits == first * 8


class TestValidation:
    def test_out_of_range_indices_rejected(self):
        with pytest.raises(StoreError):
            pack_indices(np.array([0, 4]), bits=2)
        with pytest.raises(StoreError):
            pack_indices(np.array([-1, 0]), bits=2)

    def test_bad_bit_widths_rejected(self):
        for bits in (0, -1, 33):
            with pytest.raises(StoreError):
                pack_indices(np.array([0]), bits)

    def test_short_payload_rejected(self):
        packed = pack_indices(np.arange(8), bits=3)
        with pytest.raises(StoreError):
            unpack_indices(packed[:-1], bits=3, count=8)

    def test_columns_past_end_rejected(self):
        packed = pack_indices(np.arange(8), bits=3)
        with pytest.raises(StoreError):
            unpack_columns(packed, np.array([0]), np.array([9]), bits=3)
        with pytest.raises(StoreError):
            unpack_columns(packed, np.array([3]), np.array([8]), bits=3)

    def test_slice_past_end_rejected(self):
        packed = pack_indices(np.arange(8), bits=3)
        with pytest.raises(StoreError):
            unpack_slice(packed, bits=3, start=0, stop=9)

    def test_negative_slice_rejected(self):
        packed = pack_indices(np.arange(8), bits=3)
        with pytest.raises(StoreError):
            unpack_slice(packed, bits=3, start=-1, stop=4)
        with pytest.raises(StoreError):
            unpack_slice(packed, bits=3, start=5, stop=4)
