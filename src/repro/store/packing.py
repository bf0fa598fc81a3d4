"""Vectorized bit-pack/unpack kernels for symbol indices.

The paper's compression arithmetic (Section 2.3) charges ``ceil(log2(k))``
bits per symbol; these kernels make that real bytes.  Three decode paths
share one dispatch, picked by bit width:

``bits in {1, 2, 4, 8}`` — **table-driven**
    A precomputed ``256 x (8 // bits)`` byte->symbols lookup table turns
    decode into a single fancy-index: one gather per byte yields all of its
    symbols at once, with no intermediate bit-plane blowup.  These are the
    aligned widths every power-of-two alphabet through 256 uses.

``bits in {3, 5, 6, 7}`` — **gather-free shift/mask**
    Symbols recur with period ``lcm(bits, 8)`` bits, so phase ``r`` of every
    period lives at the same in-period byte offset.  Each of the (at most 8)
    phases is decoded with two strided byte views assembled into ``uint16``
    and one shift-and-mask — strided slices, no index arrays.

``bits > 8`` — **bit planes**
    ``np.unpackbits`` followed by one matrix product against the bit
    weights; wide alphabets are not a compression format's hot path.

Columns of *different* lengths — a block of RLE run-value columns —
decode together through :func:`unpack_columns`, which reads every symbol
at its absolute bit position in one gather.

Decoded symbols come back **dtype-narrowed**: ``uint8`` for widths through
8 bits, ``uint16`` through 16, ``int64`` beyond (see :func:`symbol_dtype`).
A refinement pass over a 4-bit store therefore materialises one byte per
symbol, not eight.  Packing mirrors the aligned decode with per-phase
shift-or accumulation and falls back to bit planes for the odd widths; both
packers produce byte-identical streams (pinned by the round-trip property
suite in ``tests/store/test_packing.py``).

Symbols are packed back to back with **no per-symbol padding**: a column of
``n`` symbols at ``b`` bits occupies exactly ``ceil(n * b / 8)`` bytes, and
:func:`unpack_slice` can start decoding at any symbol offset without
touching the bytes before it — which is what makes memory-mapped stores
sliceable without reading whole columns (:func:`slice_byte_window` names
the bytes a slice needs).
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Tuple

import numpy as np

from ..errors import StoreError

__all__ = [
    "bits_for_alphabet",
    "packed_nbytes",
    "symbol_dtype",
    "slice_byte_window",
    "pack_indices",
    "unpack_columns",
    "unpack_indices",
    "unpack_slice",
]

#: Widest supported symbol (an alphabet of 4 billion symbols is not a
#: compression format any more).
MAX_BITS = 32

#: Widths whose symbols never straddle a byte: the LUT decode path.
_ALIGNED_BITS = (1, 2, 4, 8)

#: byte -> symbols decode tables, built lazily per aligned width.
_DECODE_LUTS: Dict[int, np.ndarray] = {}


def bits_for_alphabet(alphabet_size: int) -> int:
    """``ceil(log2(k))`` bits per symbol (at least 1)."""
    k = int(alphabet_size)
    if k < 2:
        raise StoreError(f"alphabet_size must be >= 2, got {alphabet_size}")
    return max(1, int(k - 1).bit_length())


def packed_nbytes(count: int, bits: int) -> int:
    """Bytes occupied by ``count`` symbols packed at ``bits`` bits each."""
    return (int(count) * int(bits) + 7) // 8


def symbol_dtype(bits: int) -> np.dtype:
    """Narrowest unsigned dtype that holds a ``bits``-wide symbol.

    The dtype every decode kernel returns: ``uint8`` through 8 bits,
    ``uint16`` through 16, ``int64`` beyond (indices that wide take part in
    arithmetic immediately anyway).
    """
    bits = _check_bits(bits)
    if bits <= 8:
        return np.dtype(np.uint8)
    if bits <= 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def _check_bits(bits: int) -> int:
    bits = int(bits)
    if not 1 <= bits <= MAX_BITS:
        raise StoreError(f"bits per symbol must be in [1, {MAX_BITS}], got {bits}")
    return bits


def _bit_weights(bits: int) -> np.ndarray:
    return np.left_shift(
        np.int64(1), np.arange(bits - 1, -1, -1, dtype=np.int64)
    )


def _align_syms(bits: int) -> int:
    """Symbols between starts that fall on a byte boundary."""
    return 8 // gcd(bits, 8)


def slice_byte_window(bits: int, start: int, stop: int) -> Tuple[int, int, int]:
    """``(first_byte, last_byte, lead)`` covering symbols ``[start, stop)``.

    ``first_byte`` is aligned down so decode can start on a symbol *and*
    byte boundary; ``lead`` is how many unwanted symbols precede ``start``
    inside the window (always ``< 8``).  The store's batched read path
    gathers exactly ``[first_byte, last_byte)`` per column and drops the
    lead after decoding.
    """
    bits = _check_bits(bits)
    start, stop = int(start), int(stop)
    lead = start % _align_syms(bits)
    first_byte = (start - lead) * bits // 8
    last_byte = (stop * bits + 7) // 8
    return first_byte, last_byte, lead


def _decode_lut(bits: int) -> np.ndarray:
    """The ``(256, 8 // bits)`` byte -> symbols table (cached)."""
    lut = _DECODE_LUTS.get(bits)
    if lut is None:
        per = 8 // bits
        byte = np.arange(256, dtype=np.uint16)
        shifts = np.arange(per - 1, -1, -1, dtype=np.uint16) * bits
        mask = np.uint16((1 << bits) - 1)
        lut = ((byte[:, None] >> shifts[None, :]) & mask).astype(np.uint8)
        lut.setflags(write=False)
        _DECODE_LUTS[bits] = lut
    return lut


# -- packing -----------------------------------------------------------------------


def pack_indices(indices: np.ndarray, bits: int) -> np.ndarray:
    """Pack an index array into a ``uint8`` byte stream, ``bits`` per symbol.

    A 1-D input returns the flat packed bytes; a 2-D ``(rows, count)`` input
    packs each row independently into ``packed_nbytes(count, bits)`` bytes
    (rows start on byte boundaries, which is how the store lays out meter
    columns).  Trailing pad bits are zero, so equal inputs always produce
    equal bytes.
    """
    bits = _check_bits(bits)
    arr = np.asarray(indices)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    if arr.ndim not in (1, 2):
        raise StoreError(f"expected a 1-D or 2-D index array, got shape {arr.shape}")
    if arr.size and (
        (arr.dtype.kind == "i" and int(arr.min()) < 0) or int(arr.max()) >> bits
    ):
        raise StoreError(
            f"symbol indices out of range for {bits}-bit packing "
            f"(valid range [0, {(1 << bits) - 1}])"
        )
    if arr.size == 0:
        shape = (0,) if arr.ndim == 1 else (arr.shape[0], 0)
        return np.zeros(shape, dtype=np.uint8)
    if bits in _ALIGNED_BITS:
        return _pack_aligned(arr, bits)
    if bits < 8:
        return _pack_odd(arr, bits)
    planes = (
        (arr[..., None].astype(np.int64) >> np.arange(bits - 1, -1, -1, dtype=np.int64)) & 1
    ).astype(np.uint8)
    flat_bits = planes.reshape(arr.shape[:-1] + (arr.shape[-1] * bits,))
    return np.packbits(flat_bits, axis=-1)


def _pack_aligned(arr: np.ndarray, bits: int) -> np.ndarray:
    """Shift-or packing for widths that divide a byte (no bit planes)."""
    n = arr.shape[-1]
    if bits == 8:
        return arr.astype(np.uint8)
    per = 8 // bits
    n_bytes = packed_nbytes(n, bits)
    out = np.zeros(arr.shape[:-1] + (n_bytes,), dtype=np.uint8)
    full = n // per
    if full:
        body = out[..., :full]
        for phase in range(per):
            shift = np.uint8(bits * (per - 1 - phase))
            np.bitwise_or(
                body,
                arr[..., phase: full * per: per].astype(np.uint8) << shift,
                out=body,
            )
    for phase in range(n - full * per):  # trailing partial byte
        shift = np.uint8(bits * (per - 1 - phase))
        out[..., full] |= arr[..., full * per + phase].astype(np.uint8) << shift
    return out


def _pack_odd(arr: np.ndarray, bits: int) -> np.ndarray:
    """Phase-based packing for the odd widths (3, 5, 6, 7 bits).

    The mirror of :func:`_unpack_phases`: each phase's symbols are shifted
    into a ``uint16`` straddling their two target bytes, whose halves are
    OR-ed into strided views of the output — no per-bit planes.
    """
    g = gcd(bits, 8)
    period_syms = 8 // g
    period_bytes = bits // g
    n = arr.shape[-1]
    n_periods = (n + period_syms - 1) // period_syms
    span = n_periods * period_bytes
    padded = np.zeros(arr.shape[:-1] + (n_periods * period_syms,), dtype=np.uint8)
    padded[..., :n] = arr
    acc = np.zeros(arr.shape[:-1] + (span + 1,), dtype=np.uint8)
    for phase in range(period_syms):
        bit_offset = phase * bits
        byte0 = bit_offset // 8
        shift = np.uint16(16 - (bit_offset - 8 * byte0) - bits)
        wide = padded[..., phase::period_syms].astype(np.uint16) << shift
        acc[..., byte0: byte0 + span: period_bytes] |= wide >> np.uint16(8)
        acc[..., byte0 + 1: byte0 + 1 + span: period_bytes] |= wide & np.uint16(0xFF)
    return acc[..., : packed_nbytes(n, bits)]


# -- unpacking ---------------------------------------------------------------------


#: Above this many decoded symbols the strided shift/mask path beats the
#: LUT gather (measured crossover ~8K on this generation of hardware);
#: below it the LUT's single fancy-index has less per-call overhead.
_LUT_MAX_SYMBOLS = 8192


def _decode_window(window: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Decode the first ``count`` symbols along ``window``'s last axis.

    ``window`` must start on a symbol boundary that is also a byte boundary
    (guaranteed by :func:`slice_byte_window` alignment).
    """
    if bits == 8:
        return np.array(window[..., :count], dtype=np.uint8)
    if bits in _ALIGNED_BITS:
        rows = int(np.prod(window.shape[:-1])) if window.ndim > 1 else 1
        if rows * count <= _LUT_MAX_SYMBOLS:
            return _unpack_lut(window, bits, count)
        return _unpack_strided(window, bits, count)
    if bits < 8:
        return _unpack_phases(window, bits, count)
    return _unpack_planes(window, bits, count)


def _unpack_lut(window: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Table-driven decode: one fancy-index per byte yields its symbols."""
    per = 8 // bits
    needed = (count + per - 1) // per
    taken = window[..., :needed]
    symbols = _decode_lut(bits)[taken]
    return symbols.reshape(taken.shape[:-1] + (needed * per,))[..., :count]


def _unpack_strided(window: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Gather-free decode for aligned widths: one shift/mask per phase.

    Symbol phase ``p`` of every byte lands in the strided view
    ``out[..., p::per]`` — ``per`` vectorized shift-and-masks, no index
    arrays, no bit planes.  Wins over the LUT gather on bulk decodes.
    """
    per = 8 // bits
    needed = (count + per - 1) // per
    taken = window[..., :needed]
    out = np.empty(taken.shape[:-1] + (needed * per,), dtype=np.uint8)
    mask = np.uint8((1 << bits) - 1)
    for phase in range(per):
        shift = np.uint8(bits * (per - 1 - phase))
        out[..., phase::per] = (taken >> shift) & mask
    return out[..., :count]


def _unpack_phases(window: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Gather-free shift/mask decode for the odd widths (3, 5, 6, 7 bits).

    Symbols repeat with period ``lcm(bits, 8)`` bits; each phase of the
    period is read with two strided byte views assembled into ``uint16``
    and one shift — no index arrays, no bit planes.
    """
    g = gcd(bits, 8)
    period_syms = 8 // g
    period_bytes = bits // g
    n_periods = (count + period_syms - 1) // period_syms
    span = n_periods * period_bytes
    # One zero pad byte lets every phase read its straddle byte unguarded.
    buf = np.zeros(window.shape[:-1] + (span + 1,), dtype=np.uint8)
    have = min(window.shape[-1], span + 1)
    buf[..., :have] = window[..., :have]
    out = np.empty(window.shape[:-1] + (n_periods * period_syms,), dtype=np.uint8)
    mask = np.uint16((1 << bits) - 1)
    for phase in range(period_syms):
        bit_offset = phase * bits
        byte0 = bit_offset // 8
        shift = np.uint16(16 - (bit_offset - 8 * byte0) - bits)
        hi = buf[..., byte0: byte0 + span: period_bytes].astype(np.uint16) << np.uint16(8)
        hi |= buf[..., byte0 + 1: byte0 + 1 + span: period_bytes]
        out[..., phase::period_syms] = ((hi >> shift) & mask).astype(np.uint8)
    return out[..., :count]


def _unpack_planes(window: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Bit-plane decode (wide widths): unpackbits + one matrix product."""
    needed = packed_nbytes(count, bits)
    bit_planes = np.unpackbits(window[..., :needed], axis=-1)[..., : count * bits]
    planes = bit_planes.reshape(window.shape[:-1] + (count, bits))
    return (planes.astype(np.int64) @ _bit_weights(bits)).astype(symbol_dtype(bits))


def unpack_indices(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Unpack ``count`` symbols per row from a packed byte stream.

    The inverse of :func:`pack_indices`: accepts the flat 1-D bytes (returns
    a 1-D array) or the 2-D per-row byte matrix (returns ``(rows, count)``).
    The output dtype is :func:`symbol_dtype` — ``uint8`` for every alphabet
    through 256 symbols.
    """
    bits = _check_bits(bits)
    count = int(count)
    if count < 0:
        raise StoreError(f"count must be >= 0, got {count}")
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    needed = packed_nbytes(count, bits)
    if packed.shape[-1] < needed:
        raise StoreError(
            f"packed payload too short: {packed.shape[-1]} bytes for "
            f"{count} symbols at {bits} bits ({needed} needed)"
        )
    if count == 0:
        shape = (0,) if packed.ndim == 1 else (packed.shape[0], 0)
        return np.zeros(shape, dtype=symbol_dtype(bits))
    return _decode_window(packed, bits, count)


def unpack_columns(
    packed: np.ndarray, bit_starts: np.ndarray, counts: np.ndarray, bits: int
) -> np.ndarray:
    """Concatenated symbols of many packed columns of different lengths.

    Column ``i`` is ``counts[i]`` symbols read from bit ``bit_starts[i]`` of
    the flat byte stream ``packed``, in any order — a column's first byte
    times 8, plus ``start * bits`` to read only a window from ``start``.
    Each symbol is read at its absolute bit position: one gather of the
    ``(bits + 14) // 8`` bytes it can straddle, one shift and one mask, for
    every width and every column at once.  Output dtype is
    :func:`symbol_dtype`.
    """
    bits = _check_bits(bits)
    bit_starts = np.asarray(bit_starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    packed = np.asarray(packed, dtype=np.uint8)
    if counts.size and int(np.max(bit_starts + counts * bits)) > packed.size * 8:
        raise StoreError(
            f"packed columns read past the {packed.size}-byte stream"
        )
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    position = np.repeat(bit_starts - first * bits, counts)
    position += np.arange(total, dtype=np.int64) * bits
    byte = position >> 3
    word = np.zeros(total, dtype=np.uint64)
    for step in range((bits + 14) // 8):
        word <<= np.uint64(8)
        word |= packed[np.minimum(byte + step, packed.size - 1)]
    shift = ((bits + 14) // 8 * 8 - bits - (position & 7)).astype(np.uint64)
    return ((word >> shift) & np.uint64((1 << bits) - 1)).astype(symbol_dtype(bits))


def unpack_slice(packed: np.ndarray, bits: int, start: int, stop: int) -> np.ndarray:
    """Decode symbols ``[start, stop)`` from a packed column (or columns).

    Only the bytes covering the requested bit range are touched — the lazy
    read path for memory-mapped stores.  A 2-D ``(rows, bytes)`` input
    decodes the same slice of every row at once (the batched refinement
    read); output dtype is :func:`symbol_dtype`.
    """
    bits = _check_bits(bits)
    start, stop = int(start), int(stop)
    if start < 0 or stop < start:
        raise StoreError(f"invalid symbol slice [{start}, {stop})")
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim not in (1, 2):
        raise StoreError("unpack_slice expects a flat packed column or a (rows, bytes) matrix")
    if stop == start:
        shape = (0,) if packed.ndim == 1 else (packed.shape[0], 0)
        return np.zeros(shape, dtype=symbol_dtype(bits))
    first_byte, last_byte, lead = slice_byte_window(bits, start, stop)
    if last_byte > packed.shape[-1]:
        raise StoreError(
            f"slice [{start}, {stop}) reads past the packed column "
            f"({packed.shape[-1]} bytes at {bits} bits/symbol)"
        )
    window = np.ascontiguousarray(packed[..., first_byte:last_byte])
    return _decode_window(window, bits, lead + stop - start)[..., lead:]
