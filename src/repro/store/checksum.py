"""CRC32C (Castagnoli) checksums for the store formats — no C extension.

Every payload byte the store writes is covered by a CRC32C (the polynomial
used by iSCSI, ext4 and leveldb/rocksdb manifests; hardware-accelerated on
most CPUs, which keeps the choice future-proof even though this
implementation is pure Python + numpy).  Three pieces:

:func:`crc32c_rows`
    The row kernel: the CRC of every row of a 2-D ``uint8`` array, all
    rows advanced *together* 64 bytes per NumPy step.  A step is one
    gather from a table per byte position (64 x 256 entries; slicing-by-4
    widened to the whole block) and one XOR-reduce along each row, so a
    segment's 36-byte columns cost one step, not nine.  The store verifies
    a segment's equal-width columns with one call and the writer
    checksums a dense shard's columns with one call.

:func:`crc32c`
    ``zlib.crc32``-compatible call shape: ``crc32c(b, crc32c(a)) ==
    crc32c(a + b)``.  Small buffers run a table-driven byte loop.  Larger
    ones are viewed as ``(lanes, _LANE_WIDTH)`` rows, the lane CRCs come
    from the row kernel, and the lanes are folded in a log-depth tree: a
    CRC is GF(2)-linear, so ``crc(A + B) == shift_|B|(crc A) ^ crc B``
    where ``shift_n`` advances a CRC over ``n`` zero bytes (the zlib
    ``crc32_combine`` construction).  The lane vector is left-padded with
    zero CRCs (the CRC of an empty message) to a power of two, so every
    tree level shifts by one width, ``_LANE_WIDTH * 2**level``, whose
    operator is cached as four 256-entry byte tables.  A call takes one
    row step plus one fold step per doubling of the lane count, on pieces
    of at most 256 KiB so that temporaries stay small.  Measured on a
    shared 2-CPU x86-64 VM: 0.17-0.3 ms for a 25-32 KB segment header
    (85-110 MB/s), 0.12-0.21 ms for a 10 KB manifest, and 170-240 MB/s on
    the 1-4 MiB chunks a whole-file check streams.

:func:`crc32c_combine`
    The fold primitive, exposed for callers that hold piece checksums.
    It shifts with the same cached tables.  The store itself does not
    derive whole-file checksums from pieces: ``append_segment`` and
    ``scrub`` re-read each committed file and run :func:`crc32c` over it,
    which is a fault check on the bytes that actually reached the disk.

Correctness is pinned by ``tests/store/test_checksum.py``: the standard
check vector (``crc32c(b"123456789") == 0xE3069283``), parity of every
path with the reference byte loop :func:`_crc_bytes` on random buffers of
awkward sizes, and the combine property.
"""

from __future__ import annotations

import functools
from typing import List, Union

import numpy as np

__all__ = ["crc32c", "crc32c_combine", "crc32c_hex", "crc32c_rows", "ALGORITHM"]

#: Name recorded in headers next to the checksum values.
ALGORITHM = "crc32c"

#: Reflected CRC32C (Castagnoli) polynomial.
_POLY = 0x82F63B78

_MASK = 0xFFFFFFFF


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE: List[int] = _build_table()
_TABLE_NP = np.asarray(_TABLE, dtype=np.uint32)

#: Width of one lane of the bulk path and of one block of the row kernel.
_LANE_WIDTH = 64

#: Buffers below this take the plain byte loop (the lane path's fixed
#: NumPy dispatch costs more).
_LANE_THRESHOLD = 1024

#: The lane path takes larger buffers this many bytes at a time, so its
#: temporaries stay a few MB (the row kernel's gather indices are 8 bytes
#: per input byte).
_LANE_PIECE = 256 << 10


def _crc_bytes(data: bytes, state: int) -> int:
    """Advance the raw (pre/post-xor already applied) CRC state per byte.

    The reference implementation: every other path must agree with it.
    """
    table = _TABLE
    for byte in data:
        state = table[(state ^ byte) & 0xFF] ^ (state >> 8)
    return state


# -- the row kernel: one table gather per 64-byte block ------------------------


def _position_tables() -> np.ndarray:
    """``tables[j][b]``: the register, started at zero, after byte ``b`` at
    position ``j`` of a ``_LANE_WIDTH``-byte block (``b`` and then
    ``_LANE_WIDTH - 1 - j`` zero bytes).  A narrower block of ``w`` bytes
    uses the last ``w`` tables."""
    tables = np.empty((_LANE_WIDTH, 256), dtype=np.uint32)
    tables[-1] = _TABLE_NP
    for position in range(_LANE_WIDTH - 2, -1, -1):
        after = tables[position + 1]
        tables[position] = _TABLE_NP[after & np.uint32(0xFF)] ^ (after >> np.uint32(8))
    return tables


_POSITION_TABLES = _position_tables().ravel()
#: Where each position's table starts in ``_POSITION_TABLES``.
_POSITION_OFFSETS = np.arange(0, 256 * _LANE_WIDTH, 256)
#: Bit offsets of the register's four bytes, lowest first.
_BYTE_SHIFTS = np.arange(0, 32, 8)


def _advance_rows(arr: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Advance one raw CRC register per row over that row's bytes.

    A CRC is linear, so the register after a block is the XOR of what each
    byte contributes from its position, with the incoming register XORed
    into the first four bytes (the byte loop XORs it in the same way).
    Each block of up to ``_LANE_WIDTH`` bytes is therefore one gather from
    the position tables and one XOR-reduce across the row; a block under
    four bytes wide also passes on the register bytes it does not reach.
    """
    for start in range(0, arr.shape[1], _LANE_WIDTH):
        block = arr[:, start: start + _LANE_WIDTH].astype(np.intp)
        width = block.shape[1]
        reach = min(width, 4)
        block[:, :reach] ^= (state[:, None] >> _BYTE_SHIFTS[:reach]) & 0xFF
        block += _POSITION_OFFSETS[_LANE_WIDTH - width:]
        advanced = np.bitwise_xor.reduce(_POSITION_TABLES[block], axis=1)
        if width < 4:
            advanced ^= state >> np.uint32(8 * width)
        state = advanced
    return state


def _rows_crc(arr: np.ndarray) -> np.ndarray:
    """CRC32C of every row: the register starts and ends inverted."""
    state = np.full(arr.shape[0], _MASK, dtype=np.uint32)
    return _advance_rows(arr, state) ^ np.uint32(_MASK)


# -- shift operators: a CRC advanced over n zero bytes --------------------------


#: ``_BASIS[k][b] == b << 8k``: the inputs whose images make up a byte table.
_BASIS = (
    np.arange(256, dtype=np.uint32)[None, :]
    << (np.uint32(8) * np.arange(4, dtype=np.uint32))[:, None]
)


def _apply_shift(tables: np.ndarray, crc):
    """Apply a shift operator, given as four byte tables, to CRC value(s)."""
    # One cast to a native index type, so the four lookups need none.
    x = np.asarray(crc, dtype=np.int64)
    return (
        tables[0][x & 0xFF]
        ^ tables[1][(x >> 8) & 0xFF]
        ^ tables[2][(x >> 16) & 0xFF]
        ^ tables[3][x >> 24]
    )


@functools.lru_cache(maxsize=64)  # a level per bit of a 64-bit length
def _shift_tables(level: int) -> np.ndarray:
    """Byte tables of the shift over ``_LANE_WIDTH * 2**level`` zero bytes."""
    if level == 0:
        # Advancing a register over zero bytes is the shift itself.
        zeros = np.zeros((_BASIS.size, _LANE_WIDTH), dtype=np.uint8)
        return _advance_rows(zeros, _BASIS.ravel()).reshape(_BASIS.shape)
    half = _shift_tables(level - 1)
    return _apply_shift(half, _apply_shift(half, _BASIS))


def _shift(crc: int, nbytes: int) -> int:
    """``crc`` advanced over ``nbytes`` zero bytes."""
    blocks, rest = divmod(int(nbytes), _LANE_WIDTH)
    level = 0
    while blocks:
        if blocks & 1:
            crc = int(_apply_shift(_shift_tables(level), np.uint32(crc)))
        blocks >>= 1
        level += 1
    return _crc_bytes(bytes(rest), crc)


def _fold_lanes(lane_crcs: np.ndarray) -> int:
    """CRC of the concatenated lanes, from their ``_LANE_WIDTH``-byte CRCs."""
    levels = (int(lane_crcs.size) - 1).bit_length()
    # Left padding with empty messages (CRC 0) changes nothing: a pair whose
    # right half holds padding has an all-padding left half, and shifting 0
    # gives 0.  So every pair's right half is full: shift by one width.
    crcs = np.zeros(1 << levels, dtype=np.uint32)
    crcs[crcs.size - lane_crcs.size:] = lane_crcs
    for level in range(levels):
        pairs = crcs.reshape(-1, 2)
        crcs = _apply_shift(_shift_tables(level), pairs[:, 0]) ^ pairs[:, 1]
    return int(crcs[0])


def crc32c_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC of ``A + B`` from ``crc32c(A)``, ``crc32c(B)`` and ``len(B)``."""
    if len2 <= 0:
        return crc1 & _MASK
    return (_shift(crc1 & _MASK, len2) ^ crc2) & _MASK


# -- public entry points ---------------------------------------------------------


def _as_uint8(data: Union[bytes, bytearray, memoryview, np.ndarray]) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise TypeError(f"expected a uint8 array, got dtype {data.dtype}")
        return np.ascontiguousarray(data).ravel()
    return np.frombuffer(data, dtype=np.uint8)


def crc32c(data: Union[bytes, bytearray, memoryview, np.ndarray], value: int = 0) -> int:
    """CRC32C of ``data``, continuing from ``value`` (``zlib.crc32`` shape)."""
    arr = _as_uint8(data)
    n = int(arr.size)
    value &= _MASK
    if n == 0:
        return value
    if n < _LANE_THRESHOLD:
        return (_crc_bytes(arr.tobytes(), value ^ _MASK) ^ _MASK) & _MASK
    if n > _LANE_PIECE:
        for start in range(0, n, _LANE_PIECE):
            value = crc32c(arr[start: start + _LANE_PIECE], value)
        return value
    lanes = n // _LANE_WIDTH
    body = lanes * _LANE_WIDTH
    total = _fold_lanes(_rows_crc(arr[:body].reshape(lanes, _LANE_WIDTH)))
    if value:
        total ^= _shift(value, body)
    if body < n:
        total = _crc_bytes(arr[body:].tobytes(), total ^ _MASK) ^ _MASK
    return total & _MASK


def crc32c_rows(matrix: np.ndarray) -> np.ndarray:
    """CRC32C of every row of a 2-D uint8 array, vectorized across rows.

    Each row is an independent message, so one ``uint32`` CRC per row comes
    straight out of the row kernel's state vector, with no fold.
    """
    arr = np.asarray(matrix)
    if arr.dtype != np.uint8 or arr.ndim != 2:
        raise TypeError(f"expected a 2-D uint8 array, got {arr.dtype} ndim={arr.ndim}")
    n_rows, width = arr.shape
    if n_rows == 0 or width == 0:
        return np.zeros(n_rows, dtype=np.uint32)
    return _rows_crc(arr)


def crc32c_hex(value: int) -> str:
    """Fixed-width lowercase hex rendering used in manifests and messages."""
    return f"{value & _MASK:08x}"
