"""The ``.rsym`` on-disk format: columnar, bit-packed, memory-mapped symbols.

Layout (all integers little-endian)::

    offset 0   magic  b"RSYMSTR1"
    offset 8   payload — one bit-packed column per stored row/meter, each
               starting on a byte boundary; RLE stores append one flat
               ``uint32`` run-length array after the last column
    ...        uint32 CRC32C of the header bytes (version >= 2)
    ...        header — JSON (sorted keys), so the same appends always
               produce the same bytes
    ...        uint64 header length
    end - 8    magic  b"RSYMEND1"

The header lives at the *end* of the file (like a zip central directory) so
a writer can stream columns shard by shard without knowing counts or table
payloads up front — a million-meter fleet is encoded and persisted without
ever materialising the fleet's index matrix, and finalised with one footer
write.  Readers memory-map the file (``np.memmap``) and decode any
meter/window slice lazily: a slice touches only the bytes covering its bit
range (see :func:`~repro.store.packing.unpack_slice`).

Two payload layouts:

``dense``
    Column ``i`` is ``counts[i]`` symbols packed at ``bits_per_symbol`` bits
    starting at ``offsets[i]`` — exactly the paper's ``ceil(log2(k))`` bits
    per symbol accounting, as real bytes.

``rle``
    Column ``i`` is its ``run_counts[i]`` run *values* packed the same way;
    all columns' run lengths form one ``uint32`` array at ``lengths_offset``
    (the flat :class:`~repro.pipeline.stages.RLERuns` container, persisted).

Serialized :class:`~repro.core.lookup.LookupTable`\\ s ride along in the
header (shared, per-column, or per-label), so a store is self-contained:
``decode()`` reproduces the in-memory ``FleetEncoder.encode -> decode``
reconstruction bit for bit.

Durability (format version 2): every column payload (and the RLE length
array) carries a CRC32C in the header's ``checksums`` block, and the header
itself is covered by the ``uint32`` CRC written just before it — the header's
byte position is unchanged from version 1, so one parse discovers the version
and then knows whether those four bytes are a checksum.  Writers stream into
``<name>.tmp`` and commit with flush → fsync → atomic rename → directory
fsync; a failure before the rename leaves the final path untouched, and
non-crash failures unlink the temp (:meth:`SymbolStoreWriter.abort`).  Readers
verify checksums lazily on first access (``verify="lazy"``, the default),
eagerly at open (``"eager"``), or not at all (``"off"``); every detected
mismatch raises :class:`~repro.errors.CorruptStoreError` with structured
diagnostics.  Version-1 files (no checksums) still open fine — verification
just has nothing to check.  All writer I/O routes through
:mod:`repro.store.faults`, the injectable seam the fault-matrix tests drive.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import struct
import threading
from itertools import groupby
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.lookup import LookupTable, deserialize_tables, serialize_tables
from ..errors import CorruptStoreError, StoreError
from ..obs import registry as _obs_registry
from ..pipeline.stages import RLERuns
from . import faults
from .checksum import ALGORITHM, crc32c, crc32c_hex, crc32c_rows
from .packing import (
    bits_for_alphabet,
    pack_indices,
    packed_nbytes,
    slice_byte_window,
    symbol_dtype,
    unpack_columns,
    unpack_slice,
)

__all__ = ["SymbolStoreWriter", "DENSE", "RLE", "pack_columns"]

MAGIC_HEAD = b"RSYMSTR1"
MAGIC_TAIL = b"RSYMEND1"
VERSION = 2
#: Readable versions: 1 (no checksums) and 2 (CRC32C columns + header).
SUPPORTED_VERSIONS = (1, 2)

DENSE = "dense"
RLE = "rle"

_LENGTH_DTYPE = np.dtype("<u4")

#: Guards every segment's holder count: snapshots open and close on
#: different server threads.
_HOLDERS_LOCK = threading.Lock()

#: madvise flags by name, resolved lazily (absent on some platforms).
_MADVISE_FLAGS = {
    "willneed": "MADV_WILLNEED",
    "sequential": "MADV_SEQUENTIAL",
    "random": "MADV_RANDOM",
}


def _advise_mmap(raw: np.ndarray, advice: str) -> bool:
    """Best-effort ``madvise`` hint on a ``np.memmap``'s underlying mapping.

    Returns whether the hint was actually issued — callers never depend on
    it (page-cache advice cannot change decoded bytes), so every failure
    path degrades to "no hint".
    """
    flag = getattr(_mmap, _MADVISE_FLAGS.get(advice, ""), None)
    mapping = getattr(raw, "_mmap", None)
    if flag is None or mapping is None:
        return False
    try:
        mapping.madvise(flag)
    except (AttributeError, OSError, ValueError):
        return False
    return True


def _expected_payload_nbytes(header: Dict) -> Optional[int]:
    """Payload size the header implies, or ``None`` if it cannot be derived.

    Catches mid-file excision/garbage that leaves the footer intact: the
    column offsets and counts pin the exact payload extent, so any
    disagreement with the actual byte count is corruption even before a
    single checksum is computed.
    """
    try:
        bits = int(header["bits_per_symbol"])
        offsets = header["offsets"]
        if header["layout"] == RLE:
            total_runs = int(np.sum(np.asarray(header["run_counts"], dtype=np.int64)))
            return int(header["lengths_offset"]) + total_runs * _LENGTH_DTYPE.itemsize
        if not offsets:
            return 0
        return int(offsets[-1]) + packed_nbytes(int(header["counts"][-1]), bits)
    except (KeyError, IndexError, TypeError, ValueError):
        return None


def _window_bounds(width: int, window_range: Optional[tuple]) -> Tuple[int, int]:
    """``window_range`` clipped to ``[0, width]`` (``None`` = everything)."""
    start, stop = (0, width) if window_range is None else window_range
    start = max(0, int(start))
    stop = width if stop is None else min(int(stop), width)
    return start, stop


def pack_columns(matrix: np.ndarray, bits: int, layout: str) -> List[tuple]:
    """``(payload, count, run_lengths_or_None)`` per row of a symbol matrix.

    The packing half of every writer: dense rows pack with one vectorized
    call, RLE rows run-length encode with one :meth:`RLERuns.from_matrix`
    pass.  Each row's bytes depend only on that row, so shards packed in
    worker processes and merged in task order give byte-identical files.
    """
    width = matrix.shape[1]
    if layout == DENSE:
        packed = pack_indices(matrix, bits)
        return [(packed[row].tobytes(), width, None) for row in range(matrix.shape[0])]
    runs = RLERuns.from_matrix(matrix)
    columns = []
    for row in range(matrix.shape[0]):
        lo, hi = int(runs.offsets[row]), int(runs.offsets[row + 1])
        columns.append((
            pack_indices(runs.values[lo:hi], bits).tobytes(),
            width,
            runs.run_lengths[lo:hi],
        ))
    return columns


def _payload_crcs(payloads: Sequence[bytes]) -> List[int]:
    """CRC32C of each payload: one row-kernel call when the widths agree."""
    width = len(payloads[0]) if payloads else 0
    if width and all(len(payload) == width for payload in payloads):
        rows = np.frombuffer(b"".join(payloads), dtype=np.uint8)
        return crc32c_rows(rows.reshape(len(payloads), width)).tolist()
    return [crc32c(payload) for payload in payloads]


class SymbolStoreWriter:
    """Streaming writer for ``.rsym`` stores (one column per append).

    Columns are packed and written immediately, so memory stays bounded by
    one shard regardless of fleet size.  The header/footer is written by
    :meth:`close` (or the context manager).

    Parameters
    ----------
    path:
        Output file.
    alphabet_size:
        Symbol count ``k``; symbols pack to ``ceil(log2(k))`` bits.
    layout:
        ``"dense"`` or ``"rle"``.
    tables:
        A single shared :class:`LookupTable`, a ``{label: table}`` dict
        (day-vector stores), or ``None``; per-column tables are passed to
        :meth:`append` instead.
    metadata:
        Free-form JSON-able dict (aggregation window, encoding config, ...).
    """

    def __init__(
        self,
        path: Union[str, Path],
        alphabet_size: int,
        layout: str = DENSE,
        tables: Union[LookupTable, Dict[str, LookupTable], None] = None,
        metadata: Optional[Dict] = None,
    ) -> None:
        if layout not in (DENSE, RLE):
            raise StoreError(f"layout must be {DENSE!r} or {RLE!r}, got {layout!r}")
        if isinstance(tables, (list, tuple)):
            raise StoreError(
                "pass per-column tables to append(..., table=...), not the writer"
            )
        self.path = Path(path)
        self.alphabet_size = int(alphabet_size)
        self.bits_per_symbol = bits_for_alphabet(self.alphabet_size)
        self.layout = layout
        self.metadata = dict(metadata or {})
        self._shared_or_label_tables = tables
        self._column_tables: List[Dict] = []
        self._ids: List = []
        self._labels: List[Optional[str]] = []
        self._counts: List[int] = []
        self._offsets: List[int] = []
        self._column_crcs: List[int] = []
        self._runs_per_column: List[int] = []
        self._length_chunks: List[np.ndarray] = []
        self._position = 0
        self._closed = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Stream into a sibling temp file and os.replace() it into place at
        # close: an interrupted write can never leave a truncated store at
        # the final path (which would poison exists()-based store caches).
        self._temp_path = self.path.with_name(self.path.name + ".tmp")
        self._handle = self._temp_path.open("wb")
        self._handle.write(MAGIC_HEAD)

    # -- appending ---------------------------------------------------------------

    def append(
        self,
        column_id,
        indices: np.ndarray,
        table: Optional[LookupTable] = None,
        label: Optional[str] = None,
    ) -> None:
        """Pack and write one column of symbol indices."""
        arr = np.asarray(indices, dtype=np.int64).ravel()
        self.append_matrix(
            [column_id], arr.reshape(1, arr.size), tables=[table], labels=[label]
        )

    def append_matrix(
        self,
        column_ids: Sequence,
        indices: np.ndarray,
        tables: Optional[Sequence[LookupTable]] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        """Write a whole ``(rows, windows)`` shard with one vectorized pack.

        Dense shards pack every row in a single ``np.packbits`` call; RLE
        shards run-length encode the shard with one
        :meth:`RLERuns.from_matrix` pass (see :func:`pack_columns`).
        """
        matrix = np.asarray(indices, dtype=np.int64)
        if matrix.ndim != 2:
            raise StoreError(f"expected a 2-D shard, got shape {matrix.shape}")
        ids = list(column_ids)
        if len(ids) != matrix.shape[0]:
            raise StoreError(f"{len(ids)} ids for {matrix.shape[0]} rows")
        if matrix.size and (matrix.min() < 0 or matrix.max() >= self.alphabet_size):
            raise StoreError(
                f"symbol indices out of range for alphabet of size "
                f"{self.alphabet_size}"
            )
        table_list = list(tables) if tables is not None else [None] * len(ids)
        label_list = list(labels) if labels is not None else [None] * len(ids)
        if len(table_list) != len(ids) or len(label_list) != len(ids):
            raise StoreError("tables/labels must match the number of rows")
        self.append_columns(
            ids, pack_columns(matrix, self.bits_per_symbol, self.layout),
            tables=table_list, labels=label_list,
        )

    def append_columns(
        self,
        column_ids: Sequence,
        columns: Sequence[tuple],
        tables: Optional[Sequence[Optional[LookupTable]]] = None,
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        """Write already-packed :func:`pack_columns` output, in row order.

        The batch's column CRCs come from one :func:`crc32c_rows` call when
        the payloads share a width (every dense shard does), else from one
        :func:`crc32c` call per column.
        """
        crcs = _payload_crcs([payload for payload, _, _ in columns])
        for row, (payload, count, run_lengths) in enumerate(columns):
            table = tables[row] if tables is not None else None
            label = labels[row] if labels is not None else None
            if self.layout == DENSE:
                self._append_packed(
                    column_ids[row], payload, count, table, label, crcs[row]
                )
            else:
                self._append_runs(
                    column_ids[row], payload, run_lengths, count, table, label,
                    crcs[row],
                )

    def _append_packed(
        self, column_id, payload: bytes, count: int,
        table: Optional[LookupTable], label: Optional[str], crc: int,
    ) -> None:
        """Write an already-packed dense column whose CRC32C is ``crc``."""
        expected = packed_nbytes(count, self.bits_per_symbol)
        if len(payload) != expected:
            raise StoreError(
                f"packed column of {count} symbols must be {expected} bytes, "
                f"got {len(payload)}"
            )
        self._append_payload(column_id, payload, count, table, label, crc)

    def _append_runs(
        self, column_id, packed_values: bytes, run_lengths: np.ndarray,
        count: int, table: Optional[LookupTable], label: Optional[str], crc: int,
    ) -> None:
        """Write one RLE column (CRC32C ``crc``): run values now, lengths at close."""
        lengths = np.asarray(run_lengths, dtype=np.int64).ravel()
        if int(lengths.sum()) != int(count):
            raise StoreError(
                f"run lengths sum to {int(lengths.sum())}, expected {count}"
            )
        if lengths.size and int(lengths.max()) > np.iinfo(_LENGTH_DTYPE).max:
            raise StoreError("run length exceeds the uint32 on-disk range")
        expected = packed_nbytes(lengths.size, self.bits_per_symbol)
        if len(packed_values) != expected:
            raise StoreError(
                f"packed run values of {lengths.size} runs must be "
                f"{expected} bytes, got {len(packed_values)}"
            )
        self._runs_per_column.append(int(lengths.size))
        self._length_chunks.append(lengths.astype(_LENGTH_DTYPE))
        self._append_payload(column_id, packed_values, count, table, label, crc)

    def _append_payload(
        self, column_id, payload: bytes, count: int,
        table: Optional[LookupTable], label: Optional[str], crc: int,
    ) -> None:
        if self._closed:
            raise StoreError("writer is closed")
        if table is not None:
            if self._shared_or_label_tables is not None:
                raise StoreError("cannot mix per-column tables with shared tables")
            if len(self._column_tables) != len(self._ids):
                raise StoreError("either every column carries a table or none does")
            self._column_tables.append(table.to_dict())
        elif self._column_tables:
            raise StoreError("either every column carries a table or none does")
        self._ids.append(column_id)
        self._labels.append(label)
        self._counts.append(int(count))
        self._offsets.append(self._position)
        self._column_crcs.append(int(crc))
        self._write(payload)
        self._position += len(payload)

    def _write(self, data: bytes) -> None:
        try:
            faults.write(self._handle, data)
        except faults.InjectedCrash:
            # Simulated process death: the temp file stays behind, exactly
            # like the kernel would leave it — scrub's problem, not ours.
            self._closed = True
            raise
        except OSError:
            self.abort()
            raise

    # -- finalisation ------------------------------------------------------------

    def close(self) -> Path:
        """Commit: run lengths (RLE), checksummed header, fsync, rename.

        The sequence is write-temp → flush → fsync → ``os.replace`` →
        directory fsync, so a failure at any byte before the rename leaves
        the final path exactly as it was.  Non-crash failures unlink the
        temp; an :class:`~repro.store.faults.InjectedCrash` leaves it (that
        is the point).
        """
        if self._closed:
            return self.path
        try:
            return self._finalize()
        except faults.InjectedCrash:
            self._closed = True
            raise
        except BaseException:
            self.abort()
            raise

    def _finalize(self) -> Path:
        checksums: Dict = {"algorithm": ALGORITHM, "columns": self._column_crcs}
        header = {
            "version": VERSION,
            "layout": self.layout,
            "alphabet_size": self.alphabet_size,
            "bits_per_symbol": self.bits_per_symbol,
            "ids": self._ids,
            "labels": self._labels if any(l is not None for l in self._labels) else None,
            "counts": self._counts,
            "offsets": self._offsets,
            "checksums": checksums,
            "tables": (
                {"per_column": self._column_tables} if self._column_tables
                else serialize_tables(self._shared_or_label_tables)
            ),
            "metadata": self.metadata,
        }
        if self.layout == RLE:
            header["run_counts"] = self._runs_per_column
            header["lengths_offset"] = self._position
            lengths = (
                np.concatenate(self._length_chunks)
                if self._length_chunks else np.zeros(0, dtype=_LENGTH_DTYPE)
            )
            lengths_bytes = lengths.tobytes()
            checksums["lengths"] = crc32c(lengths_bytes)
            faults.write(self._handle, lengths_bytes)
            self._position += len(lengths_bytes)
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        faults.write(self._handle, struct.pack("<I", crc32c(encoded)))
        faults.write(self._handle, encoded)
        faults.write(self._handle, struct.pack("<Q", len(encoded)))
        faults.write(self._handle, MAGIC_TAIL)
        faults.fsync(self._handle, "store.before_fsync")
        self._handle.close()
        faults.replace(self._temp_path, self.path, "store")
        faults.fsync_dir(self.path.parent)
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Discard the write: close and unlink the temp, never touch the path."""
        if self._closed:
            return
        self._closed = True
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            self._temp_path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "SymbolStoreWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.close()
        elif isinstance(exc_type, type) and issubclass(exc_type, faults.InjectedCrash):
            # Simulated process death: leave the temp exactly as written.
            self._closed = True
            try:
                self._handle.close()
            except OSError:
                pass
        else:  # drop the partial temp file; the final path is never touched
            self.abort()

    def __del__(self) -> None:
        # Safety net for non-context-manager use: a writer dropped after an
        # error must not leak its temp file onto disk.
        try:
            if not getattr(self, "_closed", True):
                self.abort()
        except Exception:
            pass


class _Segment:
    """One ``.rsym`` file: validated header, checksums, column reads.

    The private primitive under :class:`~repro.store.SymbolStore`, which
    assembles one or more segments into a store; every read here takes
    column *positions* (``None`` = all columns), never ids.  Decoding a
    slice touches only that slice's pages of the memory map.  Snapshots of
    one store share an unchanged segment: each holds it (:meth:`acquire`),
    and the map is released when the last holder closes it.
    """

    def __init__(
        self, path: Path, header: Dict, payload: np.ndarray, verify: str = "lazy"
    ) -> None:
        self.path = path
        self._header = header
        # A plain ndarray view of the map: ``np.memmap``'s Python-level
        # ``__getitem__`` costs more than a small column gather.
        self._payload = payload.view(np.ndarray)
        self.layout: str = header["layout"]
        self.alphabet_size: int = int(header["alphabet_size"])
        self.bits_per_symbol: int = int(header["bits_per_symbol"])
        self.ids: List = list(header["ids"])
        self.labels: Optional[List[str]] = header.get("labels")
        self.counts = np.asarray(header["counts"], dtype=np.int64)
        self.offsets = np.asarray(header["offsets"], dtype=np.int64)
        self.metadata: Dict = header.get("metadata") or {}
        self._tables = deserialize_tables(header.get("tables"))
        checksums = header.get("checksums") or {}
        columns_crc = checksums.get("columns")
        self._column_crcs = (
            np.asarray(columns_crc, dtype=np.int64) if columns_crc is not None else None
        )
        self._lengths_crc = checksums.get("lengths")
        self._verify_mode = verify if self._column_crcs is not None else "off"
        self.rearm()
        self._holders = 1
        self._m_reads = None
        # Dense equal-width columns sit back to back: view them as a grid.
        self._grid: Optional[np.ndarray] = None
        n = len(self.ids)
        row = packed_nbytes(int(self.counts[0]), self.bits_per_symbol) if n else 0
        if (
            self.layout == DENSE and n
            and np.all(self.counts == self.counts[0])
            and np.array_equal(self.offsets, np.arange(n) * row)
        ):
            self._grid = self._payload[: n * row].reshape(n, row)
        if self.layout == RLE:
            self.run_counts = np.asarray(header["run_counts"], dtype=np.int64)
            self._run_offsets = np.concatenate(
                [[0], np.cumsum(self.run_counts)]
            ).astype(np.int64)
            lengths_offset = int(header["lengths_offset"])
            lengths_end = lengths_offset + int(self._run_offsets[-1]) * _LENGTH_DTYPE.itemsize
            self._lengths_bytes = self._payload[lengths_offset:lengths_end]
            self._lengths = self._lengths_bytes.view(_LENGTH_DTYPE)

    # -- construction ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        mmap: bool = True,
        prefetch: bool = True,
        verify: str = "lazy",
    ) -> "_Segment":
        """Open a segment, memory-mapped (default) or fully read into memory.

        Both modes decode to bit-identical arrays — the parity tests pin it.
        ``prefetch`` issues ``madvise(MADV_WILLNEED)`` on the mapping so a
        cold store's pages stream in ahead of the first decode instead of
        faulting one 4 KiB page per read; it is a hint only and a no-op on
        platforms without ``madvise``.

        ``verify`` controls checksum checking on version-2 stores:
        ``"lazy"`` (default) verifies each column's CRC32C on first access,
        ``"off"`` skips payload verification entirely, and ``"eager"`` reads
        like ``"lazy"`` here: :meth:`~repro.store.SymbolStore.open` runs the
        eager pass itself, pooled across every segment it opens
        (:func:`verify_segments`).  The header structure (magics, length,
        header CRC) is always validated; any failure raises
        :class:`~repro.errors.CorruptStoreError` with structured diagnostics.
        """
        path = Path(path)
        if verify not in ("lazy", "eager", "off"):
            raise StoreError(
                f'verify must be "lazy", "eager" or "off", got {verify!r}'
            )
        if not path.exists():
            raise StoreError(f"no such store: {path}")
        size = path.stat().st_size
        minimum = len(MAGIC_HEAD) + 8 + len(MAGIC_TAIL)
        if size < minimum:
            raise CorruptStoreError(
                f"{path} is {size} bytes, below the {minimum}-byte minimum of "
                f"a symbol store — the write never reached its footer",
                path=path, check="file_size", expected=minimum, actual=size,
                hint="truncated",
            )
        if mmap:
            raw = np.memmap(path, dtype=np.uint8, mode="r")
            if prefetch:
                _advise_mmap(raw, "willneed")
        else:
            raw = np.fromfile(path, dtype=np.uint8)
        head = raw[: len(MAGIC_HEAD)].tobytes()
        if head != MAGIC_HEAD:
            raise CorruptStoreError(
                f"{path} is not a symbol store: head magic {head!r} != "
                f"{MAGIC_HEAD!r}",
                path=path, check="head_magic", expected=MAGIC_HEAD, actual=head,
                hint="not-a-store",
            )
        tail = raw[-len(MAGIC_TAIL):].tobytes()
        if tail != MAGIC_TAIL:
            raise CorruptStoreError(
                f"{path} ends with {tail!r} instead of {MAGIC_TAIL!r}: the "
                f"footer never landed (interrupted write) or the tail bytes "
                f"were overwritten",
                path=path, check="tail_magic", expected=MAGIC_TAIL, actual=tail,
                hint="truncated", detail={"file_size": size},
            )
        (header_len,) = struct.unpack(
            "<Q", raw[-len(MAGIC_TAIL) - 8: -len(MAGIC_TAIL)].tobytes()
        )
        header_start = size - len(MAGIC_TAIL) - 8 - header_len
        if header_start < len(MAGIC_HEAD):
            available = size - len(MAGIC_TAIL) - 8 - len(MAGIC_HEAD)
            raise CorruptStoreError(
                f"{path} declares a {header_len}-byte header but only "
                f"{available} bytes precede the footer — payload lost to "
                f"truncation, or the length field itself is damaged",
                path=path, check="header_length", expected=available,
                actual=header_len, hint="truncated",
                detail={"file_size": size},
            )
        header_bytes = raw[header_start: size - len(MAGIC_TAIL) - 8].tobytes()
        try:
            header = json.loads(header_bytes)
        except ValueError as exc:
            raise CorruptStoreError(
                f"{path} header is not valid JSON ({exc}): the bytes are "
                f"present but damaged — bit-rot or a mid-file overwrite",
                path=path, check="header_json", hint="bit-rot",
                detail={"error": str(exc), "header_nbytes": header_len},
            ) from None
        version = header.get("version")
        if version not in SUPPORTED_VERSIONS:
            raise CorruptStoreError(
                f"{path} has store version {version!r}, expected one of "
                f"{SUPPORTED_VERSIONS}",
                path=path, check="version", expected=SUPPORTED_VERSIONS,
                actual=version,
            )
        payload_end = header_start
        if version >= 2:
            (stored_crc,) = struct.unpack(
                "<I", raw[header_start - 4: header_start].tobytes()
            )
            actual_crc = crc32c(header_bytes)
            if actual_crc != stored_crc:
                raise CorruptStoreError(
                    f"{path} header checksum mismatch: stored "
                    f"{crc32c_hex(stored_crc)}, computed "
                    f"{crc32c_hex(actual_crc)} — bit-rot in the header region",
                    path=path, check="header_crc",
                    expected=crc32c_hex(stored_crc),
                    actual=crc32c_hex(actual_crc), hint="bit-rot",
                )
            payload_end = header_start - 4
        payload = raw[len(MAGIC_HEAD): payload_end]
        expected_payload = _expected_payload_nbytes(header)
        if expected_payload is not None and int(payload.size) != expected_payload:
            actual_payload = int(payload.size)
            raise CorruptStoreError(
                f"{path} holds {actual_payload} payload bytes but the header "
                f"accounts for {expected_payload} — part of the payload is "
                f"{'missing' if actual_payload < expected_payload else 'excess'}",
                path=path, check="file_size", expected=expected_payload,
                actual=actual_payload,
                hint="truncated" if actual_payload < expected_payload else "bit-rot",
                detail={"file_size": size},
            )
        return cls(path, header, payload, verify=verify)

    def acquire(self) -> bool:
        """Hold this open segment once more; ``False`` if it is closed."""
        with _HOLDERS_LOCK:
            if not self._holders:
                return False
            self._holders += 1
            return True

    def close(self) -> None:
        """Drop one holder; the last drops the payload references, which
        releases the memory map."""
        with _HOLDERS_LOCK:
            self._holders = max(0, self._holders - 1)
            if self._holders:
                return
        self._payload = np.zeros(0, dtype=np.uint8)
        self._grid = None
        if self.layout == RLE:
            self._lengths_bytes = self._payload
            self._lengths = self._payload.view(_LENGTH_DTYPE)

    def rearm(self) -> None:
        """Forget which checksums passed, so each column is verified again
        on its next read, as after a fresh open."""
        self._verified = np.zeros(len(self.ids), dtype=bool)
        self._all_verified = self._column_crcs is None
        self._lengths_verified = False

    # -- sizes -------------------------------------------------------------------

    @property
    def n_meters(self) -> int:
        """Number of stored columns (meters, or day-vector rows)."""
        return len(self.ids)

    @property
    def payload_nbytes(self) -> int:
        """Bytes of packed symbol payload (incl. RLE run lengths)."""
        return int(self._payload.size)

    @property
    def file_nbytes(self) -> int:
        """Total file size (payload + header + magics)."""
        return int(self.path.stat().st_size)

    @property
    def tables(self) -> Union[LookupTable, List[LookupTable], Dict[str, LookupTable], None]:
        """The deserialized lookup tables (shared / per-column / by-label)."""
        return self._tables

    @property
    def shared_table(self) -> Optional[LookupTable]:
        """The single global table, if this segment has one."""
        return self._tables if isinstance(self._tables, LookupTable) else None

    # -- checksum verification ---------------------------------------------------

    @property
    def checksummed(self) -> bool:
        """Whether this store carries payload checksums (format version 2)."""
        return self._column_crcs is not None

    def _column_widths(self, idx: np.ndarray) -> np.ndarray:
        per = self.counts if self.layout == DENSE else self.run_counts
        return (per[idx] * self.bits_per_symbol + 7) // 8

    def _corrupt_column(self, index: int, stored: int, actual: int) -> CorruptStoreError:
        return CorruptStoreError(
            f"{self.path.name} column {self.ids[index]!r} (#{index}) checksum "
            f"mismatch: stored {crc32c_hex(stored)}, computed "
            f"{crc32c_hex(actual)} — payload bytes bit-rotted",
            path=self.path, check="column_crc", expected=crc32c_hex(stored),
            actual=crc32c_hex(actual), hint="bit-rot",
            detail={"column": int(index), "id": self.ids[index]},
        )

    def _verify_lengths(self) -> None:
        """Check the RLE run-length array's CRC32C (once)."""
        if self._lengths_crc is None or self._lengths_verified:
            return
        actual = crc32c(np.ascontiguousarray(self._lengths_bytes))
        stored = int(self._lengths_crc)
        if actual != stored:
            raise CorruptStoreError(
                f"{self.path.name} run-length array checksum mismatch: stored "
                f"{crc32c_hex(stored)}, computed {crc32c_hex(actual)} — the "
                f"RLE lengths are bit-rotted",
                path=self.path, check="lengths_crc", expected=crc32c_hex(stored),
                actual=crc32c_hex(actual), hint="bit-rot",
            )
        self._lengths_verified = True

    def verify(self, strict: bool = True) -> Dict:
        """Check every stored checksum now; return a report dict.

        The report carries ``checksummed`` (version-1 stores have nothing to
        check), ``columns_checked``, ``payload_nbytes`` and ``errors`` (a
        list of :class:`~repro.errors.CorruptStoreError`, one per damaged
        column).  With ``strict`` the first failure raises instead.
        Verified columns are cached, so a clean ``verify()`` makes all
        subsequent reads checksum-free.
        """
        return self._report(verify_segments([self])[0], strict)

    def _report(self, errors: List[CorruptStoreError], strict: bool) -> Dict:
        """The :meth:`verify` report for this segment's ``errors``."""
        if strict and errors:
            raise errors[0]
        return {
            "path": str(self.path),
            "checksummed": self.checksummed,
            "algorithm": ALGORITHM if self.checksummed else None,
            "columns_checked": self.n_meters if self.checksummed else 0,
            "payload_nbytes": self.payload_nbytes,
            "errors": errors,
            "ok": not errors,
        }

    # -- reading -----------------------------------------------------------------

    def runs_block(self, columns: Sequence[int]) -> RLERuns:
        """Runs of the column positions ``columns``, in order, as one flat block.

        RLE columns hand out their stored runs: one :func:`unpack_columns`
        decode of the block's run values and one gather of the length
        array.  Dense columns decode with one :meth:`matrix` gather and run
        one :meth:`RLERuns.from_matrix` pass; columns of different lengths
        (a bare file) decode with one :func:`unpack_columns` call and one
        :meth:`RLERuns.from_flat` pass instead, since a matrix would pad
        every column to the longest.  Every read is CRC-verified.
        """
        cols = np.asarray(columns, dtype=np.int64).reshape(-1)
        widths = self.counts[cols] if self.layout == DENSE else self.run_counts[cols]
        if self.layout == DENSE and np.all(widths == widths[:1]):
            return RLERuns.from_matrix(self.matrix(columns=cols))
        if self._verify_mode != "off":
            self._verify_lengths()
        _verify_pieces([(self, cols)])
        symbols = unpack_columns(
            self._payload, self.offsets[cols] * 8, widths, self.bits_per_symbol
        )
        offsets = np.concatenate([[0], np.cumsum(widths)])
        if self.layout == DENSE:
            return RLERuns.from_flat(symbols, offsets)
        at = np.repeat(self._run_offsets[cols] - offsets[:-1], widths)
        at += np.arange(offsets[-1], dtype=np.int64)
        lengths = self._lengths[at].astype(np.int64)
        return RLERuns(symbols.astype(np.int64), lengths, offsets)

    #: Most columns one run or verify pass decodes at once — bounds memory
    #: to one block, keeping the read path out-of-core.
    _RUN_SCAN_BLOCK = 4096

    def matrix(
        self,
        columns: Optional[Sequence[int]] = None,
        window_range: Optional[tuple] = None,
    ) -> np.ndarray:
        """Index matrix ``(len(columns), windows)`` for equal-length columns:
        the one-segment case of :func:`read_spans`."""
        cols = (
            np.arange(self.n_meters, dtype=np.int64) if columns is None
            else np.asarray(columns, dtype=np.int64)
        )
        if not cols.size:
            return np.empty((0, 0), dtype=np.int64)
        counts = self.counts[cols]
        if np.any(counts != counts[0]):
            raise StoreError(
                "columns have different symbol counts; read them one by one "
                "with indices()"
            )
        start, stop = _window_bounds(int(counts[0]), window_range)
        if stop <= start:
            return np.empty((cols.size, 0), dtype=symbol_dtype(self.bits_per_symbol))
        return read_spans([(self, start, stop)], cols)

    def _rows(self, cols: np.ndarray, first_byte: int, nbytes: int) -> np.ndarray:
        """Bytes ``[first_byte, first_byte + nbytes)`` of each column's
        payload, one row per column of ``cols`` (no checksum check).

        A dense segment's payload is a ``(columns, row bytes)`` grid: an
        adjacent run of columns reads as a view of it, any other list as
        one row gather.  Columns of different widths gather every byte.
        """
        if self._grid is None:
            return self._payload[
                (self.offsets[cols] + first_byte)[:, None]
                + np.arange(nbytes, dtype=np.int64)
            ]
        window = slice(first_byte, first_byte + nbytes)
        first, n = int(cols[0]), cols.size
        if n > 1 and int(cols[-1]) - first == n - 1 and (cols[1:] - cols[:-1] == 1).all():
            return self._grid[first: first + n, window]
        return self._grid[cols, window]

    def _packed_window(
        self, cols: np.ndarray, first_byte: int, nbytes: int
    ) -> np.ndarray:
        """:meth:`_rows` for a dense segment's share of a :func:`read_spans`
        read, whose checksums :func:`read_spans` has verified first."""
        return self._rows(cols, first_byte, nbytes)

    def _expand(self, cols: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Windows ``[start, stop)`` of equal-length RLE columns: the stored
        runs expanded."""
        runs = self.runs_block(cols)
        narrow = runs.values.astype(symbol_dtype(self.bits_per_symbol))
        expanded = np.repeat(narrow, runs.run_lengths)
        return expanded.reshape(cols.size, int(self.counts[cols[0]]))[:, start:stop]

    @property
    def reads(self):
        """This segment's ``store.segment_reads_total`` counter, resolved
        once (a lookup by name and label costs more than the increment)."""
        if self._m_reads is None:
            self._m_reads = _obs_registry().counter(
                "store.segment_reads_total", "Per-segment payload reads",
                segment=self.path.name,
            )
        return self._m_reads

    def values(self, matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Reconstruction values of a symbol ``matrix`` whose rows are
        ``columns``, under this segment's own tables (bit-identical to
        ``FleetEncoder.decode``)."""
        tables = self._tables
        if tables is None:
            raise StoreError(f"{self.path.name} carries no lookup tables")
        if isinstance(tables, LookupTable):
            return tables.values_for_indices(matrix)
        if isinstance(tables, dict):
            if self.labels is None:
                raise StoreError("by-label tables require stored labels")
            recon = np.stack(
                [tables[self.labels[c]].reconstruction_array for c in columns]
            )
        else:
            recon = np.stack([tables[c].reconstruction_array for c in columns])
        if matrix.size and (
            matrix.min() < 0 or matrix.max() >= self.alphabet_size
        ):
            raise StoreError(
                f"symbol indices out of range for alphabet of size "
                f"{self.alphabet_size}"
            )
        return np.take_along_axis(recon, matrix, axis=1)


def read_spans(
    spans: Sequence[Tuple[_Segment, int, int]], cols: np.ndarray
) -> np.ndarray:
    """Symbols of column positions ``cols`` over ``spans`` as one matrix.

    ``spans`` are ``(segment, lo, hi)`` window ranges, concatenated left to
    right.  The columns' unverified checksums in every dense segment are
    checked first, in one :func:`_check_columns` pass pooled across the
    segments.  Each dense segment then gathers the packed bytes of the
    columns' window, the gathers of each run of consecutive segments whose
    windows have the same shape stack into one buffer, and that buffer
    decodes with one :func:`unpack_slice` call: a read across many segments
    costs one kernel call, not one per segment.  RLE segments expand their
    stored runs.
    """
    _verify_pieces([(seg, cols) for seg, _, _ in spans if seg.layout != RLE])
    parts = []
    for shape, group in groupby(spans, key=_window_shape):
        group = list(group)
        if shape is None:
            parts.extend(seg._expand(cols, lo, hi) for seg, lo, hi in group)
            continue
        nbytes, lead, count = shape
        bits = group[0][0].bits_per_symbol
        windows = [
            seg._packed_window(cols, slice_byte_window(bits, lo, hi)[0], nbytes)
            for seg, lo, hi in group
        ]
        packed = (
            windows[0] if len(windows) == 1
            else np.stack(windows, axis=1).reshape(-1, nbytes)
        )
        symbols = unpack_slice(packed, bits, lead, lead + count)
        parts.append(symbols.reshape(cols.size, len(group) * count))
    return parts[0] if len(parts) == 1 else np.hstack(parts)


def _verify_pieces(pieces: Sequence[Tuple[_Segment, np.ndarray]]) -> None:
    """Check the unverified checksums of ``(segment, columns)`` pieces in one
    :func:`_check_columns` pass; raise on damage.

    One mask lookup per piece finds whether any column is still pending, so
    a read of verified columns (or of a segment opened with ``verify="off"``)
    pays no checksum work.  The first damaged column, lowest piece first,
    then lowest column, raises its :class:`~repro.errors.CorruptStoreError`.
    """
    pending = [
        (segment, columns) for segment, columns in pieces
        if segment._verify_mode != "off" and not segment._all_verified
        and not segment._verified[columns].all()
    ]
    if not pending:
        return
    bad = _check_columns(pending)
    if bad:
        piece, column, actual = bad[0]
        segment = pending[piece][0]
        raise segment._corrupt_column(
            column, int(segment._column_crcs[column]), actual
        )


def _window_shape(span: Tuple[_Segment, int, int]) -> Optional[Tuple[int, int, int]]:
    """``(nbytes, lead, count)`` of a dense span's packed window (``None``
    for an RLE span): consecutive spans of one shape decode together."""
    segment, lo, hi = span
    if segment.layout == RLE:
        return None
    first, last, lead = slice_byte_window(segment.bits_per_symbol, lo, hi)
    return last - first, lead, hi - lo


def verify_segments(segments: Sequence[_Segment]) -> List[List[CorruptStoreError]]:
    """Check every checksum of ``segments`` now; each segment's errors.

    One pass for the whole list: column CRCs pool across segments by
    payload width (:func:`_check_columns`), then each RLE segment checks its
    run-length array.  A segment's errors name its damaged columns, lowest
    first, then a damaged length array.  Verified columns are cached, so
    later reads are checksum-free.
    """
    errors: List[List[CorruptStoreError]] = [[] for _ in segments]
    pieces = [(seg, np.arange(seg.n_meters, dtype=np.int64)) for seg in segments]
    for piece, column, actual in _check_columns(pieces):
        segment = segments[piece]
        errors[piece].append(segment._corrupt_column(
            column, int(segment._column_crcs[column]), actual
        ))
    for segment, found in zip(segments, errors):
        if segment.layout == RLE:
            try:
                segment._verify_lengths()
            except CorruptStoreError as exc:
                found.append(exc)
    return errors


def _check_columns(
    pieces: Sequence[Tuple[_Segment, np.ndarray]]
) -> List[Tuple[int, int, int]]:
    """CRC32C-check the unverified columns of ``(segment, columns)`` pieces.

    Columns of one payload width pool across pieces into
    :func:`crc32c_rows` calls of at most ``_Segment._RUN_SCAN_BLOCK`` rows,
    so a store's eager pass is a few row-kernel calls however many segments
    it spans, and memory holds one call's rows.  Good columns are cached as
    verified.  Returns ``(piece, column, actual_crc)`` per mismatch, in
    piece and column order.
    """
    by_width: Dict[int, List[Tuple[int, _Segment, np.ndarray]]] = {}
    checked = 0
    for piece, (segment, columns) in enumerate(pieces):
        if segment._column_crcs is None:
            continue
        cols = np.asarray(columns, dtype=np.int64)
        cols = cols[~segment._verified[cols]]
        checked += cols.size
        widths = segment._column_widths(cols)
        for width in np.unique(widths).tolist():
            by_width.setdefault(width, []).append(
                (piece, segment, cols[widths == width])
            )
    if checked:
        _obs_registry().counter(
            "store.checksum_verifies_total",
            "Column payload CRC32C verifications",
        ).inc(checked)
    bad = []
    for width, group in by_width.items():
        for batch in _row_batches(group, _Segment._RUN_SCAN_BLOCK):
            actual = crc32c_rows(np.concatenate(
                [segment._rows(cols, 0, width) for _, segment, cols in batch]
            ))
            at = 0
            for piece, segment, cols in batch:
                got = actual[at: at + cols.size]
                at += cols.size
                good = got.astype(np.int64) == segment._column_crcs[cols]
                segment._verified[cols[good]] = True
                segment._all_verified = bool(segment._verified.all())
                bad.extend(
                    (piece, int(c), int(a)) for c, a in zip(cols[~good], got[~good])
                )
    return sorted(bad)


def _row_batches(group: List[Tuple], limit: int) -> Iterator[List[Tuple]]:
    """``(piece, segment, columns)`` entries in batches of ``limit`` columns
    (the last one shorter), cutting an entry where a batch fills."""
    batch, size = [], 0
    for piece, segment, cols in group:
        while cols.size:
            part, cols = cols[: limit - size], cols[limit - size:]
            batch.append((piece, segment, part))
            size += part.size
            if size == limit:
                yield batch
                batch, size = [], 0
    if batch:
        yield batch
