"""The ``.rsymx`` sidecar index: banded symbol histograms for pruning.

A query index stores, for every column of a ``.rsym`` store, its symbol
histogram *per time band*, its peak and last symbol and its run count — a
few hundred integers per meter, built in one pass and persisted next to the
store.  The kNN engine turns the banded histograms into a position-aware
lower bound on every candidate's distance with one matrix product
(``sum_b sum_s hist[b, s] * min_{t in band b} bound(q_t, s)^2``), so most
candidates are pruned *before any payload bytes are touched*.

Bands fold the column by the store's ``windows_per_day`` metadata when it is
available (band = time of day), falling back to contiguous segments: smart
meter days sweep low→high levels, so an unbanded histogram would let every
symbol sit near *some* query value and bound nothing — folding by time of
day is what makes the bound bite.  The same histograms give kNN the
tighter band transport bound for each query's frontier (the benchmark pins
< 12 % of candidates decoded per query).  Pattern matching uses the
band-summed histograms to skip columns that lack a pattern's symbols
entirely.  Aggregates read the histograms, peaks and run counts (a run
that continues across a segment boundary counts once); the last symbols
let a reload add an append's runs without decoding the windows before it.

On-disk layout (format version 2) mirrors the ``.rsym`` format
(little-endian, JSON trailer)::

    offset 0   magic  b"RSYMIDX1"
    offset 8   band histograms — (n_meters, n_bands, alphabet_size) cells of
               the header's ``count_dtype`` (uint8, uint16 or uint32)
    ...        peak symbols, last symbols, run counts — three (n_meters,)
               uint32 arrays
    ...        header — JSON (sorted keys)
    ...        uint64 header length
    end - 8    magic  b"RSYMIDXE"

Version 1 stored first/min/max symbols and no run counts;
:meth:`QueryIndex.open` refuses it like any other unreadable sidecar, and
the engine then builds the index in memory at every open until ``repro
query index`` rewrites the file.  The header records the parent store's
fingerprint (meter count, alphabet, symbol count, layout, payload size);
:meth:`QueryIndex.check_store` refuses a stale sidecar instead of silently
pruning with wrong counts.  Files are byte-identical for every ``workers`` count —
every entry is an exact integer merged in task order.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..errors import QueryError
from ..store.segments import SymbolStore

__all__ = [
    "QueryIndex",
    "build_query_index",
    "write_query_index",
    "query_index_path",
]

MAGIC_HEAD = b"RSYMIDX1"
MAGIC_TAIL = b"RSYMIDXE"
VERSION = 2

#: Default time bands per column (3-hour bands for 15-minute windows).
DEFAULT_BANDS = 8

_SYMBOL_DTYPE = np.dtype("<u4")

#: Histogram cells persist at the narrowest width that holds the largest
#: count (1, 2 or 4 bytes) — a week of 15-minute windows needs one byte per
#: (band, symbol) cell, so the sidecar stays a small fraction of the store.
_COUNT_DTYPES = (np.dtype("<u1"), np.dtype("<u2"), np.dtype("<u4"))


#: What every refusal of a sidecar ends with, said once.
_REBUILD = "rebuild it with write_query_index() or 'repro query index'"


def _count_dtype_for(max_count: int) -> np.dtype:
    for dtype in _COUNT_DTYPES:
        if max_count <= np.iinfo(dtype).max:
            return dtype
    raise QueryError(f"histogram count {max_count} exceeds the uint32 range")


def query_index_path(store_path: Union[str, Path]) -> Path:
    """Canonical sidecar path: ``fleet.rsym`` -> ``fleet.rsymx``.

    A segmented store is a *directory*; its sidecar lives inside it
    (``<dir>/index.rsymx``) so the index travels with the segments and the
    scrub pass never mistakes it for a foreign file.
    """
    path = Path(store_path)
    if path.is_dir():
        return path / "index.rsymx"
    if path.suffix:
        return path.with_suffix(path.suffix + "x")
    return path.with_name(path.name + ".rsymx")


def _store_fingerprint(store: SymbolStore) -> Dict:
    return {
        "n_meters": store.n_meters,
        "alphabet_size": store.alphabet_size,
        "n_symbols": store.n_symbols,
        "layout": store.layout,
        "payload_nbytes": store.payload_nbytes,
    }


def band_of_windows(
    count: int, n_bands: int, windows_per_day: Optional[int] = None
) -> np.ndarray:
    """Band index of every window position (folded by day when possible)."""
    t = np.arange(int(count), dtype=np.int64)
    per_day = int(windows_per_day or 0)
    if per_day > 0 and count >= per_day:
        return (t % per_day) * n_bands // per_day
    return t * n_bands // max(1, int(count))


def _store_bands(store: SymbolStore, n_bands: int) -> Optional[int]:
    """The ``windows_per_day`` the bands fold by (``None`` = contiguous)."""
    per_day = store.metadata.get("windows_per_day")
    return int(per_day) if per_day else None


def _shard_stats(
    store: SymbolStore, start: int, stop: int, n_bands: int,
    window_range: Optional[tuple] = None,
) -> tuple:
    """``(band histograms, peaks, run counts, first, last)`` of columns
    ``[start, stop)``: per column its banded histogram, its peak symbol, its
    number of runs and its first and last symbol (all 0 on an empty column).

    ``window_range`` scans only windows ``[lo, hi)`` (``hi > lo``) of
    equal-length columns, each in the band of its absolute position in the
    column: the share those windows add to the whole column's statistics
    (:meth:`QueryIndex.extended` folds it in).
    """
    k = store.alphabet_size
    n = stop - start
    per_day = _store_bands(store, n_bands)
    hist = np.zeros((n, n_bands, k), dtype=np.int64)
    stats = np.zeros((4, n), dtype=np.int64)  # peaks, runs, first, last

    def fill(rows: slice, matrix: np.ndarray, band: np.ndarray) -> None:
        m = matrix.shape[0]
        flat = (np.arange(m)[:, None] * n_bands + band[None, :]) * k + matrix
        hist[rows] = np.bincount(
            flat.ravel(), minlength=m * n_bands * k
        ).reshape(m, n_bands, k)
        runs = 1 + np.count_nonzero(matrix[:, 1:] != matrix[:, :-1], axis=1)
        stats[:, rows] = matrix.max(axis=1), runs, matrix[:, 0], matrix[:, -1]

    counts = store.counts[start:stop]
    if n and np.all(counts == counts[0]) and counts[0] > 0:
        width = int(counts[0])
        lo, hi = (0, width) if window_range is None else window_range
        band = band_of_windows(width, n_bands, per_day)[lo:hi]
        fill(slice(None), store.matrix_block(start, stop, (lo, hi)), band)
    elif window_range is not None:
        raise QueryError("a window range needs non-empty columns of one length")
    else:
        for row, column in enumerate(range(start, stop)):
            indices = store.indices(store.ids[column])
            if indices.size:
                band = band_of_windows(indices.size, n_bands, per_day)
                fill(slice(row, row + 1), indices[None, :], band)
    return (hist, *stats)


class QueryIndex:
    """In-memory form of the sidecar statistics (see the module docstring)."""

    def __init__(
        self,
        band_histograms: np.ndarray,
        max_symbols: np.ndarray,
        run_counts: np.ndarray,
        last_symbols: np.ndarray,
        fingerprint: Dict,
        windows_per_day: Optional[int] = None,
    ) -> None:
        self.band_histograms = np.asarray(band_histograms, dtype=np.int64)
        self.max_symbols = np.asarray(max_symbols, dtype=np.int64)
        self.run_counts = np.asarray(run_counts, dtype=np.int64)
        self.last_symbols = np.asarray(last_symbols, dtype=np.int64)
        self.fingerprint = dict(fingerprint)
        self.windows_per_day = int(windows_per_day) if windows_per_day else None
        if self.band_histograms.ndim != 3:
            raise QueryError(
                f"band histograms must be 3-D, got shape "
                f"{self.band_histograms.shape}"
            )
        self._histograms: Optional[np.ndarray] = None
        self._float_histograms: Optional[np.ndarray] = None

    @property
    def n_meters(self) -> int:
        return self.band_histograms.shape[0]

    @property
    def n_bands(self) -> int:
        return self.band_histograms.shape[1]

    @property
    def alphabet_size(self) -> int:
        return self.band_histograms.shape[2]

    @property
    def histograms(self) -> np.ndarray:
        """Band-summed ``(n_meters, k)`` symbol counts (cached)."""
        if self._histograms is None:
            self._histograms = self.band_histograms.sum(axis=1)
        return self._histograms

    @property
    def float_histograms(self) -> np.ndarray:
        """``(n_meters, n_bands, k)`` histograms as float64 (cached).

        The right-hand operand of the kNN engine's
        :func:`~repro.query.distance.histogram_bound` matmul, materialised
        once per index instead of once per query batch.
        """
        if self._float_histograms is None:
            self._float_histograms = self.band_histograms.astype(np.float64)
        return self._float_histograms

    def extended(self, share: Optional[tuple], store: SymbolStore) -> "QueryIndex":
        """This index for ``store``, whose columns continue this index's
        non-empty columns with windows whose :func:`_shard_stats` are ``share``
        (``None`` when no window was added): band histograms and run counts
        add, peaks fold and last symbols move on.  A run that continues
        across the cut (a stored last symbol equal to the share's first)
        counts once."""
        hist, peaks = self.band_histograms, self.max_symbols
        runs, last = self.run_counts, self.last_symbols
        if share is not None:
            added, top, added_runs, first, last = share
            hist, peaks = hist + added, np.maximum(peaks, top)
            runs = runs + added_runs - (self.last_symbols == first)
        return QueryIndex(
            hist, peaks, runs, last, _store_fingerprint(store),
            windows_per_day=self.windows_per_day,
        )

    def bands_for(self, count: int) -> np.ndarray:
        """Band of every window of a ``count``-long column (query side)."""
        return band_of_windows(count, self.n_bands, self.windows_per_day)

    def check_store(self, store: SymbolStore) -> None:
        """Refuse to prune with statistics from a different/stale store."""
        actual = _store_fingerprint(store)
        if actual != self.fingerprint:
            raise QueryError(
                f"query index is stale for {store.path.name}: index was built "
                f"for {self.fingerprint}, store is {actual}; {_REBUILD}"
            )

    # -- persistence -------------------------------------------------------------

    def write(self, path: Union[str, Path]) -> Path:
        """Persist as a ``.rsymx`` sidecar (deterministic bytes)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        count_dtype = _count_dtype_for(
            int(self.band_histograms.max(initial=0))
        )
        arrays = [
            self.band_histograms.astype(count_dtype),
            self.max_symbols.astype(_SYMBOL_DTYPE),
            self.last_symbols.astype(_SYMBOL_DTYPE),
            self.run_counts.astype(_SYMBOL_DTYPE),
        ]
        header = {
            "version": VERSION,
            "n_meters": self.n_meters,
            "n_bands": self.n_bands,
            "alphabet_size": self.alphabet_size,
            "count_dtype": count_dtype.str,
            "windows_per_day": self.windows_per_day,
            "store": self.fingerprint,
        }
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        temp = path.with_name(path.name + ".tmp")
        with temp.open("wb") as handle:
            handle.write(MAGIC_HEAD)
            for array in arrays:
                handle.write(array.tobytes())
            handle.write(encoded)
            handle.write(struct.pack("<Q", len(encoded)))
            handle.write(MAGIC_TAIL)
        os.replace(temp, path)
        return path

    @classmethod
    def open(cls, path: Union[str, Path]) -> "QueryIndex":
        """Read a sidecar written by :meth:`write`; any file this version
        cannot read raises :class:`QueryError`."""
        path = Path(path)
        if not path.exists():
            raise QueryError(f"no such query index: {path}")

        def unreadable(reason: str) -> QueryError:
            return QueryError(f"{path} {reason}; {_REBUILD}")

        raw = np.fromfile(path, dtype=np.uint8)
        if raw.size < len(MAGIC_HEAD) + 8 + len(MAGIC_TAIL):
            raise unreadable("is too short to be a query index")
        if raw[: len(MAGIC_HEAD)].tobytes() != MAGIC_HEAD:
            raise unreadable("is not a query index (bad magic)")
        if raw[-len(MAGIC_TAIL):].tobytes() != MAGIC_TAIL:
            raise unreadable("is truncated (bad tail magic)")
        (header_len,) = struct.unpack(
            "<Q", raw[-len(MAGIC_TAIL) - 8: -len(MAGIC_TAIL)].tobytes()
        )
        header_start = raw.size - len(MAGIC_TAIL) - 8 - header_len
        if header_start < len(MAGIC_HEAD):
            raise unreadable("has an inconsistent header length")
        try:
            header = json.loads(
                raw[header_start: raw.size - len(MAGIC_TAIL) - 8].tobytes()
            )
            version = header.get("version")
            if version != VERSION:
                raise unreadable(f"has index version {version}, expected {VERSION}")
            n = int(header["n_meters"])
            bands = int(header["n_bands"])
            k = int(header["alphabet_size"])
            count_dtype = np.dtype(header.get("count_dtype", "<u4"))
            fingerprint, per_day = header["store"], header.get("windows_per_day")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise unreadable(f"has a corrupt header: {exc}") from None
        hist_nbytes = n * bands * k * count_dtype.itemsize
        expected = hist_nbytes + 3 * n * _SYMBOL_DTYPE.itemsize
        payload = raw[len(MAGIC_HEAD): header_start]
        if payload.size != expected:
            raise unreadable(f"payload is {payload.size} bytes, expected {expected}")
        hist = payload[:hist_nbytes].view(count_dtype).astype(
            np.int64
        ).reshape(n, bands, k)
        peaks, last, runs = (
            payload[hist_nbytes:].view(_SYMBOL_DTYPE).astype(np.int64).reshape(3, n)
        )
        return cls(hist, peaks, runs, last, fingerprint, windows_per_day=per_day)


def build_query_index(
    store: SymbolStore, workers: int = 1, n_bands: int = DEFAULT_BANDS
) -> QueryIndex:
    """Build the index in memory; ``workers > 1`` shards the column axis.

    Shards merge in task order and every entry is an exact integer, so the
    result (and any file written from it) is identical for every worker
    count — the same guarantee as :func:`~repro.store.write_fleet_store`.
    """
    from .ops import ColumnSource, IndexBuildOperator
    from .plan import ScanPlan

    n_bands = max(1, int(n_bands))
    plan = ScanPlan(ColumnSource(store), IndexBuildOperator(n_bands=n_bands))
    return plan.run(workers=workers)


def write_query_index(
    store: SymbolStore,
    path: Optional[Union[str, Path]] = None,
    workers: int = 1,
    n_bands: int = DEFAULT_BANDS,
) -> Path:
    """Build and persist the sidecar next to the store (default path)."""
    index = build_query_index(store, workers=workers, n_bands=n_bands)
    return index.write(query_index_path(store.path) if path is None else path)
