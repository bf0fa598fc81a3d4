"""The ``.rsymx`` sidecar index: banded symbol histograms for pruning.

A query index stores, for every column of a ``.rsym`` store, its symbol
histogram *per time band* plus first/min/max symbol — a few hundred integers
per meter, built in one pass and persisted next to the store.  The kNN
engine turns the banded histograms into a position-aware lower bound on
every candidate's distance with one matrix product
(``sum_b sum_s hist[b, s] * min_{t in band b} bound(q_t, s)^2``), so most
candidates are pruned *before any payload bytes are touched*.

Bands fold the column by the store's ``windows_per_day`` metadata when it is
available (band = time of day), falling back to contiguous segments: smart
meter days sweep low→high levels, so an unbanded histogram would let every
symbol sit near *some* query value and bound nothing — folding by time of
day is what makes the bound bite (the benchmark pins < 25% of candidates
decoded per query).  Pattern matching uses the band-summed histograms to
skip columns that lack a pattern's symbols entirely.

On-disk layout mirrors the ``.rsym`` format (little-endian, JSON trailer)::

    offset 0   magic  b"RSYMIDX1"
    offset 8   band histograms — (n_meters, n_bands, alphabet_size) uint32
    ...        first/min/max symbols — three (n_meters,) uint32 arrays
    ...        header — JSON (sorted keys)
    ...        uint64 header length
    end - 8    magic  b"RSYMIDXE"

The header records the parent store's fingerprint (meter count, alphabet,
symbol count, layout, payload size); :meth:`QueryIndex.open` refuses a stale
sidecar instead of silently pruning with wrong counts.  Files are
byte-identical for every ``workers`` count — histogram entries are exact
integers merged in task order.
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
VERSION = 1

#: Default time bands per column (3-hour bands for 15-minute windows).
DEFAULT_BANDS = 8

_SYMBOL_DTYPE = np.dtype("<u4")

#: Histogram cells persist at the narrowest width that holds the largest
#: count (1, 2 or 4 bytes) — a week of 15-minute windows needs one byte per
#: (band, symbol) cell, so the sidecar stays a small fraction of the store.
_COUNT_DTYPES = (np.dtype("<u1"), np.dtype("<u2"), np.dtype("<u4"))


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
    """Banded histogram + first/min/max symbols for columns ``[start, stop)``.

    ``window_range`` scans only windows ``[lo, hi)`` (``hi > lo``) of
    equal-length columns, each in the band of its absolute position in the
    column: the share those windows add to the whole column's statistics.
    """
    k = store.alphabet_size
    n = stop - start
    per_day = _store_bands(store, n_bands)
    hist = np.zeros((n, n_bands, k), dtype=np.int64)
    first = np.zeros(n, dtype=np.int64)
    lo_sym = np.zeros(n, dtype=np.int64)
    hi_sym = np.zeros(n, dtype=np.int64)
    counts = store.counts[start:stop]
    if n and np.all(counts == counts[0]) and counts[0] > 0:
        width = int(counts[0])
        lo, hi = (0, width) if window_range is None else window_range
        matrix = store.matrix_block(start, stop, (lo, hi))
        band = band_of_windows(width, n_bands, per_day)[lo:hi]
        flat = (np.arange(n)[:, None] * n_bands + band[None, :]) * k + matrix
        hist[:] = np.bincount(
            flat.ravel(), minlength=n * n_bands * k
        ).reshape(n, n_bands, k)
        first[:] = matrix[:, 0]
        lo_sym[:] = matrix.min(axis=1)
        hi_sym[:] = matrix.max(axis=1)
        return hist, first, lo_sym, hi_sym
    if window_range is not None:
        raise QueryError("a window range needs non-empty columns of one length")
    for row, column in enumerate(range(start, stop)):
        indices = store.indices(store.ids[column])
        if indices.size == 0:
            continue
        band = band_of_windows(indices.size, n_bands, per_day)
        hist[row] = np.bincount(
            band * k + indices, minlength=n_bands * k
        ).reshape(n_bands, k)
        first[row] = indices[0]
        lo_sym[row] = indices.min()
        hi_sym[row] = indices.max()
    return hist, first, lo_sym, hi_sym


class QueryIndex:
    """In-memory form of the sidecar statistics (see the module docstring)."""

    def __init__(
        self,
        band_histograms: np.ndarray,
        first_symbols: np.ndarray,
        min_symbols: np.ndarray,
        max_symbols: np.ndarray,
        fingerprint: Dict,
        windows_per_day: Optional[int] = None,
    ) -> None:
        self.band_histograms = np.asarray(band_histograms, dtype=np.int64)
        self.first_symbols = np.asarray(first_symbols, dtype=np.int64)
        self.min_symbols = np.asarray(min_symbols, dtype=np.int64)
        self.max_symbols = np.asarray(max_symbols, dtype=np.int64)
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
        columns with windows whose :func:`_shard_stats` are ``share``
        (``None`` when no window was added): band histograms add, min and
        max fold, first symbols stay."""
        hist, lo, hi = self.band_histograms, self.min_symbols, self.max_symbols
        if share is not None:
            hist = hist + share[0]
            lo, hi = np.minimum(lo, share[2]), np.maximum(hi, share[3])
        return QueryIndex(
            hist, self.first_symbols, lo, hi, _store_fingerprint(store),
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
                f"for {self.fingerprint}, store is {actual}; rebuild it with "
                f"write_query_index() or 'repro query index'"
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
            self.first_symbols.astype(_SYMBOL_DTYPE),
            self.min_symbols.astype(_SYMBOL_DTYPE),
            self.max_symbols.astype(_SYMBOL_DTYPE),
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
        """Read a sidecar written by :meth:`write`."""
        path = Path(path)
        if not path.exists():
            raise QueryError(f"no such query index: {path}")
        raw = np.fromfile(path, dtype=np.uint8)
        if raw.size < len(MAGIC_HEAD) + 8 + len(MAGIC_TAIL):
            raise QueryError(f"{path} is too short to be a query index")
        if raw[: len(MAGIC_HEAD)].tobytes() != MAGIC_HEAD:
            raise QueryError(f"{path} is not a query index (bad magic)")
        if raw[-len(MAGIC_TAIL):].tobytes() != MAGIC_TAIL:
            raise QueryError(f"{path} is truncated (bad tail magic)")
        (header_len,) = struct.unpack(
            "<Q", raw[-len(MAGIC_TAIL) - 8: -len(MAGIC_TAIL)].tobytes()
        )
        header_start = raw.size - len(MAGIC_TAIL) - 8 - header_len
        if header_start < len(MAGIC_HEAD):
            raise QueryError(f"{path} has an inconsistent header length")
        try:
            header = json.loads(
                raw[header_start: raw.size - len(MAGIC_TAIL) - 8].tobytes()
            )
        except ValueError as exc:
            raise QueryError(f"{path} has a corrupt header: {exc}") from None
        if header.get("version") != VERSION:
            raise QueryError(
                f"{path} has index version {header.get('version')}, "
                f"expected {VERSION}"
            )
        n = int(header["n_meters"])
        bands = int(header["n_bands"])
        k = int(header["alphabet_size"])
        count_dtype = np.dtype(header.get("count_dtype", "<u4"))
        hist_nbytes = n * bands * k * count_dtype.itemsize
        expected = hist_nbytes + 3 * n * _SYMBOL_DTYPE.itemsize
        payload = raw[len(MAGIC_HEAD): header_start]
        if payload.size != expected:
            raise QueryError(
                f"{path} payload is {payload.size} bytes, expected {expected}"
            )
        hist = payload[:hist_nbytes].view(count_dtype).astype(
            np.int64
        ).reshape(n, bands, k)
        rest = payload[hist_nbytes:].view(_SYMBOL_DTYPE).astype(np.int64)
        return cls(
            hist, rest[:n], rest[n: 2 * n], rest[2 * n:],
            header["store"], windows_per_day=header.get("windows_per_day"),
        )


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
