"""Streaming fleet ingestion into a crash-safe segmented store.

The missing piece between the sensor-side :class:`~repro.core.streaming.
OnlineEncoder` (one per meter, bootstrap → symbol per window, drift-triggered
table rebuilds) and the server-side segmented store: :class:`FleetIngestor`
runs a whole fleet of online encoders, buffers the symbols they emit, and
commits them as immutable segments via :func:`~repro.store.segments.
append_segment` — so a crash at any byte of the ingest path loses at most
the *uncommitted* buffer, never a committed day.

Epoch discipline: every buffered window is tagged with the table epoch that
encoded it (the paper's "rebuilding and resending the lookup table" event
starts a new epoch).  A segment must be decodable with a single table per
meter, so a commit only drains each meter's longest single-epoch prefix, and
a drift rebuild auto-commits the pre-rebuild buffer — the rebuilt table's
windows start a fresh segment, exactly the contract the tentpole names:
*drift-triggered table rebuilds start a new segment with the new table*.

Meters can close windows at different rates (gaps skip empty window slots),
so commits drain the fleet-wide common prefix; stragglers stay buffered
until their windows close.  :meth:`FleetIngestor.finalize` flushes the open
windows and commits what remains.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.lookup import LookupTable
from ..core.streaming import OnlineEncoder
from ..core.timeseries import SECONDS_PER_DAY
from ..errors import StoreError
from .format import DENSE
from .segments import SymbolStore, append_segment, create_segmented_store

__all__ = ["FleetIngestor"]


class FleetIngestor:
    """Ingest raw fleet measurements into a segmented store, crash-safely.

    Parameters mirror :class:`~repro.core.streaming.OnlineEncoder` (every
    meter gets its own encoder); ``directory`` is created as a fresh
    segmented store unless one already exists there, in which case ingestion
    appends to it.  ``segment_windows`` is the auto-commit threshold: once
    every meter has that many committable windows buffered, a segment is cut
    without waiting for an explicit :meth:`commit` (0 disables).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        meter_ids: Sequence,
        alphabet_size: int = 8,
        method: str = "median",
        window_seconds: float = 900.0,
        bootstrap_seconds: float = 2 * 86400.0,
        aggregator: str = "average",
        drift_threshold: float = 0.0,
        layout: str = DENSE,
        segment_windows: int = 0,
        workers: int = 1,
        metadata: Optional[Dict] = None,
    ) -> None:
        self.directory = Path(directory)
        self.meter_ids = list(meter_ids)
        if not self.meter_ids:
            raise StoreError("cannot ingest an empty fleet")
        self.workers = int(workers)
        self.segment_windows = int(segment_windows)
        self._drift = float(drift_threshold) > 0
        self._encoders = [
            OnlineEncoder(
                alphabet_size=alphabet_size, method=method,
                window_seconds=window_seconds,
                bootstrap_seconds=bootstrap_seconds, aggregator=aggregator,
                drift_threshold=drift_threshold,
            )
            for _ in self.meter_ids
        ]
        #: Per meter: buffered ``(symbol_index, epoch)`` not yet committed.
        self._pending: List[List[Tuple[int, int]]] = [[] for _ in self.meter_ids]
        self._epochs = [0] * len(self.meter_ids)
        meta = {
            "kind": "fleet",
            "window_seconds": float(window_seconds),
            "method": method if isinstance(method, str) else type(method).__name__,
            "aggregator": aggregator if isinstance(aggregator, str) else "custom",
            "drift_threshold": float(drift_threshold),
            "streaming": True,
        }
        per_day = SECONDS_PER_DAY / float(window_seconds)
        if abs(per_day - round(per_day)) < 1e-9:
            meta["windows_per_day"] = int(round(per_day))
        meta.update(metadata or {})
        if not any(
            entry.name.startswith("manifest-")
            for entry in self.directory.glob("manifest-*.json")
        ):
            create_segmented_store(
                self.directory, alphabet_size=int(alphabet_size), layout=layout,
                metadata=meta, ids=self.meter_ids,
            ).close()

    # -- feeding ------------------------------------------------------------------

    def _absorb(self, meter: int, emitted) -> bool:
        """Buffer one push's windows; report whether a rebuild happened.

        Windows returned by a push were encoded with the table that was
        current *before* any rebuild the same push triggered
        (``OnlineEncoder.push`` runs the drift check after windowing), so
        they carry the pre-push epoch; the bootstrap build is epoch 1 and
        does emit its own replayed windows.
        """
        encoder = self._encoders[meter]
        after = len(encoder.table_updates)
        before = self._epochs[meter]
        epoch = max(before, 1)
        pending = self._pending[meter]
        for window in emitted:
            pending.append((int(window.symbol.index), epoch))
        self._epochs[meter] = after
        return after > max(before, 1)

    def push(self, timestamp: float, values: Sequence[float]) -> Optional[int]:
        """Feed one fleet-wide sample row (``values[i]`` is meter ``i``).

        Returns the number of windows committed if this push triggered a
        segment cut (drift rebuild or ``segment_windows`` threshold),
        ``None`` otherwise.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != len(self.meter_ids):
            raise StoreError(
                f"{values.size} values for {len(self.meter_ids)} meters"
            )
        rebuilt = False
        for meter, encoder in enumerate(self._encoders):
            emitted = encoder.push(float(timestamp), float(values[meter]))
            rebuilt |= self._absorb(meter, emitted)
        if rebuilt:
            return self.commit(reason="drift")
        return self._maybe_autocommit()

    def push_chunk(
        self,
        timestamps: Union[Sequence[float], np.ndarray],
        values: np.ndarray,
    ) -> Optional[int]:
        """Feed an aligned chunk: ``values`` is ``(n_meters, n_samples)``.

        Without drift monitoring every meter takes the vectorized
        ``push_chunk`` path; with it, samples are replayed one row at a time
        so drift-triggered segment boundaries land exactly where per-sample
        feeding would put them.
        """
        ts = np.asarray(timestamps, dtype=np.float64).ravel()
        matrix = np.asarray(values, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(self.meter_ids):
            raise StoreError(
                f"expected a ({len(self.meter_ids)}, n) value matrix, got "
                f"{matrix.shape}"
            )
        if matrix.shape[1] != ts.size:
            raise StoreError(
                f"{ts.size} timestamps for {matrix.shape[1]} samples"
            )
        if self._drift:
            committed = None
            for j in range(ts.size):
                result = self.push(float(ts[j]), matrix[:, j])
                if result is not None:
                    committed = (committed or 0) + result
            return committed
        rebuilt = False
        for meter, encoder in enumerate(self._encoders):
            emitted = encoder.push_chunk(ts, matrix[meter])
            rebuilt |= self._absorb(meter, emitted)
        if rebuilt:
            return self.commit(reason="drift")
        return self._maybe_autocommit()

    # -- committing ---------------------------------------------------------------

    def committable(self) -> int:
        """Windows a :meth:`commit` would drain right now.

        The fleet-wide minimum over each meter's longest buffered prefix
        encoded by a single table epoch (a segment stores one table per
        meter, so an epoch change caps the prefix).
        """
        best = None
        for pending in self._pending:
            if not pending:
                return 0
            first_epoch = pending[0][1]
            run = 0
            for _, epoch in pending:
                if epoch != first_epoch:
                    break
                run += 1
            best = run if best is None else min(best, run)
        return best or 0

    def _maybe_autocommit(self) -> Optional[int]:
        if self.segment_windows > 0 and self.committable() >= self.segment_windows:
            return self.commit(reason="append")
        return None

    def _table_for_epoch(self, meter: int, epoch: int) -> LookupTable:
        updates = self._encoders[meter].table_updates
        return updates[epoch - 1].table

    def commit(self, reason: str = "append") -> Optional[int]:
        """Cut the committable prefix into one immutable segment.

        Returns the number of windows per meter the segment holds, or
        ``None`` when nothing is committable yet (some meter still
        bootstrapping or lagging behind a gap).
        """
        n = self.committable()
        if n == 0:
            return None
        matrix = np.empty((len(self.meter_ids), n), dtype=np.int64)
        tables: List[LookupTable] = []
        for meter, pending in enumerate(self._pending):
            epoch = pending[0][1]
            matrix[meter] = [index for index, _ in pending[:n]]
            tables.append(self._table_for_epoch(meter, epoch))
            del pending[:n]
        head = tables[0]
        shared: Union[LookupTable, List[LookupTable]] = (
            head if all(table == head for table in tables[1:]) else tables
        )
        started = time.perf_counter()
        append_segment(
            self.directory, matrix, tables=shared, workers=self.workers,
            reason=reason,
        )
        from ..obs import registry as _obs_registry
        metrics = _obs_registry()
        metrics.counter(
            "ingest.commits_total", "FleetIngestor segment commits",
            reason=reason,
        ).inc()
        metrics.histogram(
            "ingest.commit_seconds",
            "Durable segment commit latency (pack + fsync + manifest)",
        ).observe(time.perf_counter() - started)
        return n

    def flush(self) -> None:
        """Close every meter's open window (end-of-stream), buffer-side only."""
        for meter, encoder in enumerate(self._encoders):
            self._absorb(meter, encoder.flush())

    def finalize(self, reason: str = "final") -> SymbolStore:
        """Flush open windows, commit the remainder, return the open store."""
        self.flush()
        while self.committable() > 0:
            self.commit(reason=reason)
        return SymbolStore.open(self.directory)

    @property
    def encoders(self) -> List[OnlineEncoder]:
        """The per-meter online encoders (read-only introspection)."""
        return list(self._encoders)

    def __repr__(self) -> str:
        buffered = [len(p) for p in self._pending]
        return (
            f"FleetIngestor({self.directory.name!r}, meters="
            f"{len(self.meter_ids)}, buffered={min(buffered)}..{max(buffered)})"
        )
