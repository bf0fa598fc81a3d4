"""Fleet-scale store writing: shard-by-shard, deterministic, pool-friendly.

:func:`write_fleet_store` is the persistence half of
:class:`~repro.pipeline.FleetEncoder`: it fits the same tables, encodes the
fleet in contiguous meter shards and streams each shard's *packed* bytes
into a :class:`~repro.store.SymbolStoreWriter` — the fleet's ``int64`` index
matrix is never materialised in one piece.  The shards are encoded and
packed inside a :class:`~repro.parallel.ParallelExecutor` (in-process at
``workers=1``, task-ordered merge otherwise, like every other parallel grain
in this codebase), and because each meter's bytes depend only on that
meter's rows, the resulting file is **byte-identical for every worker
count** — pinned by ``tests/store/test_determinism.py``.  Segment appends
(:func:`~repro.store.append_segment`) write through the same shard task and
the same :func:`_write_shards` path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.lookup import LookupTable
from ..core.separators import SeparatorMethod
from ..core.timeseries import SECONDS_PER_DAY
from ..errors import StoreError
from ..pipeline.fleet import _FleetSpec, _aggregate_fleet_shard
from .format import DENSE, SymbolStoreWriter
from .packing import bits_for_alphabet
from .segments import SymbolStore

__all__ = ["write_fleet_store"]

#: Default meters per shard (bounds peak memory on both write paths).
_DEFAULT_SHARD_METERS = 4096


def _meter_shards(n_meters: int, n_shards: int):
    bounds = np.array_split(np.arange(n_meters), max(1, min(n_shards, n_meters)))
    return [(int(idx[0]), int(idx[-1]) + 1) for idx in bounds if idx.size]


def _fleet_metadata(
    spec: _FleetSpec,
    shared_table: bool,
    n_samples: int,
    sampling_interval: Optional[float],
    metadata: Optional[Dict],
) -> Dict:
    """The header/manifest metadata of a fleet store written from ``spec``.

    ``sampling_interval`` (seconds between raw samples) adds the store's
    ``aggregation_seconds`` and, when the window divides a day,
    ``windows_per_day``; ``metadata`` is merged last.
    """
    method, aggregator = spec.method, spec.aggregator
    meta = {
        "kind": "fleet",
        "window": int(spec.window),
        "method": method if isinstance(method, str) else type(method).__name__,
        "aggregator": aggregator if isinstance(aggregator, str) else "custom",
        "shared_table": bool(shared_table),
        "n_samples": int(n_samples),
    }
    if sampling_interval is not None:
        aggregation_seconds = float(sampling_interval) * int(spec.window)
        meta["sampling_interval"] = float(sampling_interval)
        meta["aggregation_seconds"] = aggregation_seconds
        per_day = SECONDS_PER_DAY / aggregation_seconds
        if abs(per_day - round(per_day)) < 1e-9:
            meta["windows_per_day"] = int(round(per_day))
    meta.update(metadata or {})
    return meta


def _write_shards(
    path: Union[str, Path],
    executor,
    tasks: Sequence,
    ids: Sequence,
    alphabet_size: int,
    layout: str,
    tables: Union[LookupTable, List[LookupTable], None],
    metadata: Dict,
) -> Path:
    """Pack ``tasks`` on ``executor`` and stream their columns into one file.

    ``tasks`` are :class:`~repro.parallel.worker.StoreShardTask` row shards
    in meter order.  ``tables`` is the shared table, one table per meter, or
    ``None`` (then tasks that fit per-meter tables return them).  Tasks map
    one executor-width batch at a time, so memory holds a batch of packed
    shards, never the whole fleet.
    """
    from ..parallel.worker import pack_store_shard

    shared = tables if isinstance(tables, LookupTable) else None
    per_meter = None if tables is None or shared is not None else list(tables)
    row = 0
    with SymbolStoreWriter(
        path, alphabet_size, layout=layout, tables=shared, metadata=metadata,
    ) as writer:
        for start in range(0, len(tasks), executor.workers):
            batch = tasks[start: start + executor.workers]
            for table_dicts, columns in executor.map(pack_store_shard, batch):
                stop = row + len(columns)
                if table_dicts is not None:
                    column_tables = [LookupTable.from_dict(d) for d in table_dicts]
                else:
                    column_tables = per_meter and per_meter[row:stop]
                writer.append_columns(ids[row:stop], columns, tables=column_tables)
                row = stop
    return Path(path)


def write_fleet_store(
    path: Union[str, Path],
    values: np.ndarray,
    alphabet_size: int = 8,
    method: Union[str, SeparatorMethod] = "median",
    window: int = 1,
    aggregator: Union[str, Callable[[np.ndarray], float]] = "average",
    shared_table: bool = True,
    reconstruction: str = "center",
    layout: str = DENSE,
    meter_ids: Optional[Sequence] = None,
    workers: int = 1,
    shard_meters: int = _DEFAULT_SHARD_METERS,
    sampling_interval: Optional[float] = None,
    metadata: Optional[Dict] = None,
    query_index: bool = False,
) -> SymbolStore:
    """Fit, encode and persist a fleet array as a ``.rsym`` store.

    The tables and index matrix match ``FleetEncoder.fit_encode`` exactly
    (same separator fitting, same quantisation); the store just never holds
    more than one batch of shards at a time.  Returns the opened store.

    ``sampling_interval`` (seconds between raw samples) is recorded so the
    store knows its ``aggregation_seconds`` and ``windows_per_day`` — the
    metadata behind ``decode(day_range=...)`` and the measured-vs-analytic
    compression cross-check.

    ``query_index=True`` additionally writes the ``.rsymx`` sidecar
    (:func:`repro.query.write_query_index`) so the query engine can prune
    kNN candidates without a separate indexing pass; like the store itself,
    the sidecar bytes are identical for every ``workers`` count.
    """
    from ..parallel.executor import ParallelExecutor
    from ..parallel.worker import StoreShardTask

    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise StoreError(f"expected a 2-D (meters, samples) array, got {values.shape}")
    n_meters = values.shape[0]
    if n_meters == 0:
        raise StoreError("cannot write a store for an empty fleet")
    ids = list(meter_ids) if meter_ids is not None else list(range(n_meters))
    if len(ids) != n_meters:
        raise StoreError(f"{len(ids)} meter ids for {n_meters} meters")
    spec = _FleetSpec(
        alphabet_size=int(alphabet_size), method=method, window=int(window),
        aggregator=aggregator, reconstruction=reconstruction,
    )
    meta = _fleet_metadata(
        spec, shared_table, values.shape[1], sampling_interval, metadata
    )
    with ParallelExecutor(workers) as executor:
        # At least one shard per worker, but never wider than shard_meters —
        # the per-worker memory bound holds at every worker count.
        shards = _meter_shards(n_meters, max(
            executor.workers, (n_meters + shard_meters - 1) // shard_meters
        ))
        table = None
        if shared_table:
            # Same two-phase shape as FleetEncoder._fit_encode_sharded: the
            # pooled shard aggregates (row order preserved) learn one global
            # table, so the separators match an in-memory fit bit for bit.
            aggregated = np.vstack(executor.map(
                _aggregate_fleet_shard,
                [(values[lo:hi], spec) for lo, hi in shards],
            ))
            table = LookupTable.fit(
                aggregated.ravel(), spec.alphabet_size, method=spec.method,
                reconstruction=spec.reconstruction,
            )
        bits = bits_for_alphabet(spec.alphabet_size)
        table_dict = table.to_dict() if table is not None else None
        tasks = [
            StoreShardTask(
                values[lo:hi], bits, layout, spec=spec, shared_table=table_dict,
            )
            for lo, hi in shards
        ]
        _write_shards(
            path, executor, tasks, ids, spec.alphabet_size, layout, table, meta,
        )
    store = SymbolStore.open(path)
    if query_index:
        from ..query.index import write_query_index

        write_query_index(store, workers=workers)
    return store
