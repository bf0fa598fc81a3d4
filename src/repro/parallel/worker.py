"""Worker-side task functions for the deterministic parallel layer.

These module-level functions are what :class:`~repro.parallel.ParallelExecutor`
pickles by reference into worker processes.  The heavy grain lives here: one
*chunk* of Table 1 grid cells per task — all classifiers of one
configuration — so each configuration's day vectors are built exactly once
no matter where the chunk lands.  Workers never receive raw sample arrays
for grid work when the dataset has a
:class:`~repro.datasets.descriptors.DatasetDescriptor`: they rebuild the
dataset from its seed and keep a small per-process cache of
(descriptor, folds, seed) → :class:`GridRunner`, so day vectors are also
shared *across* chunks of the same grid, exactly like the serial runner's
cache.

A task whose dataset has no descriptor (hand-built datasets) carries the
pickled dataset instead; it still computes the identical result — one
runner per chunk, so vectors are still built only once per configuration —
just without the cross-chunk cache.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple, Union

from ..analytics.classification import ClassificationResult
from ..analytics.vectors import DayVectorConfig
from ..datasets.base import MeterDataset
from ..datasets.descriptors import DatasetDescriptor

__all__ = [
    "GridChunkTask",
    "run_grid_chunk",
    "StoreShardTask",
    "pack_store_shard",
]

#: Worker-local cache of grid runners, keyed by (descriptor, n_folds, seed).
#: Bounded: a worker sees at most a handful of distinct grids per run.
_RUNNER_CACHE: dict = {}
_RUNNER_CACHE_LIMIT = 4


class GridChunkTask(NamedTuple):
    """A run of consecutive grid cells (typically one configuration's row).

    ``store_dir`` (optional) is the parent runner's day-vector store
    directory.  Chunking is one *configuration* per task, so each store
    file has exactly one writer — workers share the directory without
    racing on a path.
    """

    source: Union[DatasetDescriptor, MeterDataset]
    cells: Tuple[Tuple[DayVectorConfig, str], ...]
    n_folds: int
    seed: int
    store_dir: Optional[str] = None


def _runner_for(task: GridChunkTask):
    from ..experiments.runner import GridRunner

    if isinstance(task.source, DatasetDescriptor):
        key = (task.source, task.n_folds, task.seed, task.store_dir)
        runner = _RUNNER_CACHE.get(key)
        if runner is None:
            if len(_RUNNER_CACHE) >= _RUNNER_CACHE_LIMIT:
                _RUNNER_CACHE.clear()
            runner = GridRunner(
                task.source.build(), n_folds=task.n_folds, seed=task.seed,
                store_dir=task.store_dir,
            )
            _RUNNER_CACHE[key] = runner
        return runner
    return GridRunner(
        task.source, n_folds=task.n_folds, seed=task.seed,
        store_dir=task.store_dir,
    )


def run_grid_chunk(task: GridChunkTask) -> List[ClassificationResult]:
    """Evaluate one chunk of grid cells inside a worker process.

    Reconstructs the dataset from the task's descriptor (cached per worker),
    builds each configuration's day vectors once and runs the serial
    cross-validation path per cell — so the returned scores are
    bit-identical to what :meth:`GridRunner.run_cell` produces in the parent
    process, in the chunk's cell order.
    """
    runner = _runner_for(task)
    return [
        runner.run_cell(config, classifier) for config, classifier in task.cells
    ]


class StoreShardTask(NamedTuple):
    """One contiguous meter shard to bit-pack worker-side.

    ``values`` holds the shard's symbol indices, or its raw samples when
    ``spec`` (a :class:`~repro.pipeline.fleet._FleetSpec`) says how to encode
    them first: against ``shared_table`` (the already-fitted global table as
    a plain dict), or with one table fitted per meter when that is ``None``
    — per-row work, so the merged result is order-independent.
    """

    values: "object"                 # (meters, windows) indices or (meters, samples) values
    bits: int
    layout: str
    spec: "object" = None            # _FleetSpec, or None for indices
    shared_table: Optional[dict] = None


def pack_store_shard(task: StoreShardTask) -> Tuple[Optional[List[dict]], List[tuple]]:
    """Encode (when the task carries a spec) and pack one shard, in row order.

    Returns ``(table_dicts, columns)``: the per-meter tables a spec without a
    shared table fitted (else ``None``), and per row the
    ``(payload_bytes, symbol_count, run_lengths_or_None)`` that
    :meth:`~repro.store.SymbolStoreWriter.append_columns` writes.  Only the
    *packed* bytes cross the process boundary, never the shard's index
    matrix.
    """
    from ..core.lookup import LookupTable
    from ..pipeline.fleet import FleetEncoder
    from ..store.format import pack_columns

    spec = task.spec
    indices, table_dicts = task.values, None
    if spec is not None and task.shared_table is not None:
        encoder = FleetEncoder.from_tables(
            LookupTable.from_dict(task.shared_table),
            window=spec.window, aggregator=spec.aggregator,
        )
        indices = encoder.encode(task.values)
    elif spec is not None:
        encoder = spec.encoder(shared_table=False)
        indices = encoder.fit_encode(task.values)
        table_dicts = [table.to_dict() for table in encoder.tables]
    return table_dicts, pack_columns(indices, task.bits, task.layout)
