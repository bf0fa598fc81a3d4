"""Fleet-scale encoding: N meters × T samples in one vectorized call.

The paper evaluates two table regimes (Fig. 7 / the "+" columns of
Table 1): one *local* lookup table learned per household, or one *global*
table learned on all households pooled together.  :class:`FleetEncoder`
implements both at fleet scale:

* **shared table** — vertical aggregation reshapes the whole ``(N, T)``
  array to ``(N, windows, n)`` and reduces the last axis, then one
  ``np.searchsorted`` quantises every meter at once;
* **per-meter tables** — the separator matrix ``(N, k - 1)`` is compared
  against the aggregated values with a blocked broadcast (equivalent to a
  left-``searchsorted`` per row), so even a million meters never build
  per-value Python objects.

The output is an ``(N, windows)`` ``int64`` index matrix; decoding gathers
each meter's reconstruction values back.  Per-meter results are identical to
running each row through ``Pipeline([VerticalStage(n), LookupStage(table)])``
— the parity tests assert this.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..errors import LookupTableError, SegmentationError
from ..core.lookup import LookupTable
from ..core.separators import SeparatorMethod
from .pipeline import Pipeline
from .stages import (
    LookupStage,
    RLERuns,
    RLEStage,
    VerticalStage,
    get_axis_aggregator,
)

__all__ = ["FleetEncoder"]

#: Upper bound on the elements materialised by one per-meter lookup block.
_BLOCK_ELEMENTS = 8_000_000


class _FleetSpec(NamedTuple):
    """Picklable constructor arguments for rebuilding a FleetEncoder shard-side."""

    alphabet_size: int
    method: Union[str, SeparatorMethod]
    window: int
    aggregator: Union[str, Callable[[np.ndarray], float]]
    reconstruction: str

    def encoder(self, shared_table: bool) -> "FleetEncoder":
        return FleetEncoder(
            alphabet_size=self.alphabet_size, method=self.method,
            window=self.window, aggregator=self.aggregator,
            shared_table=shared_table, reconstruction=self.reconstruction,
        )


def _aggregate_fleet_shard(task) -> np.ndarray:
    """Vertical aggregation of one contiguous meter shard (worker side)."""
    shard, spec = task
    return spec.encoder(shared_table=True).aggregate(shard)


def _fit_encode_fleet_shard(task) -> tuple:
    """Fit per-meter tables for one shard and encode it (worker side)."""
    shard, spec = task
    encoder = spec.encoder(shared_table=False)
    indices = encoder.fit_encode(shard)
    return encoder.tables, indices


class FleetEncoder:
    """Encode a 2-D fleet array (meters × samples) in one call.

    Parameters
    ----------
    alphabet_size:
        Number of symbols ``k`` (power of two, as in the paper).
    method:
        Separator-learning strategy (``uniform`` / ``median`` /
        ``distinctmedian`` or a :class:`SeparatorMethod`).
    window:
        Vertical-segmentation window in samples (``1`` disables aggregation).
    aggregator:
        Aggregation function for vertical segmentation.
    shared_table:
        ``True`` learns one global table on all meters pooled; ``False``
        learns one table per meter (the paper's default local tables).
    """

    def __init__(
        self,
        alphabet_size: int = 8,
        method: Union[str, SeparatorMethod] = "median",
        window: int = 1,
        aggregator: Union[str, Callable[[np.ndarray], float]] = "average",
        shared_table: bool = True,
        reconstruction: str = "center",
    ) -> None:
        if window < 1:
            raise SegmentationError(f"window must be >= 1, got {window}")
        self.alphabet_size = int(alphabet_size)
        self.method = method
        self.window = int(window)
        self.aggregator = aggregator
        self._reduce = get_axis_aggregator(aggregator)
        self.shared_table = bool(shared_table)
        self.reconstruction = reconstruction
        self._tables: Optional[List[LookupTable]] = None
        self._shared: Optional[LookupTable] = None
        # Stacked per-meter matrices, built once per set of tables so repeated
        # encode/decode calls never re-collect N Python float lists.
        self._separator_matrix: Optional[np.ndarray] = None
        self._reconstruction_matrix: Optional[np.ndarray] = None

    # -- construction from existing tables ------------------------------------

    @classmethod
    def from_tables(
        cls,
        tables: Union[LookupTable, Sequence[LookupTable]],
        window: int = 1,
        aggregator: Union[str, Callable[[np.ndarray], float]] = "average",
    ) -> "FleetEncoder":
        """Build an already-fitted fleet encoder around received tables.

        ``tables`` is either one shared :class:`LookupTable` or a sequence
        with one table per meter (all of the same alphabet size).
        """
        if isinstance(tables, LookupTable):
            encoder = cls(
                alphabet_size=tables.size, window=window,
                aggregator=aggregator, shared_table=True,
            )
            encoder._shared = tables
            return encoder
        tables = list(tables)
        if not tables:
            raise LookupTableError("at least one lookup table is required")
        sizes = {table.size for table in tables}
        if len(sizes) != 1:
            raise LookupTableError(
                f"per-meter tables must share one alphabet size, got {sorted(sizes)}"
            )
        encoder = cls(
            alphabet_size=tables[0].size, window=window,
            aggregator=aggregator, shared_table=False,
        )
        encoder._tables = tables
        return encoder

    # -- fitting ---------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether lookup tables are available."""
        return self._shared is not None or self._tables is not None

    @property
    def tables(self) -> List[LookupTable]:
        """The fitted lookup tables: one per meter, or — in shared mode — a
        single-element list holding the global table (use :attr:`shared` and
        ``from_tables(fleet.shared)`` for the shared round-trip)."""
        if self._tables is not None:
            return list(self._tables)
        if self._shared is not None:
            return [self._shared]
        raise LookupTableError("fleet encoder is not fitted; call fit() first")

    @property
    def shared(self) -> Optional[LookupTable]:
        """The single global table (``None`` in per-meter mode)."""
        return self._shared

    def fit(self, history: np.ndarray) -> "FleetEncoder":
        """Learn lookup tables from a bootstrap fleet array ``(N, T)``.

        Separators are learned on the *aggregated* bootstrap values, matching
        :meth:`repro.core.encoder.SymbolicEncoder.fit`.
        """
        self._separator_matrix = None
        self._reconstruction_matrix = None
        aggregated = self.aggregate(self._check_2d(history))
        if self.shared_table:
            self._shared = LookupTable.fit(
                aggregated.ravel(), self.alphabet_size, method=self.method,
                reconstruction=self.reconstruction,
            )
            self._tables = None
        else:
            self._tables = [
                LookupTable.fit(
                    row, self.alphabet_size, method=self.method,
                    reconstruction=self.reconstruction,
                )
                for row in aggregated
            ]
            self._shared = None
        return self

    def fit_encode(self, values: np.ndarray, workers: int = 1) -> np.ndarray:
        """Convenience: fit on ``values`` then encode them.

        ``workers > 1`` shards the meter axis into contiguous row blocks and
        fits/encodes them in a process pool.  Per-row work is independent, so
        the merged tables and index matrix are bit-identical to the serial
        call; in shared-table mode the workers aggregate their shards, then
        the parent learns the single global table on the pooled aggregates
        (row order preserved) and quantises in place.  The separator
        ``method`` and ``aggregator`` must be picklable (string names are).
        """
        if workers == 1:
            return self.fit(values).encode(values)
        return self._fit_encode_sharded(values, workers)

    def _fit_encode_sharded(self, values: np.ndarray, workers: int) -> np.ndarray:
        from ..parallel.executor import ParallelExecutor, resolve_workers

        workers = resolve_workers(workers)  # 0 = one per CPU, like the CLI
        values = self._check_2d(values)
        self._separator_matrix = None
        self._reconstruction_matrix = None
        n_meters = values.shape[0]
        bounds = np.array_split(np.arange(n_meters), min(workers, max(1, n_meters)))
        shards = [values[idx[0]: idx[-1] + 1] for idx in bounds if idx.size]
        spec = _FleetSpec(
            alphabet_size=self.alphabet_size,
            method=self.method,
            window=self.window,
            aggregator=self.aggregator,
            reconstruction=self.reconstruction,
        )
        with ParallelExecutor(workers) as executor:
            if self.shared_table:
                aggregated_shards = executor.map(
                    _aggregate_fleet_shard, [(shard, spec) for shard in shards]
                )
                aggregated = np.vstack(aggregated_shards)
                self._shared = LookupTable.fit(
                    aggregated.ravel(), self.alphabet_size, method=self.method,
                    reconstruction=self.reconstruction,
                )
                self._tables = None
                # The quantisation itself is a memory-bound searchsorted the
                # parent already holds the aggregates for — cheaper in place
                # than round-tripping the matrix through the pool again.
                if np.any(np.isnan(aggregated)):
                    raise LookupTableError(
                        "cannot encode NaN; drop missing values first"
                    )
                return self._shared.indices_for_values(aggregated)
            outcomes = executor.map(
                _fit_encode_fleet_shard, [(shard, spec) for shard in shards]
            )
            self._tables = [table for tables, _ in outcomes for table in tables]
            self._shared = None
            return np.vstack([shard_indices for _, shard_indices in outcomes])

    # -- encoding ---------------------------------------------------------------

    def aggregate(self, values: np.ndarray) -> np.ndarray:
        """Vertical segmentation of the whole fleet (Definition 2, 2-D).

        Trailing samples that do not fill a window are dropped, matching
        :class:`~repro.pipeline.stages.VerticalStage`.
        """
        values = self._check_2d(values)
        if self.window == 1:
            return values
        n_meters, n_samples = values.shape
        full = n_samples // self.window
        head = values[:, : full * self.window]
        if full == 0:
            return np.empty((n_meters, 0), dtype=np.float64)
        return np.asarray(
            self._reduce(head.reshape(n_meters, full, self.window)),
            dtype=np.float64,
        )

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Aggregate and quantise the fleet; returns ``(N, windows)`` indices."""
        aggregated = self.aggregate(values)
        if np.any(np.isnan(aggregated)):
            raise LookupTableError("cannot encode NaN; drop missing values first")
        if self._shared is not None:
            return self._shared.indices_for_values(aggregated)
        tables = self._meter_tables(aggregated.shape[0])
        if self._separator_matrix is None:
            self._separator_matrix = np.stack(
                [table.separator_array for table in tables]
            )
        return self._blocked_lookup(aggregated, self._separator_matrix)

    def encode_rle(self, values: np.ndarray) -> RLERuns:
        """Encode then run-length compress the whole fleet (Definition 4).

        Returns the flat :class:`~repro.pipeline.stages.RLERuns` container —
        three contiguous arrays instead of a ragged per-meter list — whose
        row ``i`` equals ``RLEStage().run_batch(indices[i])``.
        """
        return RLERuns.from_matrix(self.encode(values))

    # -- decoding ---------------------------------------------------------------

    def decode(self, indices: np.ndarray) -> np.ndarray:
        """Reconstruction values for an ``(N, windows)`` index matrix."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2:
            raise SegmentationError(
                f"expected a 2-D index matrix, got shape {indices.shape}"
            )
        if self._shared is not None:
            return self._shared.values_for_indices(indices)
        tables = self._meter_tables(indices.shape[0])
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.alphabet_size
        ):
            raise LookupTableError(
                f"symbol indices out of range for alphabet of size "
                f"{self.alphabet_size}"
            )
        if self._reconstruction_matrix is None:
            self._reconstruction_matrix = np.stack(
                [table.reconstruction_array for table in tables]
            )
        return np.take_along_axis(self._reconstruction_matrix, indices, axis=1)

    # -- interop with the per-series pipeline -----------------------------------

    def pipeline_for(self, meter: int = 0, with_rle: bool = False) -> Pipeline:
        """The single-meter :class:`Pipeline` equivalent to this encoder.

        Useful for streaming individual meters with the exact same stages
        the fleet path vectorizes over all of them.
        """
        table = self._shared if self._shared is not None else self.tables[meter]
        stages = []
        if self.window > 1:
            stages.append(VerticalStage(self.window, self.aggregator))
        stages.append(LookupStage(table))
        if with_rle:
            stages.append(RLEStage())
        return Pipeline(stages)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _check_2d(values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise SegmentationError(
                f"expected a 2-D (meters, samples) array, got shape {arr.shape}"
            )
        return arr

    def _meter_tables(self, n_meters: int) -> List[LookupTable]:
        if self._tables is None:
            raise LookupTableError("fleet encoder is not fitted; call fit() first")
        if len(self._tables) != n_meters:
            raise LookupTableError(
                f"{len(self._tables)} per-meter tables for {n_meters} meters"
            )
        return self._tables

    @staticmethod
    def _blocked_lookup(values: np.ndarray, separators: np.ndarray) -> np.ndarray:
        """Per-meter left-searchsorted via blocked broadcasting.

        ``index = #separators strictly below value`` reproduces
        ``np.searchsorted(side="left")`` row by row without a Python-level
        loop over meters; blocking bounds the temporary boolean tensor.
        """
        n_meters, n_windows = values.shape
        n_seps = separators.shape[1]
        out = np.empty((n_meters, n_windows), dtype=np.int64)
        block = max(1, _BLOCK_ELEMENTS // max(1, n_windows * n_seps))
        for start in range(0, n_meters, block):
            stop = min(start + block, n_meters)
            out[start:stop] = (
                separators[start:stop, None, :] < values[start:stop, :, None]
            ).sum(axis=2)
        return out

    def __repr__(self) -> str:
        mode = "shared" if self.shared_table else "per-meter"
        return (
            f"FleetEncoder(k={self.alphabet_size}, window={self.window}, "
            f"tables={mode}, fitted={self.is_fitted})"
        )
