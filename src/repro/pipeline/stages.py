"""The composable encoding stages (Definitions 2-4 as array transforms).

Every stage is an array-in / array-out transform with explicit streaming
state, so the same vectorized kernel serves both the batch and the online
path:

* ``initial_state()`` creates the carried state for a fresh stream;
* ``process(chunk, state)`` consumes one chunk and returns
  ``(output, new_state)`` — the output covers only what is *complete* so far;
* ``flush(state)`` emits whatever the end of the stream releases (a partial
  vertical window, the open run of the RLE stage);
* ``run_batch(values)`` is ``process`` on the whole array followed by
  ``flush`` — which is why chunked streaming is byte-identical to batch by
  construction.

States are plain immutable-ish values owned by the caller (the
:class:`~repro.pipeline.pipeline.Pipeline`), never by the stage, so one stage
instance can serve many concurrent streams.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SegmentationError
from ..core.lookup import LookupTable

__all__ = [
    "Stage",
    "VerticalStage",
    "LookupStage",
    "RLEStage",
    "RLERuns",
    "rle_encode",
    "rle_decode",
]

#: Axis-aware reducers matching ``repro.core.vertical.AGGREGATORS`` bit-for-bit
#: (NumPy uses the same pairwise summation over contiguous windows either way).
_AXIS_AGGREGATORS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "average": lambda a: a.mean(axis=-1),
    "sum": lambda a: a.sum(axis=-1),
    "max": lambda a: a.max(axis=-1),
    "min": lambda a: a.min(axis=-1),
    "median": lambda a: np.median(a, axis=-1),
}

_AGGREGATOR_ALIASES = {"mean": "average", "avg": "average",
                       "maximum": "max", "minimum": "min"}


def get_axis_aggregator(
    name: Union[str, Callable[[np.ndarray], float]],
) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve an aggregator into a windows-axis reducer.

    Named aggregators use the vectorized reducers above; an arbitrary
    scalar callable (the :data:`repro.core.vertical.Aggregator` contract) is
    wrapped into a per-window apply so custom aggregations keep working.
    """
    if callable(name):
        scalar = name
        return lambda a: np.apply_along_axis(scalar, -1, a)
    key = name.strip().lower()
    key = _AGGREGATOR_ALIASES.get(key, key)
    try:
        return _AXIS_AGGREGATORS[key]
    except KeyError:
        raise SegmentationError(
            f"unknown aggregator {name!r}; available: {sorted(_AXIS_AGGREGATORS)}"
        ) from None


class Stage:
    """Protocol for one pipeline stage (see the module docstring)."""

    def initial_state(self) -> Any:
        """State for a fresh stream (``None`` for stateless stages)."""
        return None

    def process(self, chunk: np.ndarray, state: Any) -> Tuple[np.ndarray, Any]:
        """Consume ``chunk``; return the completed output and the new state."""
        raise NotImplementedError

    def flush(self, state: Any) -> np.ndarray:
        """End-of-stream output released by ``state`` (empty by default)."""
        return self.empty_output()

    def empty_output(self) -> np.ndarray:
        """A zero-length array of this stage's output dtype/shape."""
        raise NotImplementedError

    def run_batch(self, values: np.ndarray) -> np.ndarray:
        """One-shot vectorized run: ``process`` everything, then ``flush``."""
        out, state = self.process(values, self.initial_state())
        tail = self.flush(state)
        if tail.shape[0] == 0:
            return out
        if out.shape[0] == 0:
            return tail
        return np.concatenate([out, tail])


class VerticalStage(Stage):
    """Definition 2: aggregate every ``n`` consecutive samples into one.

    Parameters
    ----------
    n:
        Window length in samples (``n >= 1``; ``1`` is the identity).
    aggregator:
        Name (``average``/``sum``/``max``/``min``/``median``) or a scalar
        callable.
    keep_partial:
        Whether :meth:`flush` emits the trailing window with fewer than
        ``n`` samples (dropped by default, matching ``segment_by_count``).
    """

    def __init__(
        self,
        n: int,
        aggregator: Union[str, Callable[[np.ndarray], float]] = "average",
        keep_partial: bool = False,
    ) -> None:
        if n < 1:
            raise SegmentationError(f"window size must be >= 1, got {n}")
        self.n = int(n)
        self._reduce = get_axis_aggregator(aggregator)
        self.keep_partial = bool(keep_partial)

    def initial_state(self) -> np.ndarray:
        return np.empty(0, dtype=np.float64)

    def process(
        self, chunk: np.ndarray, state: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        values = np.asarray(chunk, dtype=np.float64).ravel()
        if state.size:
            values = np.concatenate([state, values])
        if self.n == 1:
            return values, np.empty(0, dtype=np.float64)
        full = values.size // self.n
        head = values[: full * self.n]
        carry = values[full * self.n:]
        if full == 0:
            return np.empty(0, dtype=np.float64), carry
        out = self._reduce(head.reshape(full, self.n))
        return np.asarray(out, dtype=np.float64), carry

    def flush(self, state: np.ndarray) -> np.ndarray:
        if self.keep_partial and state.size:
            return np.asarray(
                self._reduce(state.reshape(1, state.size)), dtype=np.float64
            )
        return self.empty_output()

    def empty_output(self) -> np.ndarray:
        return np.empty(0, dtype=np.float64)

    def __repr__(self) -> str:
        return f"VerticalStage(n={self.n})"


class LookupStage(Stage):
    """Definition 3: quantise values into symbol indices (``np.searchsorted``).

    Wraps either a fitted :class:`~repro.core.lookup.LookupTable` (the
    paper's encoder; NaNs are rejected exactly as the table does) or a bare
    non-decreasing breakpoint array (how the SAX baseline shares this stage).
    The output is an ``int64`` index array — :class:`Symbol` objects are
    never created here.
    """

    def __init__(self, table: Union[LookupTable, Sequence[float], np.ndarray]) -> None:
        if isinstance(table, LookupTable):
            self._table: Optional[LookupTable] = table
            self._breakpoints = np.asarray(table.separators, dtype=np.float64)
        else:
            self._table = None
            self._breakpoints = np.asarray(table, dtype=np.float64)
            if self._breakpoints.ndim != 1:
                raise SegmentationError("breakpoints must be a 1-D array")
            if np.any(np.diff(self._breakpoints) < 0):
                raise SegmentationError("breakpoints must be non-decreasing")

    @property
    def table(self) -> Optional[LookupTable]:
        """The wrapped lookup table (``None`` when built from raw breakpoints)."""
        return self._table

    @property
    def n_symbols(self) -> int:
        """Size of the output index range (``len(breakpoints) + 1``)."""
        return self._breakpoints.size + 1

    def process(self, chunk: np.ndarray, state: Any) -> Tuple[np.ndarray, Any]:
        if self._table is not None:
            return self._table.indices_for_values(chunk), None
        arr = np.asarray(chunk, dtype=np.float64)
        if np.any(np.isnan(arr)):
            # Same contract as the table-backed path: NaN must never encode
            # as a plausible (highest) symbol.
            raise SegmentationError("cannot encode NaN; drop missing values first")
        return np.searchsorted(self._breakpoints, arr, side="left"), None

    def empty_output(self) -> np.ndarray:
        return np.empty(0, dtype=np.int64)

    def __repr__(self) -> str:
        return f"LookupStage(k={self.n_symbols})"


class RLEStage(Stage):
    """Definition 4: run-length encode the symbol-index stream.

    Output is an ``(runs, 2)`` int64 array of ``(symbol_index, count)``
    pairs.  The streaming state is the open trailing run, emitted only when a
    different symbol arrives or the stream is flushed — so chunk boundaries
    can never split a run and chunked output concatenates to the batch
    output exactly.
    """

    def initial_state(self) -> Optional[Tuple[int, int]]:
        return None

    def process(
        self, chunk: np.ndarray, state: Optional[Tuple[int, int]]
    ) -> Tuple[np.ndarray, Optional[Tuple[int, int]]]:
        indices = np.asarray(chunk, dtype=np.int64).ravel()
        if indices.size == 0:
            return self.empty_output(), state
        boundaries = np.flatnonzero(np.diff(indices)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [indices.size]])
        values = indices[starts]
        lengths = ends - starts
        if state is not None:
            if int(values[0]) == state[0]:
                lengths[0] += state[1]
            else:
                values = np.concatenate([[state[0]], values])
                lengths = np.concatenate([[state[1]], lengths])
        new_state = (int(values[-1]), int(lengths[-1]))
        completed = np.stack([values[:-1], lengths[:-1]], axis=1)
        return completed, new_state

    def flush(self, state: Optional[Tuple[int, int]]) -> np.ndarray:
        if state is None:
            return self.empty_output()
        return np.asarray([[state[0], state[1]]], dtype=np.int64)

    def empty_output(self) -> np.ndarray:
        return np.empty((0, 2), dtype=np.int64)

    def __repr__(self) -> str:
        return "RLEStage()"


def rle_encode(indices: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """Run-length encode an index array into ``(runs, 2)`` pairs."""
    return RLEStage().run_batch(np.asarray(indices, dtype=np.int64))


def rle_decode(pairs: np.ndarray) -> np.ndarray:
    """Expand ``(runs, 2)`` pairs back into the flat index array."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return np.empty(0, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise SegmentationError("RLE pairs must be an (runs, 2) array")
    return np.repeat(pairs[:, 0], pairs[:, 1])


class RLERuns(NamedTuple):
    """Run-length encoding of many rows as three flat arrays (no ragged lists).

    ``values[offsets[i]:offsets[i + 1]]`` are row ``i``'s run symbols and
    ``run_lengths`` the matching run counts, so a whole fleet's RLE lives in
    three contiguous ``int64`` arrays — the layout
    :class:`~repro.store.SymbolStore` persists as its RLE payload — instead
    of a Python list of per-meter ``(runs, 2)`` arrays.
    """

    values: np.ndarray
    run_lengths: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_matrix(cls, indices: np.ndarray) -> "RLERuns":
        """Run-length encode every row of an ``(N, windows)`` matrix at once.

        One vectorized pass over the flattened matrix: a run boundary is any
        element that differs from its predecessor *or* starts a new row, so
        runs never leak across meters.  Per row the result equals
        ``RLEStage().run_batch(row)``.  Integer input keeps its own dtype,
        so a decoded ``uint8`` block costs one byte per window while it
        runs; anything else is cast to ``int64`` first.
        """
        matrix = np.asarray(indices)
        if not np.issubdtype(matrix.dtype, np.integer):
            matrix = matrix.astype(np.int64)
        if matrix.ndim != 2:
            raise SegmentationError(
                f"expected a 2-D index matrix, got shape {matrix.shape}"
            )
        n_rows, n_cols = matrix.shape
        return cls.from_flat(
            matrix.ravel(), np.arange(n_rows + 1, dtype=np.int64) * n_cols
        )

    @classmethod
    def from_flat(cls, symbols: np.ndarray, offsets: np.ndarray) -> "RLERuns":
        """Run-length encode rows laid end to end in one flat symbol array.

        Row ``i`` is ``symbols[offsets[i]:offsets[i + 1]]``; rows may have
        any lengths, zero included.  A run boundary is any element that
        differs from its predecessor *or* starts a row.  Symbols are
        compared in their own integer dtype; ``values`` come back ``int64``.
        """
        flat = np.asarray(symbols).reshape(-1)
        offsets = np.asarray(offsets, dtype=np.int64)
        change = np.ones(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=change[1:])
        row_starts = offsets[:-1]
        change[row_starts[row_starts < flat.size]] = True
        run_starts = np.flatnonzero(change)
        return cls(
            values=flat[run_starts].astype(np.int64, copy=False),
            run_lengths=np.diff(np.append(run_starts, flat.size)),
            offsets=np.searchsorted(run_starts, offsets).astype(np.int64),
        )

    @classmethod
    def from_parts(
        cls, values: np.ndarray, run_lengths: np.ndarray, offsets: np.ndarray
    ) -> "RLERuns":
        """Validated constructor from the three flat arrays."""
        values = np.asarray(values, dtype=np.int64)
        run_lengths = np.asarray(run_lengths, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if values.shape != run_lengths.shape or values.ndim != 1:
            raise SegmentationError("values and run_lengths must be equal-length 1-D")
        if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0:
            raise SegmentationError("offsets must be 1-D and start at 0")
        if offsets[-1] != values.size or np.any(np.diff(offsets) < 0):
            raise SegmentationError("offsets must be non-decreasing and end at len(values)")
        return cls(values=values, run_lengths=run_lengths, offsets=offsets)

    @property
    def n_rows(self) -> int:
        return self.offsets.size - 1

    @property
    def n_runs(self) -> int:
        return int(self.values.size)

    def run_counts(self) -> np.ndarray:
        """Number of runs per row."""
        return np.diff(self.offsets)

    def row_lengths(self) -> np.ndarray:
        """Expanded (symbol) length of every row.

        Computed from the cumulative run lengths rather than
        ``np.add.reduceat`` so rows with zero runs (legal via
        :meth:`from_parts`) yield 0 instead of tripping reduceat's
        equal-indices edge cases.
        """
        cumulative = np.concatenate(
            [[0], np.cumsum(self.run_lengths, dtype=np.int64)]
        )
        return cumulative[self.offsets[1:]] - cumulative[self.offsets[:-1]]

    def expand_row(self, row: int) -> np.ndarray:
        """Decode one row back to its flat symbol-index array."""
        lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
        return np.repeat(self.values[lo:hi], self.run_lengths[lo:hi])

    def expand(self) -> np.ndarray:
        """Decode all rows back into an ``(N, windows)`` matrix.

        Requires every row to expand to the same width (always true for
        :meth:`from_matrix` output).
        """
        widths = self.row_lengths()
        if widths.size == 0:
            return np.empty((0, 0), dtype=np.int64)
        if np.any(widths != widths[0]):
            raise SegmentationError(
                "rows expand to different widths; use expand_row() instead"
            )
        flat = np.repeat(self.values, self.run_lengths)
        return flat.reshape(self.n_rows, int(widths[0]))
