"""Vectorized MINDIST-style lower-bound distance kernels (Lin et al. 2007).

The SAX lineage prunes similarity searches with a *lower-bounding* distance
computed on symbols alone: symbol ``j`` covers the value range
``(beta[j-1], beta[j]]`` of its breakpoint table, so the distance between two
symbols is at least the gap between their ranges — zero for adjacent or
equal symbols.  The same construction applies verbatim to the paper's
:class:`~repro.core.lookup.LookupTable`, whose separators *are* a breakpoint
table (:meth:`LookupTable.breakpoints`), and to the SAX/iSAX Gaussian
breakpoints — one kernel serves every encoder in this repo.

All kernels are pure array transforms over a breakpoint vector:

:func:`cell_bounds`
    The ``(k, k)`` matrix of per-symbol-pair lower bounds (the "cell"
    function of the SAX MINDIST definition), built with one broadcast.

:func:`mindist`
    The lower-bounding distance between symbol words, vectorized over any
    batch of candidate words — equal to :func:`repro.baselines.sax.mindist`
    for Gaussian breakpoints (pinned by ``tests/query/test_distance.py``).

:func:`value_cell_bounds`
    Per-(position, symbol) lower bounds for a *raw-valued* query against
    symbol ranges — valid even when reconstruction values are unknown
    (e.g. a store shipped without them).  The kNN engine itself bounds
    against the *known* reconstruction values instead (tighter), so this
    kernel is the range-only fallback of the same family.

:func:`banded_min_cells` / :func:`histogram_bound`
    The kNN engine's index tier: per-band minima of a query's squared cells
    against reconstruction values, and one matrix product of those minima
    with the ``.rsymx`` band histograms that lower-bounds every candidate
    at once.  Exact distances of the candidates that survive are scored
    by the refine kernel in :mod:`repro.query.ops` (``_knn_block``), not
    here.

The bounds hold against the decoded reconstruction values whenever each
symbol's reconstruction value lies inside its range, which is true for
tables fit on the paper's non-negative power data and for
:meth:`LookupTable.from_breakpoints` tables (property-tested across alphabet
sizes in ``tests/query/``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..core.lookup import LookupTable
from ..errors import QueryError

__all__ = [
    "breakpoints_of",
    "cell_bounds",
    "mindist",
    "value_cell_bounds",
    "banded_min_cells",
    "histogram_bound",
]


def breakpoints_of(
    table_or_breakpoints: Union[LookupTable, Sequence[float], np.ndarray],
) -> np.ndarray:
    """Normalise a table or raw vector into a ``float64`` breakpoint array."""
    if isinstance(table_or_breakpoints, LookupTable):
        return table_or_breakpoints.breakpoints()
    beta = np.asarray(table_or_breakpoints, dtype=np.float64).ravel()
    if beta.size == 0:
        raise QueryError("a breakpoint table needs at least one breakpoint")
    if np.any(np.diff(beta) < 0):
        raise QueryError("breakpoints must be non-decreasing")
    return beta


def cell_bounds(
    table_or_breakpoints: Union[LookupTable, Sequence[float], np.ndarray],
) -> np.ndarray:
    """``(k, k)`` lower-bound matrix between symbol pairs.

    ``cell[i, j] = beta[max(i,j) - 1] - beta[min(i,j)]`` when ``|i - j| > 1``
    and ``0`` otherwise — the SAX MINDIST cell function, computed for every
    pair with one broadcast.  Entry ``(i, j)`` lower-bounds ``|x - y|`` for
    any values ``x`` in symbol ``i``'s range and ``y`` in symbol ``j``'s.
    """
    beta = breakpoints_of(table_or_breakpoints)
    # Range edges: symbol s covers (low[s], high[s]] with unbounded ends.
    low = np.concatenate([[-np.inf], beta])
    high = np.concatenate([beta, [np.inf]])
    gap = low[None, :] - high[:, None]  # gap[i, j] = low[j] - high[i]
    return np.maximum(0.0, np.maximum(gap, gap.T))


def mindist(
    a: np.ndarray,
    b: np.ndarray,
    table_or_breakpoints: Union[LookupTable, Sequence[float], np.ndarray],
    original_length: Optional[int] = None,
) -> np.ndarray:
    """Lower-bounding distance between symbol-index words, vectorized.

    ``a`` and ``b`` are index arrays whose trailing axis is the word; leading
    axes broadcast, so one query word against ``(C, T)`` candidates is a
    single call.  ``original_length`` applies the SAX PAA compensation factor
    ``sqrt(n / w)`` (leave ``None`` for words at full resolution, e.g. the
    store's window columns).  Returns a scalar for two 1-D words.
    """
    cells = cell_bounds(table_or_breakpoints)
    k = cells.shape[0]
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[-1] != b.shape[-1]:
        raise QueryError(
            f"words must have equal length, got {a.shape[-1]} and {b.shape[-1]}"
        )
    for word in (a, b):
        if word.size and (word.min() < 0 or word.max() >= k):
            raise QueryError(
                f"symbol indices out of range for alphabet of size {k}"
            )
    squared = np.sum(cells[a, b] ** 2, axis=-1)
    length = a.shape[-1]
    scale = 1.0 if original_length is None else np.sqrt(original_length / length)
    out = scale * np.sqrt(squared)
    return float(out) if np.ndim(out) == 0 else out


def value_cell_bounds(
    values: np.ndarray,
    table_or_breakpoints: Union[LookupTable, Sequence[float], np.ndarray],
) -> np.ndarray:
    """Per-(position, symbol) lower bounds for raw query values.

    For each query value ``v`` and symbol ``s``, the returned entry
    lower-bounds ``|v - y|`` for any ``y`` in ``s``'s range: the distance
    from ``v`` to the range, zero when ``v`` falls inside it.  Shape is
    ``values.shape + (k,)``.  This bounds without knowing reconstruction
    values; the kNN engine, which does know them, uses the exact
    ``(v - reconstruction)^2`` cells instead.
    """
    beta = breakpoints_of(table_or_breakpoints)
    arr = np.asarray(values, dtype=np.float64)
    low = np.concatenate([[-np.inf], beta])
    high = np.concatenate([beta, [np.inf]])
    below = low - arr[..., None]   # positive when v is below the range
    above = arr[..., None] - high  # positive when v is above the range
    return np.maximum(0.0, np.maximum(below, above))


# -- batched kNN kernels -----------------------------------------------------------
#
# The kNN engine's hot loop is built from the three kernels below: per-band
# minima of the query's squared cells (the index-tier bound), one matrix
# product bounding every (query, candidate) pair at once, and the exact
# refinement distances — gathered off decoded symbols, or scored run by run
# straight off an RLE payload.


def banded_min_cells(
    cells: np.ndarray, bands: np.ndarray, n_bands: int
) -> np.ndarray:
    """Per-(band, symbol) minima of squared distance cells, batched.

    ``cells`` is ``(T, k)`` for one query or ``(Q, T, k)`` for a batch;
    ``bands`` assigns each of the ``T`` positions to one of ``n_bands``
    bands (any order — bands need not be contiguous).  Returns
    ``(..., n_bands, k)`` where entry ``(b, s)`` is the smallest
    ``cells[t, s]`` over the band's positions — the least any window
    holding symbol ``s`` in band ``b`` can contribute to a squared
    distance.  Empty bands contribute ``0``.

    One stable argsort of ``bands`` plus ``np.minimum.reduceat`` over the
    sorted positions replaces a Python-level ``np.minimum.at`` per query —
    the batched form is what makes multi-query bounds one call.
    """
    arr = np.asarray(cells, dtype=np.float64)
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[None]
    if arr.ndim != 3:
        raise QueryError(f"cells must be (T, k) or (Q, T, k), got {cells.shape}")
    n_bands = int(n_bands)
    if n_bands < 1:
        raise QueryError(f"n_bands must be >= 1, got {n_bands}")
    bands = np.asarray(bands, dtype=np.int64)
    if bands.shape != (arr.shape[1],):
        raise QueryError(
            f"bands must have one entry per position, got {bands.shape} "
            f"for {arr.shape[1]} positions"
        )
    if bands.size == 0:
        return np.zeros(
            (arr.shape[0], n_bands, arr.shape[2]) if not squeeze
            else (n_bands, arr.shape[2])
        )
    if bands.min() < 0 or bands.max() >= n_bands:
        raise QueryError(f"band labels out of range [0, {n_bands})")
    # Time-of-day bands tile a fixed period of equal contiguous segments
    # (band = (t % per_day) * n_bands // per_day); recognising that shape
    # turns the kernel into one strided ``min`` over a reshape — no
    # position gather, no reduceat.  ``min`` is exact, so both paths
    # return bit-identical cells.
    runs = np.flatnonzero(bands != bands[0])
    seg = int(runs[0]) if runs.size else bands.size
    period = n_bands * seg
    if bands[0] == 0 and bands.size % period == 0:
        pattern = np.repeat(np.arange(n_bands), seg)
        reps = bands.size // period
        if np.array_equal(bands, np.tile(pattern, reps)):
            out = arr.reshape(
                arr.shape[0], reps, n_bands, seg, arr.shape[2]
            ).min(axis=(1, 3))
            return out[0] if squeeze else out
    order = np.argsort(bands, kind="stable")
    present, starts = np.unique(bands[order], return_index=True)
    # reduceat over the segment start of each *present* band only: feeding
    # it empty segments would return stray elements and shift neighbours'
    # boundaries.  Absent bands stay at the zero they contribute.
    reduced = np.minimum.reduceat(arr[:, order, :], starts, axis=1)
    out = np.zeros((arr.shape[0], n_bands, arr.shape[2]))
    out[:, present, :] = reduced
    return out[0] if squeeze else out


def histogram_bound(
    min_cells: np.ndarray, band_histograms: np.ndarray
) -> np.ndarray:
    """Squared lower bounds for every (query, candidate) pair in one matmul.

    ``min_cells`` is the :func:`banded_min_cells` output for ``Q`` queries
    (``(Q, n_bands, k)`` or ``(n_bands, k)``); ``band_histograms`` the
    candidates' ``(C, n_bands, k)`` symbol counts.  A candidate whose band
    ``b`` holds ``h`` windows of symbol ``s`` is at squared distance at
    least ``h * min_cells[b, s]`` from those windows, so the full bound is
    one ``(Q, n_bands * k) @ (n_bands * k, C)`` product — all queries
    against all candidates at once, no payload bytes touched.
    """
    mins = np.asarray(min_cells, dtype=np.float64)
    hist = np.asarray(band_histograms, dtype=np.float64)
    squeeze = mins.ndim == 2
    if squeeze:
        mins = mins[None]
    if mins.ndim != 3 or hist.ndim != 3:
        raise QueryError(
            f"expected (Q, bands, k) minima and (C, bands, k) histograms, "
            f"got {min_cells.shape} and {band_histograms.shape}"
        )
    if mins.shape[1:] != hist.shape[1:]:
        raise QueryError(
            f"minima and histograms disagree on (bands, k): "
            f"{mins.shape[1:]} vs {hist.shape[1:]}"
        )
    out = mins.reshape(mins.shape[0], -1) @ hist.reshape(hist.shape[0], -1).T
    return out[0] if squeeze else out
