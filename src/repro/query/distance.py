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
    at once.

:func:`transport_bound`
    The kNN engine's transport tier: the same band histograms, bounded by
    the cheapest (sorted) pairing of each band's query values with a
    candidate's reconstruction values — the 1-D earth mover's distance —
    with a derived float-rounding allowance.  kNN computes it only for
    each query's frontier.  Exact distances of the candidates that survive
    are scored by the refine kernel in :mod:`repro.query.ops`
    (``_knn_block``), not here.

The symbol-range bounds (:func:`cell_bounds`, :func:`mindist`,
:func:`value_cell_bounds`) hold against the decoded reconstruction values
whenever each symbol's reconstruction value lies inside its range, which is
true for tables fit on the paper's non-negative power data and for
:meth:`LookupTable.from_breakpoints` tables (property-tested across alphabet
sizes in ``tests/query/``).  The two histogram bounds use the
reconstruction values themselves and hold for any table.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

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
    "transport_bound",
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
# The kNN engine's bounds are the kernels below: per-band minima of the
# query's squared cells and one matrix product bounding every (query,
# candidate) pair at once (the index tier), and the band transport bound
# for each query's frontier (the transport tier).


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


#: Pair x term elements per :func:`transport_bound` gather (~8 MB of intp
#: indices), so a wide frontier costs memory in chunks, not all at once.
_TRANSPORT_ELEMENTS = 1 << 20


def transport_bound(
    values: np.ndarray,
    bands: np.ndarray,
    n_bands: int,
    reconstruction: np.ndarray,
    band_histograms: np.ndarray,
    rows: Optional[np.ndarray] = None,
    cols: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(bound, allowance)``: the band transport bound and its rounding margin.

    Inside a band, a candidate's windows hold a multiset of reconstruction
    values (its band histogram), and its squared distance to the query pairs
    each query value of the band with one of them.  The cheapest pairing is
    the sorted one, the 1-D earth mover's distance (Rubner, Tomasi &
    Guibas, IJCV 2000), so with each band's sorted query values prefix-summed
    into ``S_b`` and the candidate's cumulative counts ``e[b, s]`` (symbols
    in reconstruction order ``r``)::

        sum_t (x_t - r[k-1])^2
          + sum_b sum_{s<k-1} (r[s] - r[s+1]) * (e[b, s] * (r[s] + r[s+1])
                                                 - 2 * S_b[e[b, s]])

    is a lower bound on the squared distance at least as tight as
    :func:`histogram_bound`, at ``n_bands * (k - 1)`` lookups a pair.

    ``values`` is ``(Q, T)`` (or one ``(T,)`` vector), ``bands`` assigns the
    ``T`` positions to ``n_bands`` bands exactly as the histograms were
    folded, and ``band_histograms`` is ``(C, n_bands, k)``.  Returns ``(Q,
    C)`` arrays (``(C,)`` for one vector), or ``(P,)`` for the pairs
    ``(rows[p], cols[p])`` when both are given.

    ``allowance`` bounds the float rounding of ``bound``:
    ``2 * (T + n_bands * k) * eps`` times the magnitudes of its terms
    (``sum_t (x_t - r[k-1])^2``, ``sum |e * (r[s]^2 - r[s+1]^2)|`` and
    ``2 * sum_s |r[s] - r[s+1]| * sum_t |x_t|``).  Each of those terms
    carries a relative error of at most ``gamma_n = n*u / (1 - n*u)``
    (``u = eps / 2``), ``n`` being its summation length plus a few
    operations, the longest being the ``T``-term sum and a band's prefix
    sum followed by the ``n_bands * k``-term sum over the pair's terms; the
    margin is twice ``gamma_{T + n_bands*k + 8}``.  So ``bound -
    allowance`` never exceeds the exact transport cost, hence never the
    exact squared distance.
    """
    x = np.asarray(values, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None]
    hist = np.asarray(band_histograms)
    recon = np.asarray(reconstruction, dtype=np.float64).ravel()
    n_bands = int(n_bands)
    bands = np.asarray(bands, dtype=np.int64)
    if x.ndim != 2 or hist.ndim != 3:
        raise QueryError(
            f"expected (Q, T) values and (C, bands, k) histograms, got "
            f"{np.shape(values)} and {np.shape(band_histograms)}"
        )
    if hist.shape[1:] != (n_bands, recon.size):
        raise QueryError(
            f"histograms of shape {hist.shape[1:]} do not match {n_bands} "
            f"bands of {recon.size} symbols"
        )
    if bands.shape != (x.shape[1],):
        raise QueryError(
            f"bands must have one entry per position, got {bands.shape} "
            f"for {x.shape[1]} positions"
        )
    if bands.size and (bands.min() < 0 or bands.max() >= n_bands):
        raise QueryError(f"band labels out of range [0, {n_bands})")
    pairs = rows is not None
    if pairs:
        # Only the paired candidates' counts are read.
        rows = np.asarray(rows, dtype=np.intp).ravel()
        used, cols = np.unique(
            np.asarray(cols, dtype=np.intp).ravel(), return_inverse=True
        )
        hist = hist[used]
    else:
        shape = (x.shape[0], hist.shape[0])
        rows = np.repeat(np.arange(shape[0]), shape[1])
        cols = np.tile(np.arange(shape[1]), shape[0])
    T, k = x.shape[1], recon.size
    # Symbols in reconstruction order: the sorted pairing hands a band's
    # smallest query values to its lowest reconstruction values.
    rank = np.argsort(recon, kind="stable")
    r = recon[rank]
    step = r[:-1] - r[1:]                            # (k-1,), <= 0
    # Candidate side: cumulative counts in that order, one product with a
    # 0/1 matrix (exact: every partial sum is a small integer), whose last
    # column must be each band's window count.
    sizes = np.bincount(bands, minlength=n_bands)
    after = np.empty(k, dtype=np.intp)
    after[rank] = np.arange(k)
    upto = (after[:, None] <= np.arange(k)[None, :]).astype(np.float64)
    cumulative = (hist.reshape(-1, k) @ upto).reshape(hist.shape)
    if np.any(cumulative[:, :, -1] != sizes):
        raise QueryError(
            "band histograms must count each band's windows exactly once "
            f"({sizes.tolist()} windows per band)"
        )
    terms = n_bands * (k - 1)
    counts = cumulative[:, :, :-1].reshape(hist.shape[0], terms)
    # The query-free term and its magnitude.  einsum sums each row on its
    # own, so a pair's bound does not depend on which other pairs share the
    # call (a BLAS mat-vec's can).
    weights = np.tile(step * (r[:-1] + r[1:]), n_bands)   # r[s]^2 - r[s+1]^2
    own = np.einsum("ct,t->c", counts, weights)
    own_size = np.einsum("ct,t->c", counts, np.abs(weights))
    # Query side: each band's values sorted and prefix-summed, in a
    # (Q, n_bands, longest band + 1) grid; a shorter band pads with +inf,
    # which sorts last and sits past every count that looks it up.
    width = int(sizes.max(initial=0)) + 1
    by_band = np.argsort(bands, kind="stable")
    slot = np.arange(T) - (np.cumsum(sizes) - sizes)[bands[by_band]]
    source = np.full(n_bands * (width - 1), T)       # T: the +inf column
    source[bands[by_band] * (width - 1) + slot] = by_band
    padded = np.concatenate([x, np.full((x.shape[0], 1), np.inf)], axis=1)
    grid = padded.take(source, axis=1).reshape(x.shape[0], n_bands, width - 1)
    grid.sort(axis=2)
    prefix = np.zeros((x.shape[0], n_bands, width))
    np.cumsum(grid, axis=2, out=prefix[:, :, 1:])
    base = ((x - r[-1]) ** 2).sum(axis=1)            # (Q,)
    spread = 2.0 * np.abs(step).sum() * np.abs(x).sum(axis=1)
    # A pair's lookups: its candidate's counts as offsets into the grid.
    lookups = counts.astype(np.intp) + np.repeat(np.arange(n_bands) * width, k - 1)
    cross = np.empty(rows.size)
    flat_prefix = prefix.ravel()
    step_terms = np.tile(step, n_bands)
    chunk = max(1, _TRANSPORT_ELEMENTS // max(1, terms))
    for p0 in range(0, rows.size, chunk):
        r0, c0 = rows[p0: p0 + chunk], cols[p0: p0 + chunk]
        flat = lookups[c0] + (r0 * (n_bands * width))[:, None]
        cross[p0: p0 + chunk] = np.einsum(
            "pt,t->p", flat_prefix.take(flat), step_terms
        )
    bound = base[rows] + own[cols] - 2.0 * cross
    size = base[rows] + own_size[cols] + spread[rows]
    allowance = 2.0 * (T + n_bands * k) * np.finfo(np.float64).eps * size
    if pairs:
        return bound, allowance
    bound, allowance = bound.reshape(shape), allowance.reshape(shape)
    return (bound[0], allowance[0]) if squeeze else (bound, allowance)
