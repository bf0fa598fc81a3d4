"""Store-native scan operators: the units a :class:`~repro.query.plan.ScanPlan` composes.

Every query kind in ``repro.query`` — kNN, pattern match, aggregation, index
build, and the fleet-monitoring workloads (anomaly, drift, private
aggregates) — is expressed as one *operator* over one *source*:

:class:`ColumnSource`
    One read abstraction over ``.rsym`` files and ``.rsyms`` segment
    directories (dense and RLE, per-segment table epochs): block-granular
    ``matrix_blocks``/``run_blocks`` reads, column statistics read off the
    attached :class:`~repro.query.index.QueryIndex`, and a
    :class:`SourceStats` decode counter that makes "this operator never
    touched payload bytes" a testable claim.

:class:`Operator` subclasses
    Declare the axis they shard over (``items``), do their work on one shard
    (``run_shard`` — also the unit a shard thread executes), and fold shard
    results back together (``merge``, task-ordered).  Operators are plain
    frozen dataclasses; anything a shard needs (a pruning
    :class:`~repro.query.index.QueryIndex`, query vectors, pattern tokens)
    rides on the operator itself, never on ambient state.

:class:`SymbolCountPrune`
    The ``.rsymx`` histogram pruning stage: drops columns whose symbol
    counts cannot satisfy a pattern before any payload bytes are read.
    (kNN's per-query histogram *bound* lives inside its refine kernel — it
    prunes per query, not per column, so it is not a plan stage.)

The sharding/merge loop itself lives in :mod:`repro.query.plan`; it is the
only one in ``repro.query``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.lookup import LookupTable
from ..errors import QueryError
from ..obs import registry as _obs_registry, tracer as _obs_tracer
from ..pipeline.stages import RLERuns
from ..store.format import RLE, _Segment
from ..store.packing import symbol_dtype
from .distance import banded_min_cells, histogram_bound, transport_bound
from .index import QueryIndex, _shard_stats
from .patterns import PatternMatches, SymbolPattern, match_runs
from .verbs import PrivateAggParams

__all__ = [
    "ColumnSource",
    "SourceStats",
    "Operator",
    "SymbolCountPrune",
    "KNNOperator",
    "MatchOperator",
    "AggregateOperator",
    "IndexBuildOperator",
    "AnomalyOperator",
    "AnomalyReport",
    "DriftOperator",
    "DriftReport",
    "GroupAggregateOperator",
    "PrivateAggregateReport",
    "resolve_shared_table",
]

#: One-sided slack on the kNN pruning bound: float rounding in the histogram
#: matrix product may lift a lower bound a few ulps above the true distance
#: on exact ties; the margin turns that into (at most) extra refinement.
_PRUNE_SLACK = 1e-9

#: Queries bounded per matmul: cells are ``(block, T, k)`` float64, so 64
#: queries of a week-long 16-symbol column stay ~5 MB while one
#: :func:`histogram_bound` product covers the whole block.
_QUERY_BLOCK = 64

#: Cap on elements per refinement gather (~8 MB of intp indices): one
#: refine round scores ``active * chunk * T`` cells, which brute force
#: (chunk = all candidates) would otherwise let grow with the fleet.
_GATHER_ELEMENTS = 1 << 20


def resolve_shared_table(store) -> LookupTable:
    """The one table all of ``store``'s columns share, or a loud refusal.

    Per-column and by-label table sets, and the tables of a store's
    segments, collapse to a single table when all entries are equal (the
    re-normalisation path); genuinely distinct tables raise
    :class:`QueryError`, naming how many, because cross-column symbol
    distances would be meaningless.  Segments that each carry one shared
    table but disagree are table epochs (a drift rebuild), not per-meter
    tables, and the refusal says so.
    """
    tables = store.tables
    if tables is None:
        raise QueryError(
            f"{store.path.name} carries no lookup tables; distance queries "
            "need the serialized table to derive breakpoints"
        )
    if isinstance(tables, LookupTable):
        return tables
    pool = list(tables.values()) if isinstance(tables, dict) else list(tables)
    if not pool:
        raise QueryError(f"{store.path.name} has an empty table payload")
    head = pool[0]
    if all(table == head for table in pool[1:]):
        return head
    distinct = len({
        (t.size, tuple(t.separators), tuple(t.reconstruction_values))
        for t in pool
    })
    if all(isinstance(seg.tables, LookupTable) for seg in store.segments):
        raise QueryError(
            f"{store.path.name} carries {distinct} table epochs: its segments "
            "were encoded under different shared tables, so the same symbol "
            "index maps to different watt ranges in different segments and "
            "distances across them would be nonsense. Distance queries need "
            "one table across the store; re-encode it under one shared table "
            "to make it searchable."
        )
    raise QueryError(
        f"{store.path.name} carries {distinct} distinct per-meter lookup "
        "tables: the same symbol index maps to different watt ranges on "
        "different columns, so cross-column distances would be nonsense. "
        "Re-encode the fleet with a shared table "
        "(write_fleet_store(..., shared_table=True) or encode --all "
        "--global-table) to make it searchable."
    )


@dataclass
class SourceStats:
    """Read accounting for one :class:`ColumnSource`.

    ``columns_decoded`` counts column payload reads (matrix decodes and
    histogram scans); ``runs_read`` counts run-array reads.  The drift
    operator's "no column decode" guarantee is asserted against these.
    """

    columns_decoded: int = 0
    runs_read: int = 0


class ColumnSource:
    """One store (file or segment directory) as a readable column set.

    All operator reads go through here so they are *counted* (``stats``).
    Per-column histograms, peaks and run counts come off the attached
    :class:`QueryIndex` (``index``) without touching payload bytes; the
    :class:`QueryEngine` attaches its one index before it plans.
    """

    def __init__(self, store, index: Optional[QueryIndex] = None) -> None:
        self.store = store
        self.index = index
        self.stats = SourceStats()
        #: One reentrant lock guards every lazy cache and stats counter:
        #: a threaded server shares one source across handler threads, and
        #: unsynchronized "check-then-fill" caching would double-decode (or
        #: tear the counters).  Reentrant because cached getters call the
        #: counted readers, which take the same lock.
        self._lock = threading.RLock()
        self._table: Optional[LookupTable] = None
        # Registry instruments, resolved once per source so counted reads
        # pay one cached-attribute increment (no-op when metrics are off).
        metrics = _obs_registry()
        self._m_columns = metrics.counter(
            "store.columns_decoded_total",
            "Column payload reads through ColumnSource")
        self._m_runs = metrics.counter(
            "store.runs_read_total", "Run-array reads through ColumnSource")
        self._m_blocks = metrics.counter(
            "store.blocks_read_total", "Block-granular read calls")
        self._m_bytes = metrics.counter(
            "store.bytes_decoded_total", "Decoded bytes returned to readers")
        self._m_cache_hits = metrics.counter(
            "store.cache_hits_total",
            "Reads served from the source's caches or the .rsymx index")

    def for_shard(self) -> "ColumnSource":
        """A source over the same open store for one plan shard thread.

        It counts its own reads (its own :class:`SourceStats`) but shares
        this source's index and starts from its cached table, taken under
        this source's lock, so a shard never resolves it again.
        """
        shard = ColumnSource(self.store, index=self.index)
        with self._lock:
            shard._table = self._table
        return shard

    # -- delegated shape ---------------------------------------------------------

    @property
    def n_columns(self) -> int:
        return self.store.n_meters

    @property
    def ids(self) -> List:
        return self.store.ids

    @property
    def counts(self) -> np.ndarray:
        return self.store.counts

    @property
    def alphabet_size(self) -> int:
        return self.store.alphabet_size

    @property
    def table(self) -> LookupTable:
        """The shared lookup table (resolved once, refusal cached)."""
        with self._lock:
            if self._table is None:
                self._table = resolve_shared_table(self.store)
            return self._table

    def resolve(self, meters) -> List[int]:
        return self.store._resolve_meters(meters)

    # -- counted reads -----------------------------------------------------------

    def _count_decode(self, n: int) -> None:
        """Count one block read that decodes ``n`` columns."""
        with self._lock:
            self.stats.columns_decoded += n
        self._m_columns.inc(n)
        self._m_blocks.inc()

    def matrix(self, meters=None, window_range=None, columns=None) -> np.ndarray:
        """One counted read, one :func:`~repro.store.format.read_spans`
        decode, of the meter ids ``meters`` or the column positions
        ``columns`` (every column when both are ``None``)."""
        if meters is not None:
            columns = self.resolve(meters)
        self._count_decode(self.n_columns if columns is None else len(columns))
        result = self.store._read(columns, window_range)
        self._m_bytes.inc(int(result.nbytes))
        return result

    def matrix_block(self, start: int, stop: int, window_range=None) -> np.ndarray:
        """Decode the contiguous column block ``[start, stop)`` (counted)."""
        self._count_decode(max(0, int(stop) - int(start)))
        result = self.store.matrix_block(start, stop, window_range=window_range)
        self._m_bytes.inc(int(result.nbytes))
        return result

    def run_blocks(
        self, columns: Sequence[int]
    ) -> Iterator[Tuple[Sequence[int], RLERuns]]:
        """``(block, runs)`` over the column positions ``columns`` (counted).

        One :meth:`SymbolStore.run_blocks` read per block: ``runs_read``
        grows by the block's column count, as it would for that many
        one-column reads.
        """
        for block, runs in self.store.run_blocks(columns):
            with self._lock:
                self.stats.runs_read += len(block)
            self._m_runs.inc(len(block))
            self._m_blocks.inc()
            yield block, runs

    def matrix_blocks(
        self, columns: Sequence[int]
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """``(rows, symbols)`` over the column positions ``columns`` (counted).

        The positional twin of :meth:`run_blocks`: columns of one symbol
        count decode together, at most ``_Segment._RUN_SCAN_BLOCK`` per
        read, each read one :func:`~repro.store.format.read_spans` decode
        across the segments; ``rows`` are the read's places in ``columns``.
        A bare file may hold columns of different lengths, and each length
        reads on its own.
        """
        cols = np.asarray(columns, dtype=np.int64).reshape(-1)
        widths = self.counts[cols]
        step = _Segment._RUN_SCAN_BLOCK
        for width in np.unique(widths).tolist():
            group = np.flatnonzero(widths == width)
            for start in range(0, group.size, step):
                rows = group[start: start + step]
                yield rows, self.matrix(columns=cols[rows])

    def runs(self, meter) -> tuple:
        """``(run_values, run_lengths)`` of one column: a one-column block."""
        ((_, runs),) = self.run_blocks([self.store._column(meter)])
        return runs.values, runs.run_lengths

    def _scan_stats(self, start: int, stop: int, n_bands: int,
                    window_range: Optional[tuple] = None) -> tuple:
        """Banded histogram scan of ``[start, stop)`` — a payload read, made
        only by an index build and by a reload's appended share."""
        self._count_decode(max(0, int(stop) - int(start)))
        return _shard_stats(self.store, int(start), int(stop), n_bands, window_range)

    # -- cached column statistics ------------------------------------------------

    def column_stats(
        self, columns: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(histograms, peaks, run counts)`` for ``columns`` (default: the
        whole fleet), read off the attached index: zero payload reads."""
        if self.index is None:
            raise QueryError("column statistics need a query index attached")
        self._m_cache_hits.inc()
        index = self.index
        stats = (index.histograms, index.max_symbols, index.run_counts)
        if columns is None:
            return stats
        cols = np.asarray(list(columns), dtype=np.int64)
        return tuple(stat[cols] for stat in stats)

    def __repr__(self) -> str:
        indexed = "indexed" if self.index is not None else "no index"
        return (
            f"ColumnSource({self.store.path.name!r}, "
            f"columns={self.n_columns}, {indexed})"
        )


# -- operator protocol ---------------------------------------------------------


class Operator:
    """Base scan operator: shard axis, per-shard work, task-ordered merge.

    Subclasses are frozen dataclasses, because concurrent shards may share
    one operator.  ``run_shard`` must be a pure function of ``(source,
    items)`` — it runs on the caller's thread (serial path) or on a shard
    thread, concurrently with the other shards, each through its own source
    over the same open store — and ``merge`` must fold shard results in
    task order, so plan results are bit-identical for every worker count.
    """

    def items(self, source: ColumnSource) -> Sequence:
        """The full work list this operator shards over (default: columns)."""
        return list(range(source.n_columns))

    def run_shard(self, source: ColumnSource, items: Sequence):
        raise NotImplementedError

    def merge(self, parts: List, source: ColumnSource, items: Sequence,
              kept: Sequence):
        raise NotImplementedError


@dataclass(frozen=True)
class SymbolCountPrune:
    """Pruning stage: drop columns whose histograms cannot satisfy ``needed``.

    ``needed[s]`` is the minimum number of windows at symbol ``s`` any match
    requires (:meth:`SymbolPattern.min_symbol_counts`); the ``.rsymx``
    histograms reject columns below it without reading payload bytes.
    """

    needed: np.ndarray
    index: QueryIndex

    def apply(self, source: ColumnSource, items: Sequence[int]) -> List[int]:
        cols = list(items)
        if not cols:
            return cols
        hist = self.index.histograms[np.asarray(cols, dtype=np.int64)]
        skip = np.any(hist < self.needed[None, :], axis=1)
        return [c for c, skipped in zip(cols, skip) if not skipped]


# -- kNN -----------------------------------------------------------------------


def _transport_frontier(
    order: np.ndarray,
    lb_sorted: np.ndarray,
    active: np.ndarray,
    at: int,
    limit: np.ndarray,
    block: np.ndarray,
    bands: np.ndarray,
    n_bands: int,
    recon: np.ndarray,
    counted: np.ndarray,
) -> None:
    """Tighten each active query's frontier bounds to the band transport
    bound, in place.

    Query ``q``'s frontier is its ranks from ``at`` whose bound is within
    ``limit``; each takes ``max(bound, transport - allowance)``
    (:func:`transport_bound`, still a lower bound on the squared distance),
    and the frontier re-sorts by it.  Every rank past the frontier is
    beyond the limit already, so the ranks within any limit up to
    ``limit`` stay a prefix of each row.
    """
    inside = np.sum(lb_sorted[active, at:] <= limit[:, None], axis=1)
    width = int(inside.max(initial=0))
    if not width:
        return
    window = at + np.arange(width)
    rows, offsets = np.nonzero(np.arange(width)[None, :] < inside[:, None])
    pair_queries = active[rows]
    bound, allowance = transport_bound(
        block, bands, n_bands, recon, counted,
        rows=pair_queries, cols=order[pair_queries, at + offsets],
    )
    keys = lb_sorted[active[:, None], window]
    keys[rows, offsets] = np.maximum(keys[rows, offsets], bound - allowance)
    resort = np.argsort(keys, axis=1, kind="stable")
    lb_sorted[active[:, None], window] = np.take_along_axis(keys, resort, axis=1)
    order[active[:, None], window] = np.take_along_axis(
        order[active[:, None], window], resort, axis=1
    )


def _knn_block(
    source: ColumnSource,
    index: Optional[QueryIndex],
    queries: np.ndarray,
    k: int,
    refine_chunk: int,
    exclude: np.ndarray,
) -> tuple:
    """Serial kNN for one block of queries; the unit a shard executes.

    Returns ``(positions, distances, refined)`` with ``positions`` of shape
    ``(len(queries), kk)`` where ``kk = min(k, candidates)`` and
    ``refined`` the number of exact distances computed.

    Queries are processed ``_QUERY_BLOCK`` at a time: the squared cells of
    the whole sub-block are built with one broadcast, their lower bounds
    with one :func:`banded_min_cells` + :func:`histogram_bound` matmul, and
    the block reads the store at most twice — once for the rounds that
    find each query's first k-th distance, once for every candidate a
    later round can still refine — each read one ``source.matrix`` call
    that decodes once across the store's segments.  Just before the second
    read, each query's frontier (the candidates whose bound is within its
    first k-th distance) tightens to the band transport bound
    (:func:`transport_bound`) and re-sorts by it, and only the candidates
    still within the limit are read.  Refine rounds then score, of the
    columns already held, only those whose bound is within the current
    k-th distance.  Neighbours and distances are bit-identical for every
    block split — the bounds' last-ulp rounding can only move work between
    the pruned and refined sets, never change an exact distance.
    """
    # Local import: plan.py imports operators from this module, so the
    # deadline hook cannot live at module scope without a cycle.
    from .plan import check_deadline

    store = source.store
    table = source.table
    counts = store.counts
    if counts.size == 0:
        raise QueryError(f"{store.path.name} is empty")
    if np.any(counts != counts[0]):
        raise QueryError(
            "kNN needs equal-length columns; this store's columns hold "
            "different symbol counts"
        )
    T = int(counts[0])
    if T == 0:
        raise QueryError("cannot search zero-length columns")
    recon = table.reconstruction_array
    candidates = np.setdiff1d(
        np.arange(store.n_meters, dtype=np.int64), exclude
    )
    if candidates.size == 0:
        raise QueryError("every column was excluded; nothing to search")
    kk = min(int(k), candidates.size)
    refine_chunk = max(1, int(refine_chunk))
    positions = np.empty((queries.shape[0], kk), dtype=np.int64)
    distances = np.empty((queries.shape[0], kk), dtype=np.float64)
    refined_total = 0
    rounds_total = 0
    C = candidates.size
    # Decoded candidate rows, by candidate rank, shared by every query of
    # the batch, in the store's narrow symbol dtype (one byte per symbol up
    # to 8 bits; the flat-index add below promotes to ``intp``).
    # ``np.empty`` commits pages lazily, so untouched (pruned) rows cost no
    # physical memory.
    decoded = np.empty((C, T), dtype=symbol_dtype(store.bits_per_symbol))
    have = np.zeros(C, dtype=bool)
    t_base = np.arange(T, dtype=np.intp) * recon.size

    def fill(ranks: np.ndarray) -> None:
        """Decode the candidates among ``ranks`` not held yet, in one read."""
        missing = ranks[~have[ranks]]
        if missing.size:
            missing = np.unique(missing)
            # By position: a store may repeat an id, and an id names its
            # last column.
            decoded[missing] = source.matrix(columns=candidates[missing])
            have[missing] = True

    if index is not None:
        bands = index.bands_for(T)
        whole = candidates.size == index.n_meters
        counted = index.band_histograms if whole else index.band_histograms[candidates]
        banded = index.float_histograms if whole else counted
    for b0 in range(0, queries.shape[0], _QUERY_BLOCK):
        check_deadline(b0, queries.shape[0])
        block = queries[b0: b0 + _QUERY_BLOCK]
        n_block = block.shape[0]
        # Shared query-reconstruction precompute: every query's (T, k)
        # squared cells in one broadcast, bounds for the whole sub-block
        # against every candidate in one matmul.
        block_cells = (block[:, :, None] - recon[None, None, :]) ** 2
        if index is not None:
            lb_block = histogram_bound(
                banded_min_cells(block_cells, bands, index.n_bands), banded
            )
        else:
            lb_block = np.zeros((n_block, C))
        order = np.argsort(lb_block, axis=1, kind="stable")
        lb_sorted = np.take_along_axis(lb_block, order, axis=1)
        # Refine rounds run for all still-active queries at once.  Every
        # active query has passed the first ``at`` ranks of its order, so
        # one decode + one flat gather + one batched partition advance the
        # whole sub-block a round.
        d2_sorted = np.empty((n_block, C), dtype=np.float64)
        kth2 = np.full(n_block, np.inf)
        n_refined = np.zeros(n_block, dtype=np.int64)
        active = np.arange(n_block)
        # The block reads the store at most twice.  The first read covers
        # every round before each query has a k-th distance: those rounds
        # prune nothing.  The second, the frontier read, covers every
        # candidate a later round can still refine (multi-step kNN, Seidl &
        # Kriegel, SIGMOD 1998): a later round scores only ranks whose bound
        # is within the k-th distance, which only shrinks, so the ranks
        # whose bound is within the first k-th distance hold them all.
        # Before that read, the frontier's bounds tighten to the band
        # transport bound and the frontier re-sorts by it.
        fill(order[:, : min(C, -(-kk // refine_chunk) * refine_chunk)])
        frontier_read = False
        at = 0
        while active.size and at < C:
            # Refine rounds are the expensive inner loop: even a one-query
            # plan notices expiry between rounds, not only between blocks.
            check_deadline(b0, queries.shape[0])
            hi = min(at + refine_chunk, C)
            if at < kk:
                scored = np.ones((active.size, hi - at), dtype=bool)
            else:
                limit = kth2[active] * (1.0 + _PRUNE_SLACK)
                if not frontier_read:
                    if index is not None:
                        _transport_frontier(
                            order, lb_sorted, active, at, limit, block,
                            bands, index.n_bands, recon, counted,
                        )
                    inside = lb_sorted[active, at:] <= limit[:, None]
                    fill(order[active, at:][inside])
                    frontier_read = True
                # Sorted ranks within the limit are a prefix of each row: a
                # query whose round stops short is done after it.
                scored = lb_sorted[active, at:hi] <= limit[:, None]
                still = scored[:, 0]
                active, scored = active[still], scored[still]
                if not active.size:
                    break
            rounds_total += 1
            rows, offsets = np.nonzero(scored)
            pair_queries = active[rows]
            ranks = order[pair_queries, at + offsets]
            fill(ranks)                       # a no-op once the frontier is read
            # One flat gather scores every (query, candidate) pair of the
            # round: cells[q, t, s] lives at offset q*T*k + t*k + s, and the
            # per-pair sum over T matches the serial form bit for bit.
            # Large rounds (brute force refines every candidate at once) run
            # in pair segments so the gather temporaries stay a few MB
            # instead of scaling with queries * candidates.
            d2 = np.empty(ranks.size, dtype=np.float64)
            segment = max(1, _GATHER_ELEMENTS // T)
            for s0 in range(0, ranks.size, segment):
                flat = (
                    pair_queries[s0: s0 + segment, None] * (T * recon.size)
                    + t_base[None, :]
                    + decoded[ranks[s0: s0 + segment]]
                )
                d2[s0: s0 + segment] = block_cells.take(flat).sum(axis=1)
            d2_sorted[active, at:hi] = np.inf
            d2_sorted[pair_queries, at + offsets] = d2
            n_refined[active] = at + scored.sum(axis=1)
            if hi >= kk:
                kth2[active] = np.partition(
                    d2_sorted[active, :hi], kk - 1, axis=1
                )[:, kk - 1]
            at = hi
        refined_total += int(n_refined.sum())
        for bi in range(n_block):
            n = int(n_refined[bi])
            refined_cols = candidates[order[bi, :n]]
            refined_d2 = d2_sorted[bi, :n]
            best = np.lexsort((refined_cols, refined_d2))[:kk]
            positions[b0 + bi] = refined_cols[best]
            distances[b0 + bi] = np.sqrt(refined_d2[best])
    metrics = _obs_registry()
    if metrics.enabled:
        metrics.counter(
            "query.refine_rounds_total",
            "kNN refine rounds run (bounded-decode-prune iterations)",
        ).inc(rounds_total)
    current = _obs_tracer().current_span()
    if current is not None:
        current.set_attribute(
            "refine_rounds",
            int(current.attributes.get("refine_rounds", 0)) + rounds_total,
        )
        current.set_attribute(
            "refined",
            int(current.attributes.get("refined", 0)) + refined_total,
        )
    return positions, distances, refined_total


@dataclass(frozen=True)
class KNNOperator(Operator):
    """Exact kNN refine over the query axis.

    Its per-query pruning (the banded-histogram lower bound + refine cutoff)
    lives inside :func:`_knn_block` — it depends on each query's running
    k-th distance, so it cannot run as a column-level plan stage.
    """

    queries: np.ndarray            # (Q, T) float64
    k: int
    refine_chunk: int
    index: Optional[QueryIndex]
    exclude: np.ndarray            # excluded column positions

    def items(self, source: ColumnSource) -> Sequence:
        return list(range(self.queries.shape[0]))

    def run_shard(self, source: ColumnSource, items: Sequence) -> tuple:
        idx = np.asarray(list(items), dtype=np.int64)
        block = (
            self.queries if idx.size == self.queries.shape[0]
            else self.queries[idx]
        )
        return _knn_block(
            source, self.index, block, self.k, self.refine_chunk,
            np.asarray(self.exclude, dtype=np.int64),
        )

    def merge(self, parts, source, items, kept) -> tuple:
        positions = np.vstack([p[0] for p in parts])
        distances = np.vstack([p[1] for p in parts])
        refined = sum(p[2] for p in parts)
        return positions, distances, refined


# -- pattern match -------------------------------------------------------------


@dataclass(frozen=True)
class MatchOperator(Operator):
    """Run-level pattern matching over the column axis.

    Runs are read one column block per segment and merged across segment
    boundaries (:meth:`ColumnSource.run_blocks`); :func:`match_runs` then
    scans each column's slice of the flat arrays.  Carries the parsed token
    tuple (not the pattern text): programmatically built
    :class:`SymbolPattern` objects carry no text.
    """

    tokens: tuple                  # tuple of PatternToken
    label: str                     # pattern text for the result record

    def run_shard(self, source: ColumnSource, items: Sequence) -> tuple:
        pattern = SymbolPattern(self.tokens)
        spans: Dict = {}
        runs_scanned = 0
        cols = [int(c) for c in items]
        for block, runs in source.run_blocks(cols):
            runs_scanned += runs.n_runs
            bounds = runs.offsets.tolist()
            for row, column in enumerate(block):
                lo, hi = bounds[row], bounds[row + 1]
                found = match_runs(
                    runs.values[lo:hi], runs.run_lengths[lo:hi], pattern
                )
                if found:
                    spans[source.ids[column]] = found
        return spans, runs_scanned, len(cols)

    def merge(self, parts, source, items, kept) -> PatternMatches:
        result = PatternMatches(pattern=self.label)
        cols = np.asarray([int(c) for c in items], dtype=np.int64)
        result.windows_total = int(source.counts[cols].sum()) if cols.size else 0
        result.columns_skipped = len(items) - len(kept)
        for spans, runs_scanned, scanned in parts:
            result.spans.update(spans)
            result.runs_scanned += runs_scanned
            result.columns_scanned += scanned
        return result


# -- aggregation ---------------------------------------------------------------


@dataclass(frozen=True)
class AggregateOperator(Operator):
    """Per-column symbol statistics over the column axis.

    ``run_shard`` returns exact-integer ``(histograms, peaks, run_counts)``
    blocks off the source's index; the float statistics (duty cycle, mean
    run length) are computed once in ``merge`` from the concatenated
    integers, so results are bit-identical for every worker count.
    """

    level: int

    def run_shard(self, source: ColumnSource, items: Sequence) -> tuple:
        cols = [int(c) for c in items]
        subset = None if cols == list(range(source.n_columns)) else cols
        return source.column_stats(subset)

    def merge(self, parts, source, items, kept):
        from .aggregate import AggregateReport

        k = source.alphabet_size
        if parts:
            hist = np.vstack([p[0] for p in parts])
            peaks = np.concatenate([p[1] for p in parts])
            run_count = np.concatenate([p[2] for p in parts])
        else:
            hist = np.zeros((0, k), dtype=np.int64)
            peaks = np.zeros(0, dtype=np.int64)
            run_count = np.zeros(0, dtype=np.int64)
        windows = hist.sum(axis=1)
        with np.errstate(invalid="ignore"):
            duty = np.where(
                windows > 0,
                hist[:, self.level:].sum(axis=1) / np.maximum(windows, 1),
                0.0,
            )
        mean_run = np.where(
            run_count > 0, windows / np.maximum(run_count, 1), 0.0
        )
        return AggregateReport(
            ids=[source.ids[int(c)] for c in kept],
            level=self.level,
            symbol_counts=hist,
            peak_level=peaks,
            duty_cycle=duty,
            run_count=np.asarray(run_count, dtype=np.int64),
            mean_run_length=mean_run,
        )


# -- index build ---------------------------------------------------------------


@dataclass(frozen=True)
class IndexBuildOperator(Operator):
    """Banded ``.rsymx`` statistics over the column axis.

    Shards merge in task order and every entry is an exact integer, so the
    built :class:`QueryIndex` (and any file written from it) is identical
    for every worker count.
    """

    n_bands: int

    def run_shard(self, source: ColumnSource, items: Sequence) -> tuple:
        cols = [int(c) for c in items]
        if not cols:
            return _shard_stats(source.store, 0, 0, self.n_bands)  # no read
        if cols != list(range(cols[0], cols[-1] + 1)):
            raise QueryError("index build shards must be contiguous")
        return source._scan_stats(cols[0], cols[-1] + 1, self.n_bands)

    def merge(self, parts, source, items, kept) -> QueryIndex:
        from .index import _store_bands, _store_fingerprint

        hist, peaks, runs, _, last = zip(*parts)
        return QueryIndex(
            np.vstack(hist), np.concatenate(peaks), np.concatenate(runs),
            np.concatenate(last), _store_fingerprint(source.store),
            windows_per_day=_store_bands(source.store, self.n_bands),
        )


# -- monitoring: anomaly scores ------------------------------------------------


@dataclass
class AnomalyReport:
    """Per-meter anomaly scores from symbol-transition likelihoods.

    ``scores[i]`` is meter ``i``'s mean negative log-likelihood per symbol
    transition under the *fleet* transition model (add-one smoothed row
    normalisation of the pooled transition counts): meters whose day shapes
    move between levels the fleet rarely connects score high.
    """

    ids: List
    scores: np.ndarray             # (N,) mean -log P per transition
    transitions: np.ndarray        # (N,) transitions observed per meter
    model: np.ndarray              # (k, k) fleet transition probabilities

    def top(self, n: int = 10) -> List[tuple]:
        """The ``n`` highest-scoring ``(id, score)`` pairs."""
        order = np.argsort(-self.scores, kind="stable")[: int(n)]
        return [(self.ids[int(i)], float(self.scores[int(i)])) for i in order]

    def rows(self) -> List[Dict]:
        return [
            {
                "meter": self.ids[i],
                "score": float(self.scores[i]),
                "transitions": int(self.transitions[i]),
            }
            for i in range(len(self.ids))
        ]


def _pair_dtype(cells: int) -> np.dtype:
    """Narrowest unsigned dtype that holds every pair code below ``cells``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if cells <= int(np.iinfo(dtype).max) + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class AnomalyOperator(Operator):
    """Fleet-relative anomaly scores over the column axis.

    Shards return exact per-meter transition-count matrices, read the way
    each layout stores its symbols.  Dense columns decode a block at a time
    (:meth:`ColumnSource.matrix_blocks`, one read per segment per block);
    every two adjacent windows ``a, b`` form the pair code ``a * k + b`` in
    the narrowest unsigned dtype that holds ``k * k``, and one ``bincount``
    per row counts them.  RLE columns keep their stored runs
    (:meth:`ColumnSource.run_blocks`, merged across segment boundaries): a
    run of length ``L`` contributes ``L - 1`` self-transitions and each run
    after a column's first one cross-transition, so one self-loop
    ``bincount`` and one cross-run ``bincount`` per block give the same
    counts without expanding the runs.  ``merge`` pools them into the fleet
    model and scores every meter against it — integer counts merged in task
    order, so scores are bit-identical for every worker count and layout.
    """

    def run_shard(self, source: ColumnSource, items: Sequence) -> np.ndarray:
        k = source.alphabet_size
        cells = k * k
        if source.store.layout != RLE:
            counts = np.zeros((len(items), cells), dtype=np.int64)
            dtype = _pair_dtype(cells)
            for rows, symbols in source.matrix_blocks(items):
                if symbols.shape[1] < 2:
                    continue            # fewer than two windows: no transitions
                pairs = symbols[:, :-1].astype(dtype)
                pairs *= k
                pairs += symbols[:, 1:]
                for row, codes in zip(rows.tolist(), pairs):
                    counts[row] = np.bincount(codes, minlength=cells)
            return counts
        parts = [np.zeros((0, cells), dtype=np.int64)]
        for _, runs in source.run_blocks([int(c) for c in items]):
            bins = runs.n_rows * cells
            row = np.repeat(np.arange(runs.n_rows) * cells, runs.run_counts())
            counts = np.bincount(
                row + runs.values * (k + 1), weights=runs.run_lengths - 1,
                minlength=bins,
            ).astype(np.int64)
            first = np.zeros(runs.n_runs + 1, dtype=bool)
            first[runs.offsets] = True
            cross = np.flatnonzero(~first[:-1])
            counts += np.bincount(
                row[cross] + runs.values[cross - 1] * k + runs.values[cross],
                minlength=bins,
            )
            parts.append(counts.reshape(runs.n_rows, cells))
        return np.vstack(parts)

    def merge(self, parts, source, items, kept) -> AnomalyReport:
        k = source.alphabet_size
        if parts:
            counts = np.vstack(parts)
        else:
            counts = np.zeros((0, k * k), dtype=np.int64)
        pooled = counts.sum(axis=0).reshape(k, k).astype(np.float64)
        smoothed = pooled + 1.0
        model = smoothed / smoothed.sum(axis=1, keepdims=True)
        log_model = np.log(model).reshape(k * k)
        transitions = counts.sum(axis=1)
        with np.errstate(invalid="ignore"):
            scores = np.where(
                transitions > 0,
                -(counts @ log_model) / np.maximum(transitions, 1),
                0.0,
            )
        return AnomalyReport(
            ids=[source.ids[int(c)] for c in kept],
            scores=scores,
            transitions=transitions,
            model=model,
        )


# -- monitoring: drift reports -------------------------------------------------


@dataclass
class DriftReport:
    """Which meters' symbol distributions shifted, straight off histograms.

    ``distances[i]`` is the total-variation distance between meter ``i``'s
    normalised symbol histogram and the reference distribution — a baseline
    index's histogram for the same meter when one is given, else the current
    fleet mean.  Computed from ``.rsymx`` statistics alone: zero columns
    decoded (asserted via :class:`SourceStats`).
    """

    ids: List
    distances: np.ndarray          # (N,) total-variation distances in [0, 1]
    reference: str                 # "baseline" or "fleet-mean"
    columns_decoded: int           # columns this run decoded (0 off an index)

    def top(self, n: int = 10) -> List[tuple]:
        order = np.argsort(-self.distances, kind="stable")[: int(n)]
        return [
            (self.ids[int(i)], float(self.distances[int(i)])) for i in order
        ]

    def shifted(self, threshold: float = 0.1) -> List:
        """Ids whose distribution moved more than ``threshold`` TV distance."""
        return [
            self.ids[int(i)]
            for i in np.nonzero(self.distances > float(threshold))[0]
        ]

    def rows(self) -> List[Dict]:
        return [
            {"meter": self.ids[i], "tv_distance": float(self.distances[i])}
            for i in range(len(self.ids))
        ]


@dataclass(frozen=True)
class DriftOperator(Operator):
    """Fleet drift report over the column axis, reading only histograms.

    ``baseline_histograms`` (aligned to the *full* fleet's column order) is
    a previous snapshot's histogram block; ``None`` compares every meter to
    the current fleet-mean distribution instead.
    """

    baseline_histograms: Optional[np.ndarray] = None

    def run_shard(self, source: ColumnSource, items: Sequence) -> tuple:
        """``(histograms, columns this shard decoded)``.

        The decode count is taken under the source lock, so reads other
        threads make through the same source never land in this report.
        """
        cols = [int(c) for c in items]
        subset = None if cols == list(range(source.n_columns)) else cols
        with source._lock:
            before = source.stats.columns_decoded
            hist = source.column_stats(subset)[0]
            decoded = source.stats.columns_decoded - before
        return np.asarray(hist, dtype=np.int64), decoded

    def merge(self, parts, source, items, kept) -> DriftReport:
        k = source.alphabet_size
        hist = (
            np.vstack([h for h, _ in parts]) if parts
            else np.zeros((0, k), dtype=np.int64)
        ).astype(np.float64)
        windows = hist.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            current = np.where(windows > 0, hist / np.maximum(windows, 1.0), 0.0)
        if self.baseline_histograms is not None:
            base = np.asarray(self.baseline_histograms, dtype=np.float64)
            if base.shape[1] != k:
                raise QueryError(
                    f"baseline histograms have alphabet {base.shape[1]}, "
                    f"store has {k}"
                )
            cols = np.asarray([int(c) for c in kept], dtype=np.int64)
            if cols.size and int(cols.max()) >= base.shape[0]:
                raise QueryError(
                    f"baseline covers {base.shape[0]} columns, store has "
                    f"column {int(cols.max())}"
                )
            base = base[cols]
            totals = base.sum(axis=1, keepdims=True)
            with np.errstate(invalid="ignore"):
                reference = np.where(
                    totals > 0, base / np.maximum(totals, 1.0), 0.0
                )
            kind = "baseline"
        else:
            fleet = hist.sum(axis=0)
            total = fleet.sum()
            reference = (
                fleet / total if total > 0 else np.zeros(k)
            )[None, :]
            kind = "fleet-mean"
        distances = 0.5 * np.abs(current - reference).sum(axis=1)
        return DriftReport(
            ids=[source.ids[int(c)] for c in kept],
            distances=distances,
            reference=kind,
            columns_decoded=sum(decoded for _, decoded in parts),
        )


# -- monitoring: private aggregates --------------------------------------------


@dataclass
class PrivateAggregateReport:
    """A publishable group aggregate: k-anonymous, optionally noised.

    ``symbol_counts`` are the *released* pooled counts — cells supported by
    fewer than ``k_anon`` windows suppressed to zero
    (:func:`~repro.analytics.privacy.k_anonymize_counts`), then Laplace
    noise at scale ``1/epsilon`` added when ``epsilon`` is set
    (:func:`~repro.analytics.privacy.noisy_counts`, seeded, clipped at 0).
    ``band_profile`` is the group's mean reconstruction level per time band,
    computed from the released banded counts — a neighbourhood load profile
    that never cites an individual meter.
    """

    n_meters: int
    level: int
    k_anon: int
    epsilon: Optional[float]
    symbol_counts: np.ndarray      # (k,) released pooled counts
    suppressed: np.ndarray         # (k,) bool — cells removed by k-anonymity
    duty_cycle: float              # released windows at/above level
    band_profile: np.ndarray       # (n_bands,) mean reconstruction per band

    def rows(self) -> List[Dict]:
        return [
            {
                "symbol": s,
                "count": float(self.symbol_counts[s]),
                "suppressed": bool(self.suppressed[s]),
            }
            for s in range(self.symbol_counts.shape[0])
        ]


@dataclass(frozen=True)
class GroupAggregateOperator(Operator):
    """Pooled k-anonymous group aggregate over the column axis.

    Shards sum the index's band histograms (exact pooled banded counts, in
    the index's bands); ``merge`` sums them (order independent), enforces
    the group-size floor, and applies suppression and noise once — so the
    released aggregate is deterministic for every worker count and seed.
    """

    level: int
    k_anon: int
    epsilon: Optional[float] = None
    seed: int = PrivateAggParams.seed

    def run_shard(self, source: ColumnSource, items: Sequence) -> np.ndarray:
        cols = np.asarray([int(c) for c in items], dtype=np.int64)
        return source.index.band_histograms[cols].sum(axis=0)

    def merge(self, parts, source, items, kept) -> PrivateAggregateReport:
        from ..analytics.privacy import k_anonymize_counts, noisy_counts

        k = source.alphabet_size
        if len(kept) < max(1, int(self.k_anon)):
            raise QueryError(
                f"group of {len(kept)} meters is smaller than k_anon="
                f"{self.k_anon}; refusing to release an identifying aggregate"
            )
        banded = np.sum(parts, axis=0, dtype=np.int64) if parts else np.zeros(
            (source.index.n_bands, k), dtype=np.int64
        )
        pooled = banded.sum(axis=0)
        released, suppressed = k_anonymize_counts(pooled, self.k_anon)
        banded = np.where(suppressed[None, :], 0, banded).astype(np.float64)
        released = released.astype(np.float64)
        if self.epsilon is not None:
            released = noisy_counts(released, self.epsilon, seed=self.seed)
            banded = noisy_counts(banded, self.epsilon, seed=self.seed + 1)
        recon = source.table.reconstruction_array
        band_totals = banded.sum(axis=1)
        with np.errstate(invalid="ignore"):
            profile = np.where(
                band_totals > 0,
                banded @ recon / np.maximum(band_totals, 1.0),
                0.0,
            )
        total = released.sum()
        duty = float(released[self.level:].sum() / total) if total > 0 else 0.0
        return PrivateAggregateReport(
            n_meters=len(kept),
            level=self.level,
            k_anon=int(self.k_anon),
            epsilon=self.epsilon,
            symbol_counts=released,
            suppressed=suppressed,
            duty_cycle=duty,
            band_profile=profile,
        )
