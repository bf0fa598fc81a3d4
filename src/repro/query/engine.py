"""The query engine: exact kNN with lower-bound pruning over ``.rsym`` stores.

:class:`QueryEngine` treats a store as a servable database of symbol columns
(meters of a fleet store, (house, day) rows of a day-vector store).  Its
kNN search is *exact* — results are bit-identical to brute force, pinned by
``tests/query/test_knn.py`` — but it touches as few payload bytes as it can:

1. **Index tier** — the :class:`~repro.query.index.QueryIndex` histograms
   give a position-free lower bound on every candidate's distance with one
   matrix product per query batch (``minpos @ hist.T``): each window with
   symbol ``s`` contributes at least ``min_t bound(q_t, s)^2``.  No payload
   bytes are read.
2. **Refine tier** — candidates are visited in lower-bound order in small
   rounds, their exact distances (query vs. decoded reconstruction values)
   computed with one gather a round.  The scan stops when the best unseen
   lower bound exceeds the current k-th distance — with a one-sided
   ``1 + 1e-9`` safety margin so float rounding in the bound can only
   cause extra refinement, never a missed neighbour.  Columns are decoded
   ahead of the rounds: a block of queries reads the store at most twice,
   once for the rounds that find each query's first k-th distance and once
   for every candidate a later round can still refine (the k-th distance
   only shrinks), and each read decodes once across the store's segments.

Distances are Euclidean between the raw query vector and each column's
*reconstruction* (what ``SymbolStore.decode`` returns) — the only real-valued
ground truth a symbolised fleet has.  Stores carrying genuinely different
per-meter tables are refused with :class:`~repro.errors.QueryError`: symbol
``3`` of meter A and symbol ``3`` of meter B then denote different watt
ranges, and any single-table distance would be nonsense.  Stores whose
per-column/by-label tables are all *equal* (e.g. day-vector stores written
with ``global_table=True``) are transparently re-normalised to that one
shared table.

Every query kind — kNN, pattern match, aggregation, and the monitoring
workloads (:meth:`QueryEngine.anomaly`, :meth:`QueryEngine.drift`,
:meth:`QueryEngine.private_aggregate`) — executes as a
:class:`~repro.query.plan.ScanPlan` over the engine's cached
:class:`~repro.query.ops.ColumnSource`; ``workers > 1`` runs the plan's
shards on threads over the engine's own open store (task-ordered merge),
and results are bit-identical for every worker count.

An engine answers from exactly one :class:`~repro.query.index.QueryIndex`
(:meth:`QueryEngine.index`): the fresh ``.rsymx`` sidecar, the index a
reload carried forward, or one built in memory by the first query that
reads it.  ``match``, ``agg``, ``drift``, ``private_agg`` and indexed kNN
read their fleet histograms, peaks, run counts and banded counts off it, so
an answer never depends on which requests came before it; ``anomaly`` and
``knn(use_index=False)`` never build one.  The open itself reads no payload
byte, so damage surfaces inside the first request that builds the index.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Set, Union

import numpy as np

from ..errors import CorruptStoreError, QueryError, StoreIntegrityWarning
from ..obs import registry as _obs_registry, tracer as _obs_tracer
from ..store.segments import SymbolStore, open_store
from .aggregate import AggregateReport, aggregate_store
from .index import DEFAULT_BANDS, QueryIndex, query_index_path
from .ops import (
    AnomalyOperator,
    AnomalyReport,
    ColumnSource,
    DriftOperator,
    DriftReport,
    GroupAggregateOperator,
    IndexBuildOperator,
    KNNOperator,
    MatchOperator,
    PrivateAggregateReport,
    SymbolCountPrune,
    resolve_shared_table,
)
from .patterns import PatternMatches, SymbolPattern
from .plan import Deadline, ScanPlan
from .verbs import AggParams, KNNParams, PrivateAggParams

__all__ = [
    "QueryConfig",
    "KNNStats",
    "KNNResult",
    "QueryEngine",
    "resolve_shared_table",
]

#: Sidecar paths whose stale-index degrade warning already fired: the
#: warning is actionable once per store (rebuild the index), not once per
#: ``QueryEngine.open`` — a monitoring loop reopening a growing store every
#: few minutes should not drown the log.
_STALE_INDEX_WARNED: Set[str] = set()

#: Serialises mutation of :data:`_STALE_INDEX_WARNED`: a threaded server
#: reopens stores concurrently, and an unsynchronized check-then-add could
#: emit the warning twice (harmless) or corrupt the set (not).
_STALE_INDEX_LOCK = threading.Lock()


def _sidecar_index(store: SymbolStore) -> Optional[QueryIndex]:
    """The store's ``.rsymx`` sidecar, or ``None`` when it is absent, stale
    or unreadable (truncated, another format version); a sidecar that is
    there but cannot be used is dropped with a warning, once per path."""
    sidecar = query_index_path(store.path)
    if not sidecar.exists():
        return None
    try:
        index = QueryIndex.open(sidecar)
        index.check_store(store)
    except QueryError as exc:
        key = str(sidecar.resolve())
        # The warning dedups; the counter never does — a degraded
        # store stays visible on /metrics long after the first open.
        _obs_registry().counter(
            "store.stale_index_total",
            "Opens that dropped a stale or unreadable .rsymx sidecar",
        ).inc()
        with _STALE_INDEX_LOCK:
            first = key not in _STALE_INDEX_WARNED
            _STALE_INDEX_WARNED.add(key)
        if first:
            warnings.warn(
                StoreIntegrityWarning(
                    f"ignoring stale query index {sidecar.name}: {exc}",
                    path=sidecar, kind="segment", reason="stale-index",
                )
            )
        return None
    return index


@dataclass(frozen=True)
class QueryConfig:
    """Tunables of one kNN workload (the query analogue of DayVectorConfig).

    ``refine_chunk`` is the number of candidates unpacked per refine round —
    small enough that the k-th-distance cutoff engages early, large enough
    that each round is one vectorized gather.
    """

    k: int = KNNParams.k
    use_index: bool = KNNParams.use_index
    refine_chunk: int = KNNParams.refine_chunk
    workers: int = 1

    def __post_init__(self) -> None:
        if int(self.k) < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if int(self.refine_chunk) < 1:
            raise QueryError(
                f"refine_chunk must be >= 1, got {self.refine_chunk}"
            )
        if int(self.workers) < 0:
            raise QueryError(
                f"workers must be >= 0 (0 = one per CPU), got {self.workers}"
            )

    def label(self) -> str:
        """Readable label such as ``"knn k=5 indexed w2"``."""
        mode = "indexed" if self.use_index else "scan"
        return f"knn k={self.k} {mode} w{self.workers}"


@dataclass
class KNNStats:
    """Work accounting for one kNN batch (the pruning-ratio evidence)."""

    n_queries: int
    n_candidates: int
    refined: int
    index_used: bool

    @property
    def refined_per_query(self) -> float:
        """Mean candidates exact-refined (columns decoded) per query."""
        return self.refined / self.n_queries if self.n_queries else 0.0

    @property
    def decoded_fraction(self) -> float:
        """Fraction of candidate columns decoded per query (1.0 = brute force)."""
        total = self.n_queries * self.n_candidates
        return self.refined / total if total else 0.0

    @property
    def pruned_fraction(self) -> float:
        return 1.0 - self.decoded_fraction


class KNNResult(NamedTuple):
    """``ids[q][j]`` / ``distances[q, j]`` are query ``q``'s j-th neighbour."""

    positions: np.ndarray      # (Q, k) column positions in the store
    ids: List[List]            # (Q, k) store column ids
    distances: np.ndarray      # (Q, k) Euclidean distances, ascending
    stats: KNNStats


class QueryEngine:
    """Similarity search, pattern matching and aggregation over one store."""

    def __init__(
        self,
        store: SymbolStore,
        index: Optional[QueryIndex] = None,
    ) -> None:
        self.store = store
        if index is not None:
            index.check_store(store)
        self._index = index
        self._source: Optional[ColumnSource] = None
        # Guards the lazy _source/_index fills: server threads share one
        # engine, and two first queries racing the in-memory index build
        # would each pay it (and publish half-initialised state).
        self._lock = threading.RLock()

    @classmethod
    def open(
        cls, path: Union[str, Path], mmap: bool = True
    ) -> "QueryEngine":
        """Open a store and its ``.rsymx`` sidecar when one is present.

        ``path`` may be a bare ``.rsym`` file or a segmented-store directory,
        which keeps its sidecar inside.
        """
        return cls.over(open_store(path, mmap=mmap))

    @classmethod
    def over(cls, store: SymbolStore) -> "QueryEngine":
        """An engine over the open ``store`` with its ``.rsymx`` sidecar.

        A sidecar whose fingerprint no longer matches — a segment was
        appended or quarantined, or the file was rewritten, since it was
        built — or that cannot be read (truncated, or written in another
        index format version) is dropped with a warning (emitted once per
        sidecar path per process) instead of failing the open, and the
        first query that reads the index builds it in memory.
        """
        return cls(store, index=_sidecar_index(store))

    def reopen(self) -> "QueryEngine":
        """The engine of the store's newest committed generation, costing
        only what changed since this one.

        The store reopens through :meth:`SymbolStore.reopen`, so unchanged
        segments are shared, not reopened.  When the new generation only
        appends segments to this one (:attr:`SymbolStore.appended`) and this
        engine holds an index with the default bands folded by
        ``windows_per_day`` over columns that already hold a day, the new
        engine's index is this one plus the appended windows' share,
        computed by the index build's own kernel: histograms and run counts
        add, peaks fold, and the stored last symbols tell which runs
        continue across the cut.  They are exact integers, so every answer
        equals a cold :meth:`open`'s.  Any other change — a quarantine, a
        rollback, a scrub repair, fewer segments — takes the cold open's
        rules, and so does an append whose share fails its checksums (the
        first query then meets the damage, as after a cold open).  The
        reload is a ``store.reopen`` span whose ``summaries`` is
        ``"carried"`` or ``"rebuilt"``.  This engine stays usable until it
        is closed.
        """
        with _obs_tracer().span("store.reopen") as span:
            store = self.store.reopen()
            try:
                engine = self._carried(store)
                summaries = "rebuilt" if engine is None else "carried"
                if engine is None:
                    engine = QueryEngine.over(store)
            except BaseException:
                store.close()
                raise
            span.set_attributes(
                generation=store.generation,
                segments_shared=store.segments_shared,
                segments_opened=store.segments_opened,
                summaries=summaries,
            )
        return engine

    def _carried(self, store: SymbolStore) -> Optional["QueryEngine"]:
        """An engine over ``store`` with this engine's index carried
        forward; ``None`` unless ``store`` is an append of this engine's
        store whose appended share passes its checksums, and this engine
        holds an index that a cold open would rebuild the same way."""
        if store.appended is None:
            return None
        with self._lock:
            index = self._index
        old, new = (int(s.counts[0]) if s.n_meters else 0 for s in (self.store, store))
        if index is None or not (
            index.n_bands == DEFAULT_BANDS
            and index.windows_per_day and old >= index.windows_per_day
        ):
            # Carry only an index a cold open would rebuild: contiguous
            # bands depend on the column length, and a sidecar may have
            # been written with other bands.
            return None
        source = ColumnSource(store)
        share = None
        if new > old:
            try:
                share = source._scan_stats(0, store.n_meters, index.n_bands, (old, new))
            except CorruptStoreError:
                return None
        source.index = index.extended(share, store)
        engine = QueryEngine(store, index=source.index)
        engine._source = source
        return engine

    @property
    def table(self):
        """The shared lookup table (resolved once, refusal cached)."""
        return self.source.table

    @property
    def source(self) -> ColumnSource:
        """The engine's cached :class:`ColumnSource` (one per open store).

        It carries the engine's index once one is held, so repeated
        aggregates on an open engine never re-decode columns.
        """
        with self._lock:
            if self._source is None:
                self._source = ColumnSource(self.store, index=self._index)
            return self._source

    def index(self) -> QueryIndex:
        """The engine's one query index: the sidecar's, the one a reload
        carried, or one built in memory on first use (under the engine's
        lock, through the engine's source, so its reads are counted)."""
        with self._lock:
            if self._index is None:
                plan = ScanPlan(self.source, IndexBuildOperator(DEFAULT_BANDS))
                self._index = self.source.index = plan.run()
            return self._index

    # -- kNN ---------------------------------------------------------------------

    def knn(
        self,
        queries: np.ndarray,
        config: QueryConfig = QueryConfig(),
        exclude_ids: Sequence = (),
        deadline: Optional[Deadline] = None,
    ) -> KNNResult:
        """Exact k-nearest-columns for a batch of raw-valued query vectors.

        ``queries`` is ``(Q, T)`` (or one ``(T,)`` vector) of real values at
        the store's window resolution.  Neighbours are ordered by
        ``(distance, column position)``, so ties break deterministically and
        the result is identical to :meth:`brute_force_knn` for every
        ``workers``/pruning configuration.  ``deadline`` (if given) bounds
        the search cooperatively — expiry raises
        :class:`~repro.errors.DeadlineExceeded` with partial-work accounting
        instead of running to completion.
        """
        source = self.source
        source.table  # resolve (and cache) the shared-table refusal early
        queries = self._check_queries(queries)
        exclude = self._exclude_positions(exclude_ids)
        index = self.index() if config.use_index else None
        n_candidates = self.store.n_meters - exclude.size
        plan = ScanPlan(source, KNNOperator(
            queries=queries,
            k=config.k,
            refine_chunk=config.refine_chunk,
            index=index,
            exclude=exclude,
        ))
        with _obs_tracer().span(
            "engine.knn", k=config.k, queries=queries.shape[0],
            index_used=index is not None,
        ) as knn_span:
            positions, distances, refined = plan.run(
                workers=config.workers, deadline=deadline
            )
            ids = [[self.store.ids[p] for p in row] for row in positions]
            stats = KNNStats(
                n_queries=queries.shape[0],
                n_candidates=n_candidates,
                refined=refined,
                index_used=index is not None,
            )
            # One source of truth: CLI --stats, span attributes and the
            # /metrics counters all carry these exact KNNStats numbers.
            knn_span.set_attributes(
                candidates=stats.n_candidates,
                refined=stats.refined,
                pruned_fraction=round(stats.pruned_fraction, 6),
            )
        metrics = _obs_registry()
        if metrics.enabled:
            bounded = stats.n_queries * stats.n_candidates
            metrics.counter(
                "query.knn_queries_total", "kNN query vectors answered",
            ).inc(stats.n_queries)
            metrics.counter(
                "query.candidates_bounded_total",
                "Candidate columns lower-bounded across kNN queries",
            ).inc(bounded)
            metrics.counter(
                "query.candidates_refined_total",
                "Candidate columns exact-refined (decoded) across kNN queries",
            ).inc(stats.refined)
            metrics.counter(
                "query.candidates_pruned_total",
                "Candidate columns pruned by the lower bound",
            ).inc(bounded - stats.refined)
        return KNNResult(positions, ids, distances, stats)

    def brute_force_knn(
        self,
        queries: np.ndarray,
        k: int = KNNParams.k,
        exclude_ids: Sequence = (),
    ) -> KNNResult:
        """Reference exact search: decode every candidate, no pruning."""
        result = self.knn(
            queries,
            QueryConfig(
                k=k, use_index=False,
                refine_chunk=max(1, self.store.n_meters),
            ),
            exclude_ids=exclude_ids,
        )
        return result

    def _check_queries(self, queries) -> np.ndarray:
        arr = np.asarray(queries, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise QueryError(
                f"queries must be (Q, windows) or (windows,), got {arr.shape}"
            )
        counts = self.store.counts
        if counts.size and arr.shape[1] != int(counts[0]):
            raise QueryError(
                f"query length {arr.shape[1]} != column length {int(counts[0])}"
            )
        if not np.all(np.isfinite(arr)):
            raise QueryError("queries must be finite: no NaN or ±inf values")
        return arr

    def _exclude_positions(self, exclude_ids: Sequence) -> np.ndarray:
        return np.unique(
            np.asarray(
                [self.store._column(i) for i in exclude_ids], dtype=np.int64
            )
        )

    # -- symbolic lower bounds ----------------------------------------------------

    def mindist_columns(self, id_a, id_b) -> float:
        """Symbol-level MINDIST between two stored columns.

        A lower bound on the Euclidean distance between their decoded
        reconstructions — computable from packed symbols and the shared
        table's breakpoints alone (the property
        ``mindist <= exact`` is pinned in ``tests/query/``).
        """
        from .distance import mindist

        return float(mindist(
            self.store.indices(id_a), self.store.indices(id_b),
            self.table,
        ))

    # -- pattern matching ---------------------------------------------------------

    def match(
        self,
        pattern: Union[str, SymbolPattern],
        meters: Optional[Sequence] = None,
        workers: int = 1,
        deadline: Optional[Deadline] = None,
    ) -> PatternMatches:
        """Match a symbol pattern against columns at run granularity.

        The index's histogram pruning stage skips columns that lack the
        pattern's symbols before touching payload bytes; matching itself
        runs on RLE run arrays without expansion.
        """
        if isinstance(pattern, str):
            pattern = SymbolPattern.parse(pattern, self.store.alphabet_size)
        needed = pattern.min_symbol_counts(self.store.alphabet_size)
        columns = self.store._resolve_meters(meters)
        plan = ScanPlan(
            self.source,
            MatchOperator(
                tokens=pattern.tokens,
                label=pattern.text or repr(pattern),
            ),
            items=columns,
            stages=[SymbolCountPrune(needed=needed, index=self.index())],
        )
        return plan.run(workers=workers, deadline=deadline)

    # -- aggregation --------------------------------------------------------------

    def aggregate(
        self,
        meters: Optional[Sequence] = None,
        level: Optional[int] = None,
        per_day: bool = AggParams.per_day,
        workers: int = 1,
        deadline: Optional[Deadline] = None,
    ) -> AggregateReport:
        """Aggregation pushdown (see :func:`repro.query.aggregate_store`).

        Histograms, peaks and run counts come off the engine's index, so
        repeated aggregates skip re-decoding.
        """
        self.index()
        return aggregate_store(
            self.store, meters=meters, level=level, per_day=per_day,
            workers=workers, source=self.source, deadline=deadline,
        )

    # -- monitoring ---------------------------------------------------------------

    def anomaly(
        self,
        meters: Optional[Sequence] = None,
        workers: int = 1,
        deadline: Optional[Deadline] = None,
    ) -> AnomalyReport:
        """Per-meter anomaly scores from symbol-transition likelihoods.

        Transition counts come off adjacent symbol pairs on a dense store
        and off the stored runs on an RLE store (no window expansion), the
        same integers either way; each meter is scored against the pooled
        fleet transition model.
        """
        columns = self.store._resolve_meters(meters)
        plan = ScanPlan(self.source, AnomalyOperator(), items=columns)
        return plan.run(workers=workers, deadline=deadline)

    def drift(
        self,
        baseline: Optional[Union[str, Path, QueryIndex]] = None,
        meters: Optional[Sequence] = None,
        deadline: Optional[Deadline] = None,
    ) -> DriftReport:
        """Fleet drift report off ``.rsymx`` histograms — no column decode.

        ``baseline`` is a previous snapshot to diff against: a
        :class:`QueryIndex`, or a path to a ``.rsymx`` sidecar (or to the
        store it sits next to).  Without one, each meter is compared to the
        current fleet-mean distribution.
        """
        baseline_hist = None
        if baseline is not None:
            if not isinstance(baseline, QueryIndex):
                base_path = Path(baseline)
                if base_path.suffix != ".rsymx" or base_path.is_dir():
                    base_path = query_index_path(base_path)
                baseline = QueryIndex.open(base_path)
            baseline_hist = baseline.histograms
        self.index()
        columns = self.store._resolve_meters(meters)
        plan = ScanPlan(
            self.source,
            DriftOperator(baseline_histograms=baseline_hist),
            items=columns,
        )
        return plan.run(workers=1, deadline=deadline)

    def private_aggregate(
        self,
        meters: Optional[Sequence] = None,
        level: Optional[int] = None,
        k_anon: int = PrivateAggParams.k_anon,
        epsilon: Optional[float] = None,
        seed: int = PrivateAggParams.seed,
        workers: int = 1,
        deadline: Optional[Deadline] = None,
    ) -> PrivateAggregateReport:
        """k-anonymous (optionally Laplace-noised) pooled group aggregate.

        Refuses groups smaller than ``k_anon`` meters; released symbol
        counts have cells below ``k_anon`` suppressed, then noise at scale
        ``1/epsilon`` added when ``epsilon`` is set (seeded, deterministic).
        """
        k = self.store.alphabet_size
        level = k // 2 if level is None else int(level)
        if not 0 <= level < k:
            raise QueryError(f"level must be in [0, {k}), got {level}")
        if int(k_anon) < 1:
            raise QueryError(f"k_anon must be >= 1, got {k_anon}")
        columns = self.store._resolve_meters(meters)
        self.index()
        plan = ScanPlan(
            self.source,
            GroupAggregateOperator(
                level=level, k_anon=int(k_anon), epsilon=epsilon,
                seed=int(seed),
            ),
            items=columns,
        )
        return plan.run(workers=workers, deadline=deadline)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        indexed = "indexed" if self._index is not None else "no index"
        return (
            f"QueryEngine({self.store.path.name!r}, "
            f"columns={self.store.n_meters}, {indexed})"
        )
