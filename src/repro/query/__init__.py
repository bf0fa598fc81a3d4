"""Indexed similarity search and symbolic queries over ``.rsym`` stores.

The paper's case for symbolic smart-meter data is that the symbols stay
*useful*: classification, forecasting and — via the SAX/iSAX lineage it
builds on — similarity search all run on the compressed representation.
``repro.query`` closes that loop for the on-disk stores of PR 4: a
:class:`QueryEngine` answers kNN, pattern and aggregation queries over a
store without decoding it wholesale.

:mod:`repro.query.distance`
    Vectorized MINDIST-style lower-bound kernels over any breakpoint table
    (:meth:`LookupTable.breakpoints` or the SAX Gaussian breakpoints).

:mod:`repro.query.index`
    The ``.rsymx`` sidecar (:class:`QueryIndex`): per-column banded symbol
    histograms, peak and last symbols and run counts — the pruning tier
    that rejects candidates before any payload bytes are read, and the one
    source of the fleet statistics aggregates report.

:mod:`repro.query.engine`
    :class:`QueryEngine` / :class:`QueryConfig`: exact kNN with lower-bound
    pruning and lazy refinement (bit-identical to brute force, for every
    worker count), plus the pattern/aggregation entry points.

:mod:`repro.query.patterns`
    Run-level symbol pattern matching (``"c{4,} * a"``) pushed down to RLE
    payloads without expanding runs.

:mod:`repro.query.aggregate`
    Per-meter / per-day aggregation pushdown (symbol counts, peak levels,
    duty cycles) from packed or run-encoded columns.

:mod:`repro.query.plan` / :mod:`repro.query.ops`
    The composable scan layer every query above executes through: a
    :class:`ScanPlan` wires a :class:`ColumnSource` (one read abstraction
    over ``.rsym`` files and ``.rsyms`` segment directories), optional
    pruning stages, and a terminal :class:`Operator` into the single
    sharding/merge driver.  The fleet-monitoring workloads — per-meter
    anomaly scores, drift reports straight off ``.rsymx`` histograms, and
    k-anonymous private aggregates — are operators on the same layer.
"""

from .aggregate import AggregateReport, aggregate_store
from .distance import (
    banded_min_cells,
    breakpoints_of,
    cell_bounds,
    histogram_bound,
    mindist,
    value_cell_bounds,
)
from .engine import (
    KNNResult,
    KNNStats,
    QueryConfig,
    QueryEngine,
    resolve_shared_table,
)

#: The work-accounting record of one kNN batch (``result.stats``), under
#: the name the CLI's ``--stats`` output refers to.
QueryStats = KNNStats
from .index import (
    QueryIndex,
    build_query_index,
    query_index_path,
    write_query_index,
)
from .ops import (
    AggregateOperator,
    AnomalyOperator,
    AnomalyReport,
    ColumnSource,
    DriftOperator,
    DriftReport,
    GroupAggregateOperator,
    IndexBuildOperator,
    KNNOperator,
    MatchOperator,
    Operator,
    PrivateAggregateReport,
    SourceStats,
    SymbolCountPrune,
)
from .patterns import PatternMatches, PatternToken, SymbolPattern, match_runs
from .plan import Deadline, ScanPlan, active_deadline, check_deadline

__all__ = [
    "AggregateOperator",
    "AggregateReport",
    "AnomalyOperator",
    "AnomalyReport",
    "ColumnSource",
    "Deadline",
    "DriftOperator",
    "DriftReport",
    "GroupAggregateOperator",
    "IndexBuildOperator",
    "KNNOperator",
    "KNNResult",
    "KNNStats",
    "MatchOperator",
    "Operator",
    "PatternMatches",
    "PatternToken",
    "PrivateAggregateReport",
    "QueryConfig",
    "QueryEngine",
    "QueryIndex",
    "QueryStats",
    "ScanPlan",
    "SourceStats",
    "SymbolCountPrune",
    "SymbolPattern",
    "active_deadline",
    "aggregate_store",
    "banded_min_cells",
    "breakpoints_of",
    "build_query_index",
    "cell_bounds",
    "check_deadline",
    "histogram_bound",
    "match_runs",
    "mindist",
    "query_index_path",
    "resolve_shared_table",
    "value_cell_bounds",
    "write_query_index",
]
