"""Aggregation pushdown: per-meter / per-day statistics from symbols.

These aggregates never decode symbols back to watts: symbol counts, peak
levels and duty cycles are computed from the packed index matrix or — for
RLE columns — straight from run values weighted by run lengths, the same
arrays the store keeps on disk.  Per-day variants reshape by the store's
``windows_per_day`` metadata, answering "which meters ran >= 6 hours at the
top level on day 3?" without rebuilding a :class:`FleetEncoder`.

Symbol counts, peaks and run counts come off the
:class:`~repro.query.index.QueryIndex` attached to the plan's source, the
one place they are computed.  Execution is a
:class:`~repro.query.plan.ScanPlan` over an
:class:`~repro.query.ops.AggregateOperator`: ``workers > 1`` shards the
column axis through the unified plan driver, and because shards return
exact integers merged in task order the report is bit-identical for every
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import QueryError
from ..store.segments import SymbolStore
from .index import DEFAULT_BANDS, QueryIndex
from .verbs import AggParams

__all__ = ["AggregateReport", "aggregate_store"]


@dataclass
class AggregateReport:
    """Per-column symbol statistics (optionally per day).

    ``duty_cycle`` is the fraction of windows at or above ``level``;
    ``mean_run_length`` is the pushdown-selectivity figure — how many
    windows one run covers on average.
    """

    ids: List
    level: int
    symbol_counts: np.ndarray          # (N, k)
    peak_level: np.ndarray             # (N,)
    duty_cycle: np.ndarray             # (N,)
    run_count: np.ndarray              # (N,)
    mean_run_length: np.ndarray        # (N,)
    daily_peak: Optional[np.ndarray] = None   # (N, days)
    daily_duty: Optional[np.ndarray] = None   # (N, days)

    def rows(self) -> List[Dict]:
        """Rows for :func:`repro.experiments.render_table`."""
        out = []
        for i, column_id in enumerate(self.ids):
            row = {
                "meter": column_id,
                "windows": int(self.symbol_counts[i].sum()),
                "runs": int(self.run_count[i]),
                "mean_run": float(self.mean_run_length[i]),
                "peak_level": int(self.peak_level[i]),
                f"duty>={self.level}": float(self.duty_cycle[i]),
            }
            if self.daily_peak is not None:
                row["max_daily_peak"] = int(self.daily_peak[i].max(initial=0))
            out.append(row)
        return out


def aggregate_store(
    store: SymbolStore,
    meters: Optional[Sequence] = None,
    level: Optional[int] = None,
    per_day: bool = AggParams.per_day,
    index: Optional[QueryIndex] = None,
    workers: int = 1,
    source=None,
    deadline=None,
) -> AggregateReport:
    """Compute the pushdown aggregates for ``meters`` (default: all).

    Histograms, peaks and run counts come off the index of ``source`` (a
    :class:`~repro.query.ops.ColumnSource`; default: a new one over
    ``store``).  A source without one gets ``index`` attached, after its
    fingerprint check, or else an index built through ``source``, so the
    build's reads count on it.  The :class:`QueryEngine` passes its own
    source, which holds its index.  ``per_day`` requires the store's
    ``windows_per_day`` metadata and equal column lengths.
    """
    from .ops import AggregateOperator, ColumnSource, IndexBuildOperator
    from .plan import ScanPlan

    k = store.alphabet_size
    level = k // 2 if level is None else int(level)
    if not 0 <= level < k:
        raise QueryError(f"level must be in [0, {k}), got {level}")
    ids = list(store.ids) if meters is None else list(meters)
    columns = store._resolve_meters(meters)
    if source is None:
        source = ColumnSource(store)
    if source.index is None:
        if index is None:
            index = ScanPlan(source, IndexBuildOperator(DEFAULT_BANDS)).run()
        else:
            index.check_store(store)
        source.index = index
    plan = ScanPlan(source, AggregateOperator(level=level), items=columns)
    report = plan.run(workers=workers, deadline=deadline)
    report.ids = ids
    if per_day:
        per = store.metadata.get("windows_per_day")
        if not per:
            raise QueryError(
                f"{store.path.name} has no windows_per_day metadata; "
                "per-day aggregation needs it (write the store with "
                "sampling_interval set)"
            )
        matrix = source.matrix(meters=None if meters is None else ids)
        width = matrix.shape[1]
        days = width // int(per)
        if days == 0:
            raise QueryError(
                f"columns hold {width} windows, fewer than one "
                f"{per}-window day"
            )
        trimmed = matrix[:, : days * int(per)].reshape(len(columns), days, int(per))
        report.daily_peak = trimmed.max(axis=2)
        report.daily_duty = (trimmed >= level).mean(axis=2)
    return report
