"""Section 2.3 — compression-ratio analysis.

The paper's example: 1 Hz doubles are ~680 kB per day, while 16 symbols at a
15-minute aggregation are 384 bits — about three orders of magnitude less.
This experiment reproduces that number and sweeps the alphabet-size ×
aggregation-window plane so the trade-off surface can be tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.compression import CompressionModel, CompressionReport, MeasuredCompression
from ..errors import ExperimentError

__all__ = ["CompressionSweep", "compression_sweep", "paper_example_report"]


@dataclass(frozen=True)
class CompressionSweep:
    """Compression reports over a grid of (alphabet size, aggregation window).

    ``measured`` holds the real on-disk rates of any
    :class:`~repro.store.SymbolStore` passed to :func:`compression_sweep`,
    keyed like ``reports`` — those cells render the analytic and measured
    bits per day side by side, with a ``!`` flag past the 5% tolerance.
    """

    sampling_interval: float
    reports: Dict[Tuple[int, float], CompressionReport]
    measured: Dict[Tuple[int, float], MeasuredCompression] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        """One row per configuration with sizes and ratios."""
        rows: List[Dict[str, object]] = []
        for (alphabet, window), report in sorted(self.reports.items()):
            row: Dict[str, object] = {
                "alphabet_size": alphabet,
                "aggregation_minutes": window / 60.0,
                "raw_kB_per_day": report.raw_bits_per_day / 8.0 / 1024.0,
                "symbolic_bits_per_day": report.symbolic_bits_per_day,
                "ratio": report.ratio,
                "orders_of_magnitude": report.orders_of_magnitude,
            }
            if self.measured:
                cell = self.measured.get((alphabet, window))
                if cell is None:
                    row["measured_bits_per_day"] = "-"
                    row["divergence_pct"] = "-"
                    row["check"] = "-"
                else:
                    row["measured_bits_per_day"] = cell.measured_bits_per_day
                    row["divergence_pct"] = 100.0 * cell.divergence
                    row["check"] = "!" if cell.flagged else "ok"
            rows.append(row)
        return rows

    def report(self, alphabet_size: int, aggregation_seconds: float) -> CompressionReport:
        """Look up one configuration."""
        try:
            return self.reports[(alphabet_size, aggregation_seconds)]
        except KeyError:
            raise ExperimentError(
                f"no report for alphabet {alphabet_size}, window {aggregation_seconds}"
            ) from None


def _compression_cell(task) -> CompressionReport:
    """One (alphabet, window) report (module-level for process-pool pickling)."""
    alphabet, window, sampling_interval, value_bits = task
    model = CompressionModel(sampling_interval=sampling_interval, value_bits=value_bits)
    return model.report(alphabet, window)


def compression_sweep(
    alphabet_sizes: Sequence[int] = (2, 4, 8, 16),
    aggregation_seconds: Sequence[float] = (60.0, 900.0, 3600.0),
    sampling_interval: float = 1.0,
    value_bits: int = 64,
    workers: int = 1,
    store=None,
) -> CompressionSweep:
    """Compression reports over the full grid.

    ``workers > 1`` shards the grid one cell per process-pool task (the cells
    are closed-form arithmetic, so this mainly exercises the shared
    ``--workers`` plumbing; outputs are identical for every worker count).

    ``store`` — a :class:`~repro.store.SymbolStore` or a path to one — adds
    the store's *measured* bits per day next to the analytic number for its
    (alphabet, window) cell; the cell is added to the grid when missing so
    the cross-check always appears.
    """
    alphabet_sizes = [int(a) for a in alphabet_sizes]
    aggregation_seconds = [float(w) for w in aggregation_seconds]
    measured: Dict[Tuple[int, float], MeasuredCompression] = {}
    if store is not None:
        from ..store import SymbolStore, open_store

        opened = store if isinstance(store, SymbolStore) else open_store(store)
        model = CompressionModel(
            sampling_interval=sampling_interval, value_bits=value_bits
        )
        try:
            cell = model.measured_report(opened)
        finally:
            if opened is not store:  # close only what this call opened
                opened.close()
        key = (opened.alphabet_size, cell.aggregation_seconds)
        measured[key] = cell
        if key[0] not in alphabet_sizes:
            alphabet_sizes.append(key[0])
        if key[1] not in aggregation_seconds:
            aggregation_seconds.append(key[1])
    cells = [
        (int(alphabet), float(window), sampling_interval, value_bits)
        for alphabet in alphabet_sizes
        for window in aggregation_seconds
    ]
    if workers == 1:
        cell_reports = [_compression_cell(cell) for cell in cells]
    else:
        from ..parallel.executor import ParallelExecutor

        with ParallelExecutor(workers) as executor:
            cell_reports = executor.map(_compression_cell, cells)
    reports = {
        (alphabet, window): report
        for (alphabet, window, _, _), report in zip(cells, cell_reports)
    }
    return CompressionSweep(
        sampling_interval=sampling_interval, reports=reports, measured=measured
    )


def paper_example_report() -> CompressionReport:
    """The exact Section 2.3 example (1 Hz doubles vs 16 symbols @ 15 min)."""
    return CompressionModel.paper_example()
