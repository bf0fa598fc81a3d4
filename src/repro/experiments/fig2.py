"""Figure 2 — distribution of power levels follows a log-normal distribution.

The paper plots the histogram of 1-second power readings of the REDD data
(0–2400 W) and observes it is log-normal, which motivates the median /
distinctmedian separators over SAX's Gaussian assumption.  This experiment
computes the histogram over the synthetic dataset, fits a log-normal and a
normal distribution to the positive readings and reports which fits better
(Kolmogorov–Smirnov statistic — lower is better).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..datasets.base import MeterDataset
from ..errors import ExperimentError

__all__ = ["DistributionReport", "power_distribution"]


@dataclass(frozen=True)
class DistributionReport:
    """Histogram plus goodness-of-fit of log-normal vs normal models."""

    bin_edges: Tuple[float, ...]
    counts: Tuple[int, ...]
    lognormal_ks: float
    normal_ks: float
    lognormal_params: Tuple[float, float, float]

    @property
    def lognormal_fits_better(self) -> bool:
        """The paper's claim: the log-normal model fits the readings better."""
        return self.lognormal_ks < self.normal_ks

    def rows(self) -> List[Dict[str, object]]:
        """Histogram rows for table rendering (Figure 2's bars)."""
        return [
            {"power_w": f"{int(low)}-{int(high)}", "count": count}
            for low, high, count in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts)
        ]


def power_distribution(
    dataset: MeterDataset,
    bin_width: float = 100.0,
    max_power: float = 2400.0,
    sample_limit: int = 500_000,
    seed: int = 0,
) -> DistributionReport:
    """Histogram of raw readings across all houses plus distribution fits."""
    from scipy import stats as scipy_stats  # slow to load; see gaussian_breakpoints

    if bin_width <= 0 or max_power <= 0:
        raise ExperimentError("bin_width and max_power must be positive")
    values: List[np.ndarray] = [house.mains.values for house in dataset]
    pooled = np.concatenate(values)
    pooled = pooled[pooled > 0]
    if pooled.size == 0:
        raise ExperimentError("dataset holds no positive readings")
    if pooled.size > sample_limit:
        rng = np.random.default_rng(seed)
        pooled = rng.choice(pooled, size=sample_limit, replace=False)

    edges = np.arange(0.0, max_power + bin_width, bin_width)
    counts, _ = np.histogram(pooled, bins=edges)

    log_shape, log_loc, log_scale = scipy_stats.lognorm.fit(pooled, floc=0.0)
    lognormal_ks = scipy_stats.kstest(
        pooled, "lognorm", args=(log_shape, log_loc, log_scale)
    ).statistic
    normal_ks = scipy_stats.kstest(
        pooled, "norm", args=(pooled.mean(), pooled.std())
    ).statistic
    return DistributionReport(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        lognormal_ks=float(lognormal_ks),
        normal_ks=float(normal_ks),
        lognormal_params=(float(log_shape), float(log_loc), float(log_scale)),
    )
