"""SAX — Symbolic Aggregate approXimation (Lin, Keogh, Wei, Lonardi 2007).

SAX is the representation the paper positions itself against: it assumes the
(z-normalised) values are Gaussian, takes breakpoints from the standard
normal quantile table so every symbol is equiprobable *under that
assumption*, and runs offline with a fixed alphabet size.

The paper's *median* method generalises SAX's equiprobable breakpoints to the
empirical (log-normal) distribution without normalisation; implementing SAX
here lets the benchmarks compare both directly (including the Figure 3
argument that per-house z-normalisation erases the consumption level that
distinguishes big consumers from small ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import SegmentationError
from ..core.timeseries import TimeSeries
from ..pipeline.stages import LookupStage
from .paa import paa

__all__ = ["gaussian_breakpoints", "znormalize", "SAXEncoder", "SAXWord", "mindist"]


def gaussian_breakpoints(alphabet_size: int) -> List[float]:
    """Standard-normal quantile breakpoints for ``alphabet_size`` symbols.

    These are the values tabulated in the SAX paper (e.g. ``[-0.43, 0.43]``
    for three symbols, ``[-0.67, 0.0, 0.67]`` for four).
    """
    # Loaded here, not at module import: scipy.stats costs about a second
    # and ``import repro`` (every CLI call, every server boot) reaches this
    # module.
    from scipy import stats as scipy_stats

    if alphabet_size < 2:
        raise SegmentationError("alphabet size must be >= 2")
    quantiles = np.arange(1, alphabet_size) / alphabet_size
    return [float(b) for b in scipy_stats.norm.ppf(quantiles)]


def znormalize(values: Union[Sequence[float], np.ndarray], epsilon: float = 1e-8) -> np.ndarray:
    """Z-normalise values; near-constant series are mapped to all zeros."""
    arr = np.asarray(values, dtype=np.float64)
    std = arr.std()
    if std < epsilon:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std


@dataclass(frozen=True)
class SAXWord:
    """Result of encoding one series: symbol indices plus alphabet size."""

    indices: tuple
    alphabet_size: int

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def letters(self) -> str:
        """Conventional letter form (``a`` = lowest range)."""
        return "".join(chr(ord("a") + i) for i in self.indices)

    def __str__(self) -> str:
        return self.letters


class SAXEncoder:
    """Classic SAX: z-normalise, PAA, quantise with Gaussian breakpoints.

    Parameters
    ----------
    alphabet_size:
        Number of symbols (not restricted to powers of two).
    segments:
        Number of PAA frames; ``0`` keeps the original length (no PAA).
    normalize:
        Whether to z-normalise each series individually (SAX default).  The
        paper argues against this for smart-meter data; setting it to
        ``False`` yields "SAX breakpoints on raw data" for ablations.
    """

    def __init__(
        self, alphabet_size: int = 8, segments: int = 0, normalize: bool = True
    ) -> None:
        if alphabet_size < 2:
            raise SegmentationError("alphabet size must be >= 2")
        self.alphabet_size = int(alphabet_size)
        self.segments = int(segments)
        self.normalize = bool(normalize)
        self._breakpoints = np.asarray(gaussian_breakpoints(alphabet_size))
        # Quantisation is the same lookup stage the paper's encoder uses,
        # just with Gaussian breakpoints instead of a learned table.
        self._lookup = LookupStage(self._breakpoints)
        # Centre of every quantile range, precomputed for vectorized decode;
        # unbounded outer ranges reuse the nearest breakpoint +- 1.
        lows = np.concatenate([[self._breakpoints[0] - 1.0], self._breakpoints])
        highs = np.concatenate([self._breakpoints, [self._breakpoints[-1] + 1.0]])
        self._centres = (lows + highs) / 2.0

    @property
    def breakpoints(self) -> List[float]:
        """The Gaussian breakpoints in use."""
        return [float(b) for b in self._breakpoints]

    def transform_values(self, values: Union[Sequence[float], np.ndarray]) -> SAXWord:
        """Encode a plain array of values."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise SegmentationError("cannot SAX-encode an empty series")
        if self.normalize:
            arr = znormalize(arr)
        if self.segments:
            arr = paa(arr, self.segments)
        indices = self._lookup.run_batch(arr)
        return SAXWord(tuple(indices.tolist()), self.alphabet_size)

    def transform(self, series: TimeSeries) -> SAXWord:
        """Encode a :class:`TimeSeries`."""
        return self.transform_values(series.values)

    def reconstruct(self, word: SAXWord) -> np.ndarray:
        """Map each symbol back to the centre of its normal-quantile range.

        Unbounded outer ranges reuse the nearest breakpoint, mirroring the
        behaviour of the lookup-table reconstruction in ``repro.core``.
        """
        indices = np.asarray(word.indices, dtype=np.int64)
        return self._centres[indices]


def mindist(
    a: SAXWord, b: SAXWord, original_length: int, breakpoints: Optional[Sequence[float]] = None
) -> float:
    """The SAX lower-bounding distance MINDIST between two words.

    Both words must have the same length and alphabet size.
    ``original_length`` is the length of the raw series before PAA.
    """
    if len(a) != len(b):
        raise SegmentationError("SAX words must have equal length")
    if a.alphabet_size != b.alphabet_size:
        raise SegmentationError("SAX words must share an alphabet size")
    beta = np.asarray(
        breakpoints if breakpoints is not None else gaussian_breakpoints(a.alphabet_size)
    )

    def cell(i: int, j: int) -> float:
        if abs(i - j) <= 1:
            return 0.0
        return float(beta[max(i, j) - 1] - beta[min(i, j)])

    squared = sum(cell(i, j) ** 2 for i, j in zip(a.indices, b.indices))
    scale = np.sqrt(original_length / len(a)) if len(a) else 0.0
    return float(scale * np.sqrt(squared))
