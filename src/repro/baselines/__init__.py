"""Baseline time-series representations the paper compares against.

* :mod:`repro.baselines.paa` — Piecewise Aggregate Approximation.
* :mod:`repro.baselines.sax` — SAX with z-normalisation and Gaussian breakpoints.
"""

from .paa import paa, paa_series
from .sax import SAXEncoder, SAXWord, gaussian_breakpoints, mindist, znormalize

__all__ = [
    "SAXEncoder",
    "SAXWord",
    "gaussian_breakpoints",
    "mindist",
    "paa",
    "paa_series",
    "znormalize",
]
