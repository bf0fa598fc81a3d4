"""repro — reproduction of "Symbolic Representation of Smart Meter Data" (EDBT 2013).

The package is organised as:

``repro.core``
    The paper's contribution: vertical/horizontal segmentation, lookup
    tables, batch and online symbolic encoders, multi-resolution operations
    and the compression model.

``repro.baselines``
    PAA and SAX, the representations the paper positions itself against.

``repro.datasets``
    Synthetic substitutes for the REDD, Smart* and Irish CER datasets.

``repro.ml``
    From-scratch classifiers/regressors standing in for Weka (Naive Bayes,
    decision tree, random forest, logistic regression, SVR) plus metrics and
    cross-validation.

``repro.analytics``
    The paper's two applications: household classification (customer
    segmentation) and symbolic load forecasting, plus privacy measures.

``repro.pipeline``
    The unified vectorized encoding engine: composable stages, the
    batch/streaming :class:`Pipeline` and the fleet-scale
    :class:`FleetEncoder` that batch and online encoders delegate to.

``repro.parallel``
    Deterministic multi-core execution: grid cells, cross-validation folds
    and fleet meter shards over a process pool with bit-identical outputs.

``repro.store``
    Out-of-core bit-packed symbol storage: the columnar, memory-mapped
    ``.rsym`` store that persists encoded fleets and day-vector tables at
    the paper's ``ceil(log2(k))`` bits per symbol, as real bytes.

``repro.experiments``
    Reproduction harness for every table and figure of the evaluation.
"""

from . import (
    analytics,
    baselines,
    core,
    datasets,
    experiments,
    ml,
    parallel,
    pipeline,
    store,
)
from .core import (
    BinaryAlphabet,
    LookupTable,
    OnlineEncoder,
    Symbol,
    SymbolicEncoder,
    SymbolicSeries,
    TimeSeries,
)
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "BinaryAlphabet",
    "LookupTable",
    "OnlineEncoder",
    "ReproError",
    "Symbol",
    "SymbolicEncoder",
    "SymbolicSeries",
    "TimeSeries",
    "__version__",
    "analytics",
    "baselines",
    "core",
    "datasets",
    "experiments",
    "ml",
    "parallel",
    "pipeline",
    "store",
]
