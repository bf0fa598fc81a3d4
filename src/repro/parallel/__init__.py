"""Deterministic multi-core execution layer.

The paper's experiment grid, the cross-validation protocol and the
fleet-scale encoder are all embarrassingly parallel *and* fully seeded — so
this package shards them across processes without changing a single output
bit.  Three grains of work are supported:

* **grid cells** — one Table 1 configuration row (all its classifiers) per
  task (:meth:`repro.experiments.runner.GridRunner.run_grid` with
  ``workers``);
* **cross-validation folds** — one fold fit/predict per task
  (:func:`repro.ml.crossval.cross_validate` with ``workers``);
* **meter shards** — contiguous row blocks of the fleet array
  (:meth:`repro.pipeline.FleetEncoder.fit_encode` with ``workers``).

All three funnel through one :class:`ParallelExecutor` whose ``workers=1``
mode *is* the pre-existing serial code path, and whose parallel mode merges
results in stable task-index order.  Grid workers rebuild datasets from
:class:`DatasetDescriptor` seeds instead of unpickling raw arrays.  Query
plans do not use this layer: :class:`~repro.query.ScanPlan` runs its shards
on threads over the caller's open store, so a query starts no process.  The
parity suite under ``tests/parallel/`` pins bit-identical outputs for
``workers ∈ {1, 2, 4}`` against the PR 2 goldens.
"""

from ..datasets.descriptors import DatasetDescriptor
from .executor import ParallelExecutor, resolve_workers
from .worker import GridChunkTask, run_grid_chunk

__all__ = [
    "DatasetDescriptor",
    "GridChunkTask",
    "ParallelExecutor",
    "resolve_workers",
    "run_grid_chunk",
]
