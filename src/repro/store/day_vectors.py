"""Day-vector stores: Table 1's classification tables as packed symbols.

A day-vector store persists the output of
:func:`repro.analytics.vectors.day_vector_parts` — one bit-packed column per
(house, day) instance, the house label of every row, the per-house lookup
tables and the full :class:`DayVectorConfig` — so every experiment that
needs a configuration's day vectors (Table 1 cells, Figures 5–7, the CLI)
can read them straight off the file instead of re-aggregating and
re-encoding the raw fleet.  ``SymbolStore.day_vectors()`` rebuilds the
:class:`~repro.ml.dataset.MLDataset` bit-identically to the in-memory
``build_day_vectors`` path (pinned by ``tests/store/``).
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..errors import StoreError
from .format import DENSE, SymbolStoreWriter
from .segments import SymbolStore

__all__ = [
    "day_vector_store_path",
    "write_day_vector_store",
    "load_day_vectors",
    "store_from_ml_dataset",
]


def day_vector_store_path(directory: Union[str, Path], config) -> Path:
    """Canonical ``.rsym`` filename for one :class:`DayVectorConfig`.

    Every encoding-relevant field is in the name, so two configs share a
    file exactly when they share an encoding.
    """
    scope = "global" if config.global_table else "local"
    name = (
        f"dayvec_{config.encoding}_{config.aggregation_seconds:g}s_"
        f"k{config.alphabet_size}_{scope}_b{config.bootstrap_days}_"
        f"h{config.min_hours:g}.rsym"
    )
    return Path(directory) / name


def _config_dict(config) -> Dict:
    return asdict(config)


def write_day_vector_store(path: Union[str, Path], dataset, config):
    """Encode ``dataset`` under ``config`` and persist the day vectors.

    Returns the freshly built :class:`MLDataset` (so a cold-cache caller
    pays for the encoding exactly once).  Raw encodings have no symbols to
    pack and are rejected.
    """
    from ..analytics.vectors import RAW_ENCODING, day_vector_parts

    if config.encoding == RAW_ENCODING:
        raise StoreError("raw day vectors are real values; nothing to bit-pack")
    matrix, labels, tables_by_label = day_vector_parts(dataset, config)
    words = list(next(iter(tables_by_label.values())).alphabet.words)
    class_names = sorted(set(labels))
    metadata = {
        "kind": "day_vectors",
        "config": _config_dict(config),
        "attribute_names": [f"slot_{i}" for i in range(matrix.shape[1])],
        "categories": words,
        "class_names": class_names,
        "aggregation_seconds": config.aggregation_seconds,
        "windows_per_day": config.slots_per_day,
    }
    with SymbolStoreWriter(
        path, config.alphabet_size, layout=DENSE,
        tables=tables_by_label, metadata=metadata,
    ) as writer:
        writer.append_matrix(
            list(range(matrix.shape[0])), matrix, labels=labels
        )
    from ..ml.dataset import Attribute, MLDataset

    attributes = [
        Attribute.nominal(name, tuple(words))
        for name in metadata["attribute_names"]
    ]
    return MLDataset(
        attributes, matrix.astype(np.float64), labels, class_names=class_names
    )


def load_day_vectors(path: Union[str, Path], config=None):
    """Read a day-vector store back into an :class:`MLDataset`.

    When ``config`` is given, the store's recorded configuration must match
    field for field — a stale or mislabeled store fails loudly instead of
    silently feeding the wrong vectors to an experiment.
    """
    with SymbolStore.open(path) as store:
        if config is not None:
            stored = store.metadata.get("config")
            if stored != _config_dict(config):
                raise StoreError(
                    f"{Path(path).name} was written for config {stored}, "
                    f"not {_config_dict(config)}"
                )
        return store.day_vectors()


def store_from_ml_dataset(
    path: Union[str, Path],
    dataset,
    metadata: Optional[Dict] = None,
) -> Path:
    """Persist an all-nominal :class:`MLDataset` as a day-vector store.

    Requires every attribute to share one category tuple (true for day
    vectors and the parity goldens).  Round-trips exactly:
    ``SymbolStore.open(path).day_vectors()`` equals ``dataset``.
    """
    categories = None
    for attribute in dataset.attributes:
        if not attribute.is_nominal:
            raise StoreError(
                f"attribute {attribute.name!r} is numeric; only all-nominal "
                "datasets can be bit-packed"
            )
        if categories is None:
            categories = attribute.categories
        elif attribute.categories != categories:
            raise StoreError("attributes must share one category tuple")
    if categories is None:
        raise StoreError("dataset has no attributes")
    meta = {
        "kind": "day_vectors",
        "attribute_names": [a.name for a in dataset.attributes],
        "categories": list(categories),
        "class_names": list(dataset.class_names),
    }
    meta.update(metadata or {})
    labels = [dataset.label_of(i) for i in range(len(dataset))]
    matrix = dataset.X.astype(np.int64)
    with SymbolStoreWriter(
        path, len(categories), layout=DENSE, metadata=meta,
    ) as writer:
        writer.append_matrix(list(range(len(dataset))), matrix, labels=labels)
    return Path(path)
