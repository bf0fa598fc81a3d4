"""kNN reads candidate columns by position, so repeated ids score right.

A bare ``.rsym`` may repeat a meter id, and an id names its last column,
so a refine that read candidates by id scored the last column of an id in
place of each earlier one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lookup import LookupTable
from repro.query import QueryConfig, QueryEngine
from repro.store import SymbolStoreWriter


@pytest.fixture()
def repeated(tmp_path):
    """Three 8-window columns, ids ``a, a, b``: all 0, all 7 and all 3."""
    table = LookupTable.from_breakpoints([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    path = tmp_path / "repeated.rsym"
    with SymbolStoreWriter(path, alphabet_size=8, tables=table) as writer:
        for column_id, symbol in (("a", 0), ("a", 7), ("b", 3)):
            writer.append(column_id, np.full(8, symbol))
    return path, table


@pytest.mark.parametrize("use_index", [True, False])
def test_knn_scores_each_column_of_a_repeated_id(repeated, use_index):
    path, table = repeated
    recon = table.reconstruction_array
    query = np.full(8, recon[0])
    with QueryEngine.open(path) as engine:
        result = engine.knn(query, QueryConfig(k=3, use_index=use_index))
        brute = engine.brute_force_knn(query, k=3)
    expected = np.sqrt(8 * (recon[[0, 3, 7]] - recon[0]) ** 2)
    for found in (result, brute):
        assert found.positions[0].tolist() == [0, 2, 1]
        assert found.ids[0] == ["a", "b", "a"]
        assert found.distances[0].tolist() == pytest.approx(expected)
        assert found.distances[0, 0] == 0.0
