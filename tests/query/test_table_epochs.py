"""Distance queries refuse a store whose segments carry several table epochs.

A drift rebuild appends segments under a new shared table; the store then
holds table epochs, not per-meter tables.  The refusal counts distinct
tables, not segments, and names them as epochs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lookup import LookupTable
from repro.errors import QueryError
from repro.query import resolve_shared_table
from repro.store import SymbolStore, append_segment, write_segmented_fleet


def test_table_epochs_are_counted_as_epochs(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.lognormal(4.0, 1.0, size=(6, 8 * 24))
    write_segmented_fleet(
        tmp_path / "drift.rsyms", values, alphabet_size=8, method="median",
        segment_windows=24,
    ).close()
    drifted = LookupTable.fit(rng.lognormal(6.0, 1.0, size=400), 8)
    for _ in range(3):
        append_segment(
            tmp_path / "drift.rsyms", rng.integers(0, 8, size=(6, 24)),
            tables=drifted,
        )
    with SymbolStore.open(tmp_path / "drift.rsyms") as store:
        assert store.n_segments == 11
        with pytest.raises(QueryError, match="carries 2 table epochs"):
            resolve_shared_table(store)
