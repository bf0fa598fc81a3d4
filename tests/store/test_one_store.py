"""One store type: a bare ``.rsym`` file reads exactly like a ``.rsyms`` directory.

The same symbols written as a bare file, a one-segment directory and a
three-segment directory open to one class and agree bit for bit on every
read, in both payload layouts.  A stale sidecar degrades the same way for
both kinds.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.lookup import LookupTable
from repro.errors import StoreIntegrityWarning
from repro.obs import registry
from repro.query import QueryConfig, QueryEngine, build_query_index, write_query_index
from repro.store import (
    DENSE,
    RLE,
    SegmentedStore,
    SymbolStore,
    SymbolStoreWriter,
    append_segment,
    create_segmented_store,
    open_store,
    write_fleet_store,
)

WINDOWS_PER_DAY = 24
DAYS = 6
IDS = ["a", "b", "c", "d", "e"]


@pytest.fixture(scope="module")
def indices():
    rng = np.random.default_rng(29)
    matrix = rng.integers(0, 8, size=(len(IDS), DAYS * WINDOWS_PER_DAY))
    # Plateaus across both cut points (48 and 96) so boundary runs merge.
    matrix[:, 40:60] = 2
    matrix[1:3, 90:110] = 5
    return matrix


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(3)
    return LookupTable.fit(np.abs(rng.normal(2.0, 1.0, 500)), 8)


@pytest.fixture(scope="module", params=[DENSE, RLE])
def stores(request, tmp_path_factory, indices, table):
    """``{kind: path}`` for the same symbols as a file and two directories."""
    layout = request.param
    base = tmp_path_factory.mktemp(f"one-{layout}")
    metadata = {"windows_per_day": WINDOWS_PER_DAY}
    bare = base / "bare.rsym"
    with SymbolStoreWriter(
        bare, 8, layout=layout, tables=table, metadata=metadata
    ) as writer:
        writer.append_matrix(IDS, indices)
    paths = {"bare": bare}
    for name, cuts in (("one", [0]), ("three", [0, 48, 96])):
        directory = base / f"{name}.rsyms"
        create_segmented_store(
            directory, alphabet_size=8, layout=layout, metadata=metadata,
            ids=IDS,
        ).close()
        for lo, hi in zip(cuts, cuts[1:] + [indices.shape[1]]):
            append_segment(directory, indices[:, lo:hi], tables=table)
        paths[name] = directory
    return paths


def _reads(store: SymbolStore) -> dict:
    runs = [store.runs(meter) for meter in store.ids]
    return {
        "ids": store.ids,
        "counts": store.counts,
        "indices": [store.indices(meter, 11, 130) for meter in store.ids],
        "matrix": store.matrix(),
        "subset": store.matrix(meters=["d", "b"], window_range=(30, 100)),
        "block": store.matrix_block(1, 4, window_range=(45, 101)),
        "whole_block": store.matrix_block(0, len(IDS)),
        "run_values": [values for values, _ in runs],
        "run_lengths": [lengths for _, lengths in runs],
        "run_counts": build_query_index(store).run_counts,
        "decode": store.decode(day_range=(1, 5)),
        "decode_subset": store.decode(meters=["e", "a"], window_range=(5, 140)),
        "tables": store.tables,
        "ok": store.verify()["ok"],
    }


def _assert_same(left, right) -> None:
    if isinstance(left, np.ndarray):
        assert left.tobytes() == np.asarray(right, dtype=left.dtype).tobytes()
        assert left.shape == np.shape(right)
    elif isinstance(left, list) and left and isinstance(left[0], np.ndarray):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _assert_same(a, b)
    else:
        assert left == right


def test_every_kind_opens_to_one_class(stores):
    kinds = {name: type(open_store(path)) for name, path in stores.items()}
    assert set(kinds.values()) == {SymbolStore}
    assert SegmentedStore is SymbolStore
    assert type(SegmentedStore.open(stores["bare"])) is SymbolStore
    assert type(SymbolStore.open(stores["three"])) is SymbolStore


def test_bare_file_is_a_one_segment_view(stores):
    with open_store(stores["bare"]) as store:
        assert store.generation is None
        assert store.n_segments == 1
        assert store.quarantined == []
        assert store.metadata == {"windows_per_day": WINDOWS_PER_DAY}
        (segment,) = store.segments
        assert segment.shared_table == store.shared_table


@pytest.mark.parametrize("kind", ["one", "three"])
def test_reads_agree_bit_for_bit(stores, indices, kind):
    with open_store(stores["bare"]) as bare, open_store(stores[kind]) as other:
        assert other.n_segments == (1 if kind == "one" else 3)
        expected, actual = _reads(bare), _reads(other)
        for name in expected:
            _assert_same(expected[name], actual[name])
        np.testing.assert_array_equal(expected["matrix"], indices)


def test_stale_sidecar_on_bare_file_degrades_once(tmp_path):
    rng = np.random.default_rng(8)
    fleet = np.abs(rng.normal(3.0, 1.0, size=(9, 96)))
    path = tmp_path / "fleet.rsym"
    write_query_index(write_fleet_store(path, fleet, alphabet_size=8))
    # Rewrite the file under its sidecar: the fingerprint no longer matches.
    write_fleet_store(path, fleet[:7], alphabet_size=8).close()
    stale_before = registry().counter_value("store.stale_index_total")
    with pytest.warns(StoreIntegrityWarning, match="ignoring stale query index"):
        engine = QueryEngine.open(path)
    with engine:
        assert engine._index is None
        queries = fleet[[1, 4], :]
        result = engine.knn(queries, QueryConfig(k=3))
        brute = engine.brute_force_knn(queries, k=3)
        np.testing.assert_array_equal(result.positions, brute.positions)
        assert result.distances.tobytes() == brute.distances.tobytes()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        QueryEngine.open(path).close()
    assert not [w for w in caught if issubclass(w.category, StoreIntegrityWarning)]
    assert registry().counter_value("store.stale_index_total") == stale_before + 2
