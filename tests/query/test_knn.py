"""kNN engine tests: pruned == brute force, bit for bit, for every worker count.

Acceptance: ``knn`` with lower-bound pruning returns bit-identical neighbour
sets to brute-force exact search on the session fixture, for workers
{1, 2, 4}.  Plus the bugfix satellite: a store written with genuinely
per-meter tables is refused with a clear :class:`QueryError` instead of
returning nonsense distances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import DayVectorConfig
from repro.errors import QueryError
from repro.query import (
    QueryConfig,
    QueryEngine,
    QueryIndex,
    build_query_index,
    query_index_path,
    resolve_shared_table,
    write_query_index,
)
from repro.store import RLE, SymbolStore, write_day_vector_store, write_fleet_store


def _fleet_matrix(dataset) -> np.ndarray:
    houses = list(dataset)
    n_samples = min(len(house.mains) for house in houses)
    return np.vstack([house.mains.values[:n_samples] for house in houses])


@pytest.fixture(scope="module")
def fixture_store(small_redd, tmp_path_factory):
    """The session fixture's fleet as a shared-table store with sidecar."""
    path = tmp_path_factory.mktemp("knn") / "fleet.rsym"
    matrix = _fleet_matrix(small_redd)
    store = write_fleet_store(
        path, matrix, alphabet_size=8, method="median", window=15,
        shared_table=True, sampling_interval=120.0,
        meter_ids=[house.house_id for house in list(small_redd)],
        query_index=True,
    )
    return store


@pytest.fixture(scope="module")
def synthetic_store(tmp_path_factory):
    """A wider fleet (64 meters) where pruning actually engages."""
    rng = np.random.default_rng(11)
    levels = np.exp(rng.normal(5.0, 1.0, size=64))[:, None]
    day = 1.0 + 0.5 * np.sin(np.linspace(0, 6 * np.pi, 288))[None, :]
    values = np.abs(levels * day * (1 + rng.normal(0, 0.1, size=(64, 288))))
    path = tmp_path_factory.mktemp("knn_synth") / "fleet.rsym"
    return write_fleet_store(
        path, values, alphabet_size=16, method="median", window=1,
        shared_table=True, sampling_interval=900.0, query_index=True,
    )


def _queries_from(store, seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    picks = rng.choice(store.n_meters, size=min(n, store.n_meters), replace=False)
    decoded = store.decode(meters=[store.ids[p] for p in picks])
    return decoded * (1.0 + rng.normal(0.0, 0.03, size=decoded.shape))


class TestExactness:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pruned_equals_brute_force_on_fixture(self, fixture_store, workers):
        engine = QueryEngine.open(fixture_store.path)
        queries = _queries_from(fixture_store, seed=3, n=6)
        pruned = engine.knn(queries, QueryConfig(k=3, workers=workers))
        brute = engine.brute_force_knn(queries, k=3)
        np.testing.assert_array_equal(pruned.positions, brute.positions)
        np.testing.assert_array_equal(pruned.distances, brute.distances)
        assert pruned.ids == brute.ids

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pruned_equals_brute_force_synthetic(self, synthetic_store, workers):
        engine = QueryEngine.open(synthetic_store.path)
        queries = _queries_from(synthetic_store, seed=5, n=16)
        pruned = engine.knn(queries, QueryConfig(k=5, workers=workers))
        brute = engine.brute_force_knn(queries, k=5)
        np.testing.assert_array_equal(pruned.positions, brute.positions)
        np.testing.assert_array_equal(pruned.distances, brute.distances)

    def test_pruning_engages(self, synthetic_store):
        engine = QueryEngine.open(synthetic_store.path)
        queries = _queries_from(synthetic_store, seed=7, n=16)
        result = engine.knn(queries, QueryConfig(k=3, refine_chunk=8))
        assert result.stats.index_used
        assert result.stats.decoded_fraction < 1.0
        assert result.stats.refined >= result.stats.n_queries * 3

    def test_self_query_distance_zero(self, fixture_store):
        engine = QueryEngine.open(fixture_store.path)
        query = fixture_store.decode(meters=[fixture_store.ids[2]])[0]
        result = engine.knn(query, QueryConfig(k=1))
        assert result.positions[0, 0] == 2
        assert result.distances[0, 0] == 0.0

    def test_exclude_ids(self, fixture_store):
        engine = QueryEngine.open(fixture_store.path)
        query_id = fixture_store.ids[2]
        query = fixture_store.decode(meters=[query_id])[0]
        result = engine.knn(query, QueryConfig(k=2), exclude_ids=[query_id])
        assert query_id not in result.ids[0]
        assert result.stats.n_candidates == fixture_store.n_meters - 1

    def test_rle_store_matches_dense(self, small_redd, tmp_path):
        matrix = _fleet_matrix(small_redd)
        dense = write_fleet_store(
            tmp_path / "d.rsym", matrix, alphabet_size=8, method="median",
            window=15, shared_table=True, query_index=True,
        )
        rle = write_fleet_store(
            tmp_path / "r.rsym", matrix, alphabet_size=8, method="median",
            window=15, shared_table=True, layout=RLE, query_index=True,
        )
        queries = _queries_from(dense, seed=1, n=4)
        a = QueryEngine.open(dense.path).knn(queries, QueryConfig(k=3))
        b = QueryEngine.open(rle.path).knn(queries, QueryConfig(k=3))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.distances, b.distances)

    def test_tie_break_is_by_column_position(self, tmp_path):
        # Three identical meters: ties resolve by position, deterministically.
        values = np.vstack([np.linspace(1, 100, 64)] * 3 + [np.full(64, 500.0)])
        store = write_fleet_store(
            tmp_path / "ties.rsym", values, alphabet_size=4, method="uniform",
            shared_table=True, query_index=True,
        )
        engine = QueryEngine(store, index=build_query_index(store))
        query = store.decode(meters=[0])[0]
        result = engine.knn(query, QueryConfig(k=3))
        np.testing.assert_array_equal(result.positions[0], [0, 1, 2])
        brute = engine.brute_force_knn(query, k=3)
        np.testing.assert_array_equal(result.positions, brute.positions)

    def test_k_larger_than_fleet(self, fixture_store):
        engine = QueryEngine.open(fixture_store.path)
        query = fixture_store.decode(meters=[fixture_store.ids[0]])[0]
        result = engine.knn(query, QueryConfig(k=100))
        assert result.positions.shape == (1, fixture_store.n_meters)
        # All candidates refined, sorted ascending by distance.
        assert np.all(np.diff(result.distances[0]) >= 0)


class TestValidation:
    def test_wrong_query_length(self, fixture_store):
        engine = QueryEngine.open(fixture_store.path)
        with pytest.raises(QueryError, match="query length"):
            engine.knn(np.zeros(3), QueryConfig(k=1))

    def test_nan_query(self, fixture_store):
        engine = QueryEngine.open(fixture_store.path)
        width = int(fixture_store.counts[0])
        bad = np.full(width, np.nan)
        with pytest.raises(QueryError, match="NaN"):
            engine.knn(bad, QueryConfig(k=1))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_query(self, fixture_store, value):
        engine = QueryEngine.open(fixture_store.path)
        query = fixture_store.decode(meters=[fixture_store.ids[0]])[0]
        query[3] = value
        with pytest.raises(QueryError, match="finite"):
            engine.knn(query, QueryConfig(k=3))

    def test_unknown_exclude_id(self, fixture_store):
        engine = QueryEngine.open(fixture_store.path)
        query = fixture_store.decode(meters=[fixture_store.ids[0]])[0]
        with pytest.raises(Exception):
            engine.knn(query, QueryConfig(k=1), exclude_ids=["nope"])

    def test_nonpositive_refine_chunk_rejected_at_construction(self):
        # Regression: refine_chunk <= 0 used to surface as a confusing
        # downstream failure; now it's a QueryError before any query runs.
        with pytest.raises(QueryError, match="refine_chunk"):
            QueryConfig(k=1, refine_chunk=0)
        with pytest.raises(QueryError, match="refine_chunk"):
            QueryConfig(k=1, refine_chunk=-4)

    def test_nonpositive_k_rejected_at_construction(self):
        with pytest.raises(QueryError, match="k must be"):
            QueryConfig(k=0)
        with pytest.raises(QueryError, match="k must be"):
            QueryConfig(k=-1)

    def test_negative_workers_rejected_at_construction(self):
        with pytest.raises(QueryError, match="workers"):
            QueryConfig(k=1, workers=-1)
        # 0 stays legal: the CLI convention for "one worker per CPU".
        assert QueryConfig(k=1, workers=0).workers == 0


class TestPerMeterTableRefusal:
    """Bugfix satellite: mismatched per-meter tables must refuse loudly."""

    def test_per_meter_fleet_store_is_refused(self, small_redd, tmp_path):
        matrix = _fleet_matrix(small_redd)
        store = write_fleet_store(
            tmp_path / "local.rsym", matrix, alphabet_size=8, method="median",
            window=15, shared_table=False,
        )
        engine = QueryEngine(store)
        query = np.zeros(int(store.counts[0]))
        with pytest.raises(QueryError, match="distinct per-meter lookup"):
            engine.knn(query, QueryConfig(k=1))
        # mindist between columns needs the shared table too.
        with pytest.raises(QueryError, match="distinct per-meter lookup"):
            engine.mindist_columns(store.ids[0], store.ids[1])

    def test_local_day_vector_store_is_refused(self, small_redd, tmp_path):
        config = DayVectorConfig(
            encoding="median", aggregation_seconds=3600.0, alphabet_size=4,
            global_table=False,
        )
        write_day_vector_store(tmp_path / "dv.rsym", small_redd, config)
        store = SymbolStore.open(tmp_path / "dv.rsym")
        with pytest.raises(QueryError, match="distinct per-meter lookup"):
            resolve_shared_table(store)

    def test_global_day_vector_store_renormalises(self, small_redd, tmp_path):
        """All-equal by-label tables collapse to one shared table: kNN over
        (house, day) rows works on global-table day-vector stores."""
        config = DayVectorConfig(
            encoding="median", aggregation_seconds=3600.0, alphabet_size=4,
            global_table=True,
        )
        write_day_vector_store(tmp_path / "dvg.rsym", small_redd, config)
        store = SymbolStore.open(tmp_path / "dvg.rsym")
        table = resolve_shared_table(store)
        assert table.size == 4
        engine = QueryEngine(store, index=build_query_index(store))
        query = store.decode(meters=[store.ids[0]])[0]
        result = engine.knn(query, QueryConfig(k=3))
        brute = engine.brute_force_knn(query, k=3)
        np.testing.assert_array_equal(result.positions, brute.positions)
        np.testing.assert_array_equal(result.distances, brute.distances)


class TestSidecarIntegration:
    def test_query_index_written_by_fleet_writer(self, fixture_store):
        assert query_index_path(fixture_store.path).exists()

    def test_open_picks_up_sidecar(self, fixture_store):
        engine = QueryEngine.open(fixture_store.path)
        sidecar = QueryIndex.open(query_index_path(fixture_store.path))
        np.testing.assert_array_equal(
            engine.index().band_histograms, sidecar.band_histograms
        )
        assert engine.source.stats.columns_decoded == 0  # read, not built

    def test_missing_sidecar_builds_in_memory(self, small_redd, tmp_path):
        matrix = _fleet_matrix(small_redd)
        store = write_fleet_store(
            tmp_path / "bare.rsym", matrix, alphabet_size=8, method="median",
            window=15, shared_table=True,
        )
        engine = QueryEngine.open(store.path)
        assert engine._index is None  # the open reads no payload byte
        queries = _queries_from(store, seed=2, n=2)
        result = engine.knn(queries, QueryConfig(k=2))
        assert result.stats.index_used
        np.testing.assert_array_equal(
            engine._index.band_histograms,
            build_query_index(store).band_histograms,
        )
        brute = engine.brute_force_knn(queries, k=2)
        np.testing.assert_array_equal(result.positions, brute.positions)

    def test_stale_sidecar_is_refused(self, small_redd, tmp_path):
        matrix = _fleet_matrix(small_redd)
        first = write_fleet_store(
            tmp_path / "a.rsym", matrix, alphabet_size=8, method="median",
            window=15, shared_table=True, query_index=True,
        )
        other = write_fleet_store(
            tmp_path / "b.rsym", matrix[:4], alphabet_size=8, method="median",
            window=15, shared_table=True,
        )
        index = build_query_index(first)
        with pytest.raises(QueryError, match="stale"):
            QueryEngine(other, index=index)

    def test_sidecar_bytes_identical_across_workers(self, synthetic_store, tmp_path):
        paths = []
        for workers in (1, 2, 4):
            path = tmp_path / f"w{workers}.rsymx"
            index = build_query_index(synthetic_store, workers=workers)
            index.write(path)
            paths.append(path)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_write_query_index_default_path(self, small_redd, tmp_path):
        matrix = _fleet_matrix(small_redd)
        store = write_fleet_store(
            tmp_path / "c.rsym", matrix, alphabet_size=8, method="median",
            window=15, shared_table=True,
        )
        sidecar = write_query_index(store)
        assert sidecar == tmp_path / "c.rsymx"
        assert sidecar.exists()
