"""Segmented stores: parity with single files, durability, recovery, ingest."""

from __future__ import annotations

import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.streaming import OnlineEncoder
from repro.errors import CorruptStoreError, StoreError, StoreIntegrityWarning
from repro.query import QueryEngine, build_query_index, write_query_index
from repro.query.engine import QueryConfig
from repro.store import (
    RLE,
    FleetIngestor,
    SegmentedStore,
    SymbolStore,
    append_segment,
    create_segmented_store,
    faults,
    open_store,
    scrub_store,
    write_fleet_store,
    write_segmented_fleet,
)


@pytest.fixture(scope="module")
def fleet_values():
    rng = np.random.default_rng(71)
    base = np.abs(rng.normal(2.0, 0.8, size=(14, 96 * 4)))
    base[:, 120:260] = 0.4  # standby plateau so RLE has real runs
    return base


@pytest.fixture(scope="module")
def seg_dir(tmp_path_factory, fleet_values):
    directory = tmp_path_factory.mktemp("segments") / "fleet.rsyms"
    write_segmented_fleet(
        directory, fleet_values, alphabet_size=8, window=4,
        sampling_interval=900, segment_windows=24,
    ).close()
    return directory


@pytest.fixture(scope="module")
def ref_store(tmp_path_factory, fleet_values):
    path = tmp_path_factory.mktemp("segments-ref") / "ref.rsym"
    write_fleet_store(
        path, fleet_values, alphabet_size=8, window=4, sampling_interval=900,
    ).close()
    return path


class TestParity:
    """A segmented store reads exactly like the equivalent single file."""

    def test_matrix_counts_indices(self, seg_dir, ref_store):
        with open_store(seg_dir) as seg, open_store(ref_store) as ref:
            assert seg.n_segments == 4
            assert np.array_equal(seg.counts, ref.counts)
            assert np.array_equal(seg.matrix(), ref.matrix())
            assert np.array_equal(
                seg.matrix(meters=[3, 9], window_range=(10, 55)),
                ref.matrix(meters=[3, 9], window_range=(10, 55)),
            )
            assert np.array_equal(seg.indices(5, 13, 77), ref.indices(5, 13, 77))

    def test_runs_merge_across_boundaries(self, seg_dir, ref_store):
        with open_store(seg_dir) as seg, open_store(ref_store) as ref:
            for meter in (0, 7, 13):
                sv, sl = seg.runs(meter)
                rv, rl = ref.runs(meter)
                assert np.array_equal(sv, rv)
                assert np.array_equal(sl, rl)
            assert np.array_equal(
                build_query_index(seg).run_counts, build_query_index(ref).run_counts
            )

    def test_decode_and_tables(self, seg_dir, ref_store):
        with open_store(seg_dir) as seg, open_store(ref_store) as ref:
            assert seg.shared_table == ref.shared_table
            assert np.allclose(seg.decode(), ref.decode())
            assert np.allclose(
                seg.decode(day_range=(1, 3)), ref.decode(day_range=(1, 3))
            )

    def test_verify_clean(self, seg_dir):
        with open_store(seg_dir, verify="eager") as seg:
            report = seg.verify(strict=True)
            assert report["ok"] and seg.checksummed

    def test_rle_layout_parity(self, tmp_path, fleet_values):
        seg = write_segmented_fleet(
            tmp_path / "rle.rsyms", fleet_values, alphabet_size=4, window=8,
            layout=RLE, segment_windows=17,
        )
        ref = write_fleet_store(
            tmp_path / "rle.rsym", fleet_values, alphabet_size=4, window=8,
            layout=RLE,
        )
        assert seg.layout == RLE
        assert np.array_equal(seg.matrix(), ref.matrix())
        assert np.array_equal(
            build_query_index(seg).run_counts, build_query_index(ref).run_counts
        )
        sv, sl = seg.runs(9)
        rv, rl = ref.runs(9)
        assert np.array_equal(sv, rv) and np.array_equal(sl, rl)
        seg.close(), ref.close()


class TestDeterminism:
    def _digest(self, directory: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(directory.glob("seg-*.rsym")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("layout", ["dense", "rle"])
    def test_segments_byte_identical_for_any_worker_count(
        self, tmp_path, fleet_values, layout
    ):
        digests = set()
        for workers in (1, 2, 4):
            directory = tmp_path / f"w{workers}.rsyms"
            write_segmented_fleet(
                directory, fleet_values, alphabet_size=8, window=4,
                layout=layout, segment_windows=24, workers=workers,
            ).close()
            digests.add(self._digest(directory))
        assert len(digests) == 1


class TestAppend:
    def test_append_bumps_generation_and_extends_columns(self, tmp_path):
        directory = tmp_path / "grow.rsyms"
        create_segmented_store(directory, alphabet_size=4, ids=[0, 1, 2]).close()
        rng = np.random.default_rng(4)
        first = rng.integers(0, 4, size=(3, 48))
        second = rng.integers(0, 4, size=(3, 24))
        append_segment(directory, first)
        append_segment(directory, second)
        with open_store(directory) as store:
            assert store.generation == 3
            assert store.n_segments == 2
            assert np.array_equal(
                store.matrix(), np.hstack([first, second])
            )
            assert [r.name for r in store.records] == [
                "seg-000000.rsym", "seg-000001.rsym",
            ]
            assert [r.start_window for r in store.records] == [0, 48]

    def test_append_rejects_wrong_shape(self, tmp_path):
        directory = tmp_path / "bad.rsyms"
        create_segmented_store(directory, alphabet_size=4, ids=[0, 1]).close()
        with pytest.raises(StoreError):
            append_segment(directory, np.zeros((3, 8), dtype=np.int64))

    def test_create_refuses_existing_store(self, seg_dir):
        with pytest.raises(StoreError):
            create_segmented_store(seg_dir, alphabet_size=8)

    def test_open_store_dispatches_on_path_kind(self, seg_dir, ref_store):
        with open_store(seg_dir) as seg:
            assert isinstance(seg, SegmentedStore)
        with open_store(ref_store) as ref:
            assert isinstance(ref, SymbolStore)


class TestQuarantineAndRecovery:
    @pytest.fixture()
    def damaged(self, tmp_path, fleet_values):
        directory = tmp_path / "damaged.rsyms"
        write_segmented_fleet(
            directory, fleet_values, alphabet_size=8, window=4,
            sampling_interval=900, segment_windows=24,
        ).close()
        victim = sorted(directory.glob("seg-*.rsym"))[1]
        faults.flip_bit(victim, 60)
        return directory, victim

    def test_bad_segment_quarantined_not_fatal(self, damaged):
        directory, victim = damaged
        with pytest.warns(StoreIntegrityWarning):
            store = SegmentedStore.open(directory, verify="eager")
        assert [name for name, _ in store.quarantined] == [victim.name]
        assert store.n_segments == 3
        # Healthy segments still serve exact data.
        assert store.matrix().shape[1] == 3 * 24
        store.close()

    def test_strict_open_raises(self, damaged):
        directory, _ = damaged
        with pytest.raises(CorruptStoreError):
            SegmentedStore.open(directory, verify="eager", strict=True)

    def test_scrub_reports_then_repairs(self, damaged):
        directory, victim = damaged
        report = scrub_store(directory)
        assert not report.ok
        assert [name for name, _ in report.corrupt_segments] == [victim.name]
        repaired = scrub_store(directory, repair=True)
        assert repaired.quarantined == [victim.name]
        assert repaired.new_generation == report.generation + 1
        assert (directory / "quarantine" / victim.name).exists()
        # Post-repair opens are warning-free and clean.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = SegmentedStore.open(directory, verify="eager")
        assert store.quarantined == []
        store.close()
        assert scrub_store(directory).ok

    def test_manifest_rollback_to_previous_generation(self, tmp_path, fleet_values):
        directory = tmp_path / "rollback.rsyms"
        write_segmented_fleet(
            directory, fleet_values[:4], alphabet_size=8, window=4,
            segment_windows=48,
        ).close()
        before = open_store(directory)
        newest = sorted(directory.glob("manifest-*.json"))[-1]
        faults.flip_bit(newest, 25)
        with pytest.warns(StoreIntegrityWarning):
            rolled = SegmentedStore.open(directory)
        assert rolled.generation == before.generation - 1
        before.close(), rolled.close()
        repaired = scrub_store(directory, repair=True)
        assert newest.name in repaired.invalid_manifests
        assert not newest.exists()

    def test_all_manifests_damaged_raises(self, tmp_path):
        directory = tmp_path / "dead.rsyms"
        create_segmented_store(directory, alphabet_size=4, ids=[0]).close()
        for manifest in directory.glob("manifest-*.json"):
            faults.corrupt_tail(manifest, 12)
        with pytest.raises(CorruptStoreError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            SegmentedStore.open(directory)

    def test_orphan_gc_after_crash_before_manifest(self, tmp_path):
        directory = tmp_path / "orphan.rsyms"
        create_segmented_store(directory, alphabet_size=4, ids=[0, 1]).close()
        append_segment(directory, np.ones((2, 16), dtype=np.int64))
        before = open_store(directory)
        with pytest.raises(faults.InjectedCrash):
            with faults.inject(faults.FaultPlan("segments.before_manifest")):
                append_segment(directory, np.zeros((2, 16), dtype=np.int64))
        # Old snapshot fully intact, new segment an orphan.
        after = open_store(directory)
        assert after.generation == before.generation
        assert np.array_equal(after.matrix(), before.matrix())
        before.close(), after.close()
        report = scrub_store(directory)
        assert report.orphan_segments == ["seg-000001.rsym"]
        scrub_store(directory, repair=True)
        assert scrub_store(directory).ok
        # The next append atomically reuses the sequence slot.
        append_segment(directory, np.zeros((2, 16), dtype=np.int64))
        with open_store(directory) as grown:
            assert grown.n_segments == 2

    def test_keep_generations_prunes_manifests(self, tmp_path):
        directory = tmp_path / "prune.rsyms"
        create_segmented_store(directory, alphabet_size=4, ids=[0]).close()
        for _ in range(4):
            append_segment(directory, np.zeros((1, 8), dtype=np.int64))
        assert len(list(directory.glob("manifest-*.json"))) == 5
        scrub_store(directory, repair=True, keep_generations=2)
        assert len(list(directory.glob("manifest-*.json"))) == 2
        with open_store(directory) as store:
            assert store.n_segments == 4

    def test_scrub_single_file_and_stale_temp(self, tmp_path, fleet_values):
        path = tmp_path / "single.rsym"
        write_fleet_store(path, fleet_values[:3], alphabet_size=8, window=4).close()
        stale = path.with_name(path.name + ".tmp")
        stale.write_bytes(b"leftover")
        report = scrub_store(path)
        assert report.stale_temps == [stale.name]
        scrub_store(path, repair=True)
        assert not stale.exists()
        assert scrub_store(path).ok


class TestQueryEngineOnSegments:
    def test_knn_match_aggregate_parity(self, seg_dir, ref_store):
        with QueryEngine.open(seg_dir) as seg, QueryEngine.open(ref_store) as ref:
            query = ref.store.decode(meters=[3])[0]
            for workers in (1, 3):
                config = QueryConfig(k=5, workers=workers)
                a, b = seg.knn(query, config), ref.knn(query, config)
                assert a.ids == b.ids
                assert np.allclose(a.distances, b.distances)
            a = seg.match("0 1{2,} 2", workers=3)
            b = ref.match("0 1{2,} 2", workers=1)
            assert a.spans == b.spans
            assert seg.aggregate(level=1).rows() == ref.aggregate(level=1).rows()

    def test_sidecar_lives_inside_directory(self, seg_dir):
        with open_store(seg_dir) as store:
            path = write_query_index(store, workers=2)
        assert path == seg_dir / "index.rsymx"
        with QueryEngine.open(seg_dir) as engine:
            assert engine._index is not None

    def test_stale_sidecar_degrades_with_warning(self, tmp_path, fleet_values):
        directory = tmp_path / "stale.rsyms"
        store = write_segmented_fleet(
            directory, fleet_values, alphabet_size=8, window=4,
            segment_windows=96,
        )
        write_query_index(store)
        append_segment(
            directory, store.matrix(window_range=(0, 24)),
            tables=store.shared_table,
        )
        store.close()
        with pytest.warns(StoreIntegrityWarning, match="stale"):
            engine = QueryEngine.open(directory)
        assert engine._index is None
        query = engine.store.decode(meters=[0])[0]
        assert len(engine.knn(query, QueryConfig(k=3)).ids[0]) == 3
        engine.close()
        # Satellite: the degrade warning is deduplicated — a monitoring loop
        # reopening the same store does not warn again for the same sidecar.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reopened = QueryEngine.open(directory)
        assert reopened._index is None
        assert not [
            w for w in caught if issubclass(w.category, StoreIntegrityWarning)
        ]
        reopened.close()


class TestFleetIngestor:
    WINDOW, BOOT = 900.0, 7200.0

    @pytest.fixture(scope="class")
    def stream(self):
        rng = np.random.default_rng(13)
        n = 4 * 96
        ts = np.arange(n) * 900.0
        vals = np.abs(rng.normal(2.0, 0.5, size=(5, n)))
        vals[:, n // 2:] += 6.0  # level shift triggers drift rebuilds
        return ts, vals

    def _reference_indices(self, ts, row, drift=0.0):
        encoder = OnlineEncoder(
            alphabet_size=8, window_seconds=self.WINDOW,
            bootstrap_seconds=self.BOOT, drift_threshold=drift,
        )
        if drift:
            for t, v in zip(ts, row):
                encoder.push(float(t), float(v))
        else:
            encoder.push_chunk(ts, row)
        encoder.flush()
        return np.asarray([w.symbol.index for w in encoder.emitted]), encoder

    def test_chunked_ingest_matches_online_encoder(self, tmp_path, stream):
        ts, vals = stream
        ingestor = FleetIngestor(
            tmp_path / "ingest.rsyms", meter_ids=list(range(5)),
            alphabet_size=8, window_seconds=self.WINDOW,
            bootstrap_seconds=self.BOOT, segment_windows=48,
        )
        for lo in range(0, ts.size, 100):
            ingestor.push_chunk(ts[lo:lo + 100], vals[:, lo:lo + 100])
        store = ingestor.finalize()
        assert store.n_segments >= 2
        for meter in range(5):
            want, _ = self._reference_indices(ts, vals[meter])
            assert np.array_equal(store.indices(meter), want)
        assert store.verify(strict=True)["ok"]
        store.close()

    def test_drift_rebuild_cuts_segment_with_new_table(self, tmp_path, stream):
        ts, vals = stream
        ingestor = FleetIngestor(
            tmp_path / "drift.rsyms", meter_ids=list(range(5)),
            alphabet_size=8, window_seconds=self.WINDOW,
            bootstrap_seconds=self.BOOT, drift_threshold=0.5,
        )
        ingestor.push_chunk(ts, vals)
        store = ingestor.finalize()
        assert "drift" in [record.reason for record in store.records]
        for meter in range(5):
            want, encoder = self._reference_indices(ts, vals[meter], drift=0.5)
            assert np.array_equal(store.indices(meter), want)
            assert len(encoder.table_updates) >= 2
        # Per-epoch tables survive per segment: decode uses each epoch's own.
        epochs = {
            segment.tables if isinstance(segment.tables, tuple)
            else id(segment.shared_table) for segment in store.segments
        }
        assert len(store.segments) >= 2
        decoded = store.decode()
        assert decoded.shape == (5, int(store.counts[0]))
        store.close()


class TestCLI:
    def test_store_info_verify_and_scrub(self, tmp_path, fleet_values, capsys):
        directory = tmp_path / "cli.rsyms"
        write_segmented_fleet(
            directory, fleet_values, alphabet_size=8, window=4,
            sampling_interval=900, segment_windows=48,
        ).close()
        assert main(["store-info", str(directory), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "segments:" in out and "checksums: ok" in out
        assert main(["store", "scrub", str(directory)]) == 0
        assert "status: clean" in capsys.readouterr().out

        victim = sorted(directory.glob("seg-*.rsym"))[0]
        faults.flip_bit(victim, 55)
        with pytest.warns(StoreIntegrityWarning):
            assert main(["store-info", str(directory), "--verify"]) == 1
        assert "quarantined" in capsys.readouterr().out
        assert main(["store", "scrub", str(directory)]) == 1
        assert "corrupt" in capsys.readouterr().out
        assert main(["store", "scrub", str(directory), "--repair"]) == 0
        assert "committed generation" in capsys.readouterr().out
        assert main(["store", "scrub", str(directory)]) == 0

    def test_single_file_verify(self, ref_store, capsys):
        assert main(["store-info", str(ref_store), "--verify"]) == 0
        assert "checksums: ok" in capsys.readouterr().out

    def test_compression_reads_segmented_store(self, seg_dir, capsys):
        assert main([
            "compression", "--alphabet", "8", "--window", "3600",
            "--sampling", "900", "--store", str(seg_dir),
        ]) == 0
        assert "measured_bits_per_day" in capsys.readouterr().out
