"""Fault matrix: every injected failure recovers losslessly or quarantines.

The invariant under test, for each (fault × layout) cell: after the fault
fires, reopening the store never crashes and never returns silently wrong
data — either the previous snapshot is intact byte-for-byte (write-side
faults, caught by the atomic commit protocol) or the damaged segment is
detected, quarantined with a structured warning, and the healthy remainder
still serves exact answers (read-side corruption, caught by checksums).
"""

from __future__ import annotations

import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CorruptStoreError, StoreIntegrityWarning
from repro.store import (
    DENSE,
    RLE,
    SegmentedStore,
    SymbolStore,
    append_segment,
    create_segmented_store,
    faults,
    open_store,
    scrub_store,
)
from repro.store.checksum import _LANE_THRESHOLD
from repro.store.format import MAGIC_HEAD, MAGIC_TAIL, _Segment

LAYOUTS = [DENSE, RLE]


def _indices(seed: int, rows: int = 4, windows: int = 64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = rng.integers(0, 8, size=(rows, windows))
    out[:, 20:40] = 3  # plateau so RLE payloads are non-trivial
    return out


@pytest.fixture()
def store_dir(tmp_path, layout):
    directory = tmp_path / "faulty.rsyms"
    create_segmented_store(directory, alphabet_size=8, layout=layout,
                           ids=[0, 1, 2, 3]).close()
    append_segment(directory, _indices(1))
    return directory


def _snapshot(directory: Path):
    with open_store(directory) as store:
        return store.generation, store.matrix().copy()


def _segment_files(directory: Path):
    return sorted(p.name for p in directory.glob("seg-*.rsym"))


@pytest.mark.parametrize("layout", LAYOUTS)
class TestWriteSideFaults:
    """Faults while appending: the previous snapshot must survive intact."""

    CRASH_STEPS = [
        "store.before_fsync",
        "store.before_rename",
        "segments.before_manifest",
        "manifest.before_fsync",
        "manifest.before_rename",
    ]

    @pytest.mark.parametrize("step", CRASH_STEPS)
    def test_crash_leaves_previous_snapshot(self, store_dir, layout, step):
        generation, matrix = _snapshot(store_dir)
        with pytest.raises(faults.InjectedCrash):
            with faults.inject(faults.FaultPlan(step)):
                append_segment(store_dir, _indices(2))
        after_gen, after_matrix = _snapshot(store_dir)
        assert after_gen == generation
        assert np.array_equal(after_matrix, matrix)
        # Recovery: scrub mops up debris, then the retry fully lands.
        scrub_store(store_dir, repair=True)
        assert scrub_store(store_dir).ok
        append_segment(store_dir, _indices(2))
        with open_store(store_dir) as store:
            assert np.array_equal(
                store.matrix(), np.hstack([matrix, _indices(2)])
            )

    def test_crash_after_manifest_rename_is_already_committed(
        self, store_dir, layout
    ):
        generation, matrix = _snapshot(store_dir)
        with pytest.raises(faults.InjectedCrash):
            with faults.inject(faults.FaultPlan("manifest.after_rename")):
                append_segment(store_dir, _indices(2))
        # The rename is the commit point: the append is durable.
        with open_store(store_dir) as store:
            assert store.generation == generation + 1
            assert np.array_equal(
                store.matrix(), np.hstack([matrix, _indices(2)])
            )
        assert scrub_store(store_dir).ok

    @pytest.mark.parametrize("step,stale_kind", [
        ("store.write", "segment temp"),
        ("manifest.write", "manifest temp"),
    ])
    def test_torn_write_leaves_only_temp_debris(
        self, store_dir, layout, step, stale_kind
    ):
        generation, matrix = _snapshot(store_dir)
        with pytest.raises(faults.InjectedCrash):
            with faults.inject(
                faults.FaultPlan(step, action="torn_write", after_bytes=7)
            ):
                append_segment(store_dir, _indices(2))
        temps = list(store_dir.glob("*.tmp"))
        assert temps, f"torn {stale_kind} should leave a .tmp behind"
        after_gen, after_matrix = _snapshot(store_dir)
        assert after_gen == generation
        assert np.array_equal(after_matrix, matrix)
        report = scrub_store(store_dir, repair=True)
        assert report.stale_temps
        assert not list(store_dir.glob("*.tmp"))
        assert scrub_store(store_dir).ok

    def test_disk_full_is_recoverable_and_clean(self, store_dir, layout):
        generation, matrix = _snapshot(store_dir)
        with pytest.raises(OSError) as excinfo:
            with faults.inject(
                faults.FaultPlan("store.write", action="disk_full",
                                 after_bytes=3)
            ):
                append_segment(store_dir, _indices(2))
        assert not isinstance(excinfo.value, faults.InjectedCrash)
        # ENOSPC is an Exception: the writer's own cleanup must have run.
        assert not list(store_dir.glob("*.tmp"))
        after_gen, after_matrix = _snapshot(store_dir)
        assert after_gen == generation
        assert np.array_equal(after_matrix, matrix)
        assert scrub_store(store_dir).ok


@pytest.mark.parametrize("layout", LAYOUTS)
class TestReadSideCorruption:
    """Committed bytes damaged afterwards: detect, quarantine, degrade."""

    def _damage_cases(self, seg_path: Path):
        size = seg_path.stat().st_size
        return {
            "bit_flip_payload": lambda: faults.flip_bit(
                seg_path, len(MAGIC_HEAD) + 5),
            "bit_flip_header": lambda: faults.flip_bit(seg_path, size - 40),
            "truncation": lambda: faults.truncate_file(seg_path, size // 2),
            "torn_tail": lambda: faults.corrupt_tail(seg_path, 24),
        }

    @pytest.mark.parametrize("damage", [
        "bit_flip_payload", "bit_flip_header", "truncation", "torn_tail",
    ])
    def test_damaged_segment_quarantines_healthy_rest_serves(
        self, store_dir, layout, damage
    ):
        append_segment(store_dir, _indices(2))
        with open_store(store_dir) as store:
            healthy = store.matrix(window_range=(0, 64)).copy()
        victim = store_dir / _segment_files(store_dir)[1]
        self._damage_cases(victim)[damage]()

        with pytest.warns(StoreIntegrityWarning) as caught:
            store = SegmentedStore.open(store_dir, verify="eager")
        assert any(w.message.kind == "segment" for w in caught)
        assert [name for name, _ in store.quarantined] == [victim.name]
        # Healthy segment serves the exact original bytes — never wrong data.
        assert np.array_equal(store.matrix(), healthy)
        store.close()

        with pytest.raises(CorruptStoreError):
            SegmentedStore.open(store_dir, verify="eager", strict=True)

        report = scrub_store(store_dir)
        assert not report.ok
        assert [name for name, _ in report.corrupt_segments] == [victim.name]
        repaired = scrub_store(store_dir, repair=True)
        assert repaired.quarantined == [victim.name]
        assert (store_dir / "quarantine" / victim.name).exists()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = SegmentedStore.open(store_dir, verify="eager")
        assert np.array_equal(clean.matrix(), healthy)
        clean.close()
        assert scrub_store(store_dir).ok

    def test_lazy_read_detects_payload_rot(self, store_dir, layout):
        victim = store_dir / _segment_files(store_dir)[0]
        faults.flip_bit(victim, len(MAGIC_HEAD) + 3)
        store = SegmentedStore.open(store_dir)  # lazy: open succeeds
        with pytest.raises(CorruptStoreError) as excinfo:
            store.matrix()
        assert excinfo.value.check == "column_crc"
        store.close()

    def test_structured_diagnostics_name_the_failure(self, store_dir, layout):
        victim = store_dir / _segment_files(store_dir)[0]
        size = victim.stat().st_size
        faults.truncate_file(victim, size - 4)
        with pytest.raises(CorruptStoreError) as excinfo:
            SymbolStore.open(victim)
        err = excinfo.value
        assert err.check and err.path == victim
        assert "truncat" in (err.hint or "").lower()
        assert err.expected is not None and err.actual is not None
        assert "RSYMEND1" in str(err)  # says what it wanted and what it saw


@pytest.mark.parametrize("layout", LAYOUTS)
class TestManifestFaults:
    def test_manifest_bit_rot_rolls_back_one_generation(
        self, store_dir, layout
    ):
        generation, matrix = _snapshot(store_dir)
        append_segment(store_dir, _indices(2))
        newest = sorted(store_dir.glob("manifest-*.json"))[-1]
        faults.flip_bit(newest, 30)
        with pytest.warns(StoreIntegrityWarning) as caught:
            store = SegmentedStore.open(store_dir)
        assert any(w.message.kind == "manifest" for w in caught)
        assert store.generation == generation
        assert np.array_equal(store.matrix(), matrix)
        store.close()

    def test_manifest_truncation_detected_as_truncated(
        self, store_dir, layout
    ):
        newest = sorted(store_dir.glob("manifest-*.json"))[-1]
        faults.truncate_file(newest, 10)
        with pytest.warns(StoreIntegrityWarning):
            store = SegmentedStore.open(store_dir)
        # Rolled back to the empty generation-1 snapshot, not a crash.
        assert store.n_segments == 0
        store.close()
        repaired = scrub_store(store_dir, repair=True)
        assert newest.name in repaired.invalid_manifests


def _flip_digit(path: Path, after: bytes) -> None:
    """Flip bit 0 of the last digit of the first number after ``after``.

    A digit stays a digit and a number's last digit is never a leading
    zero, so the JSON still parses: only a checksum can catch the change.
    """
    raw = path.read_bytes()
    number = re.compile(rb"\d+").search(raw, raw.rindex(after) + len(after))
    faults.flip_bit(path, number.end() - 1)


class TestNamedChecks:
    """Parseable damage, caught by the checksum named in ``check``.

    The store is wide enough that each damaged region (segment header,
    manifest body, run-length array) takes the CRC's lane path.
    """

    METERS = 300

    def _store(self, tmp_path, layout) -> Path:
        directory = tmp_path / "wide.rsyms"
        create_segmented_store(directory, alphabet_size=8, layout=layout,
                               ids=list(range(self.METERS))).close()
        append_segment(directory, _indices(1, rows=self.METERS, windows=256))
        append_segment(directory, _indices(2, rows=self.METERS, windows=256))
        return directory

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_header_digit_flip_is_header_crc(self, tmp_path, layout):
        directory = self._store(tmp_path, layout)
        victim = directory / _segment_files(directory)[1]
        footer = victim.read_bytes()[-len(MAGIC_TAIL) - 8: -len(MAGIC_TAIL)]
        assert struct.unpack("<Q", footer)[0] >= _LANE_THRESHOLD
        _flip_digit(victim, b'"counts":[')
        with pytest.raises(CorruptStoreError) as excinfo:
            SymbolStore.open(victim)
        assert excinfo.value.check == "header_crc"
        with pytest.warns(StoreIntegrityWarning) as caught:
            store = SegmentedStore.open(directory)
        assert [w.message.reason for w in caught] == ["header_crc"]
        assert [name for name, _ in store.quarantined] == [victim.name]
        store.close()

    def test_run_length_flip_is_lengths_crc(self, tmp_path):
        directory = self._store(tmp_path, RLE)
        victim = directory / _segment_files(directory)[0]
        segment = _Segment.open(victim)
        assert segment._lengths_bytes.size >= _LANE_THRESHOLD
        offset = len(MAGIC_HEAD) + int(segment._header["lengths_offset"])
        segment.close()
        faults.flip_bit(victim, offset)
        store = SegmentedStore.open(directory)  # lazy: the header is intact
        with pytest.raises(CorruptStoreError) as excinfo:
            store.matrix()
        assert excinfo.value.check == "lengths_crc"
        store.close()
        with pytest.warns(StoreIntegrityWarning) as caught:
            store = SegmentedStore.open(directory, verify="eager")
        assert [w.message.reason for w in caught] == ["lengths_crc"]
        assert [name for name, _ in store.quarantined] == [victim.name]
        store.close()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_eager_open_quarantines_only_the_damaged_segment(
        self, tmp_path, layout
    ):
        # Segments of two widths: only the damaged one leaves the view.
        directory = self._store(tmp_path, layout)
        append_segment(directory, _indices(3, rows=self.METERS, windows=64))
        with open_store(directory) as store:
            healthy = store.matrix(window_range=(256, 576)).copy()
        victim = directory / _segment_files(directory)[0]
        faults.flip_bit(victim, len(MAGIC_HEAD) + 7)
        with pytest.warns(StoreIntegrityWarning) as caught:
            store = SegmentedStore.open(directory, verify="eager")
        assert [w.message.reason for w in caught] == ["column_crc"]
        assert [name for name, _ in store.quarantined] == [victim.name]
        assert np.array_equal(store.matrix(), healthy)
        store.close()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_manifest_digit_flip_is_manifest_crc(self, tmp_path, layout):
        directory = self._store(tmp_path, layout)
        newest = sorted(directory.glob("manifest-*.json"))[-1]
        assert newest.stat().st_size >= _LANE_THRESHOLD
        _flip_digit(newest, b'"windows":')
        with pytest.warns(StoreIntegrityWarning) as caught:
            store = SegmentedStore.open(directory)
        assert [(w.message.kind, w.message.reason) for w in caught] == [
            ("manifest", "manifest_crc")
        ]
        assert store.n_segments == 1
        store.close()


class TestInjectorMechanics:
    def test_skip_arms_later(self, tmp_path):
        directory = tmp_path / "skip.rsyms"
        create_segmented_store(directory, alphabet_size=8, ids=[0, 1]).close()
        with pytest.raises(faults.InjectedCrash):
            with faults.inject(
                faults.FaultPlan("store.write", skip=3)
            ) as injector:
                append_segment(directory, _indices(3, rows=2))
        assert injector.fired and injector.fired[0].skip == 0

    def test_inject_is_not_reentrant(self):
        with faults.inject(faults.FaultPlan("store.write")):
            with pytest.raises(RuntimeError):
                with faults.inject(faults.FaultPlan("store.write")):
                    pass

    def test_unfired_plan_reported(self, tmp_path):
        directory = tmp_path / "unfired.rsyms"
        create_segmented_store(directory, alphabet_size=8, ids=[0]).close()
        with faults.inject(
            faults.FaultPlan("no.such.step")
        ) as injector:
            append_segment(directory, _indices(4, rows=1))
        assert injector.fired == []
        assert scrub_store(directory).ok
