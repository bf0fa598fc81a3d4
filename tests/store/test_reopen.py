"""``SymbolStore.reopen``: a new snapshot shares the segments that did not change.

A reopen opens only the segments whose manifest record changed; every
unchanged one is the same segment object, memory map included, held until
the last snapshot holding it closes.  Verification behaves as after a cold
open: a shared segment re-arms its checksums, and an eager reopen checks
every segment.
"""

from __future__ import annotations

import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.errors import CorruptStoreError, StoreIntegrityWarning
from repro.obs import registry
from repro.store import (
    SymbolStore,
    append_segment,
    faults,
    scrub_store,
    write_fleet_store,
    write_segmented_fleet,
)

N_METERS, WINDOWS, SPAN = 6, 96, 24


@pytest.fixture()
def store_dir(tmp_path):
    values = np.random.default_rng(5).normal(size=(N_METERS, WINDOWS)).cumsum(axis=1)
    write_segmented_fleet(
        tmp_path / "fleet.rsyms", values, alphabet_size=8,
        segment_windows=SPAN, sampling_interval=900.0,
    ).close()
    return tmp_path / "fleet.rsyms"


def _append(directory, seed=0, windows=4):
    rng = np.random.default_rng(seed)
    with SymbolStore.open(directory) as store:
        table = store.shared_table
    return append_segment(
        directory, rng.integers(0, 8, size=(N_METERS, windows)), tables=table,
    )


def _payload_offset(store: SymbolStore, segment_index: int, column: int) -> int:
    segment = store.segments[segment_index]
    return len(b"RSYMSTR1") + int(segment.offsets[column])


def test_reopen_opens_only_the_appended_segment(store_dir):
    old = SymbolStore.open(store_dir)
    _append(store_dir)
    new = old.reopen()
    try:
        assert (new.segments_shared, new.segments_opened) == (4, 1)
        assert all(a is b for a, b in zip(new.segments, old.segments))
        assert new.appended == new.segments[4:]
        assert new.generation == old.generation + 1
        with SymbolStore.open(store_dir) as cold:
            assert (cold.segments_shared, cold.segments_opened) == (0, 5)
            assert cold.appended is None
            assert np.array_equal(new.matrix(), cold.matrix())
            assert np.array_equal(new.decode(), cold.decode())
    finally:
        old.close()
        new.close()


def test_counters_count_what_the_store_reports(store_dir):
    old = SymbolStore.open(store_dir)
    _append(store_dir)
    reg = registry()
    shared = reg.counter_value("store.segments_shared_total")
    opened = reg.counter_value("store.segments_opened_total")
    with old.reopen() as new:
        assert reg.counter_value("store.segments_shared_total") - shared == 4
        assert reg.counter_value("store.segments_opened_total") - opened == 1
    old.close()


def test_closing_the_retired_snapshot_keeps_the_new_one_readable(store_dir):
    old = SymbolStore.open(store_dir)
    expected_old = old.matrix()
    _append(store_dir, seed=1)
    new = old.reopen()
    old.close()
    old.close()  # a second close releases nothing more
    assert np.array_equal(new.matrix()[:, :WINDOWS], expected_old)
    segments = new.segments
    new.close()
    for segment in segments:
        assert segment.payload_nbytes == 0  # every map released
        assert not segment.acquire()


def test_closing_in_the_other_order_releases_every_map(store_dir):
    old = SymbolStore.open(store_dir)
    _append(store_dir, seed=2)
    new = old.reopen()
    new.close()
    assert old.matrix().shape == (N_METERS, WINDOWS)
    old.close()
    assert all(seg.payload_nbytes == 0 for seg in new.segments)


def test_damage_after_verify_is_caught_on_first_read_after_reopen(store_dir):
    old = SymbolStore.open(store_dir)
    old.matrix()  # every column of every segment verified under G
    offset = _payload_offset(old, 1, 2)
    _append(store_dir, seed=3)
    faults.flip_bit(store_dir / old.records[1].name, offset, bit=1)
    new = old.reopen()
    try:
        assert new.segments[1] is old.segments[1]
        with pytest.raises(CorruptStoreError) as shared_error:
            new.matrix()
        with SymbolStore.open(store_dir) as cold:
            with pytest.raises(CorruptStoreError) as cold_error:
                cold.matrix()
        assert shared_error.value.check == cold_error.value.check == "column_crc"
    finally:
        old.close()
        new.close()


def test_eager_reopen_checks_every_segment(store_dir):
    old = SymbolStore.open(store_dir, verify="eager")
    offset = _payload_offset(old, 0, 0)
    faults.flip_bit(store_dir / old.records[0].name, offset)
    _append(store_dir, seed=4)
    with pytest.warns(StoreIntegrityWarning, match="quarantining segment seg-000000"):
        new = old.reopen()
    try:
        assert [name for name, _ in new.quarantined] == [old.records[0].name]
        assert new.appended is None
        assert new.n_segments == 4 and new.segments_shared == 3
    finally:
        old.close()
        new.close()
    # The quarantined segment's map is released with the old snapshot.
    assert old.segments[0].payload_nbytes == 0


def test_a_reused_segment_name_is_not_shared(store_dir):
    """Scrub quarantines the newest segment, so the next append reuses its
    name: only an unchanged whole record may share the old map."""
    old = SymbolStore.open(store_dir)
    last = old.records[-1]
    faults.flip_bit(store_dir / last.name, _payload_offset(old, 3, 0))
    assert scrub_store(store_dir, repair=True).quarantined == [last.name]
    record = _append(store_dir, seed=6)
    assert record.name == last.name
    new = old.reopen()
    try:
        assert new.records[-1] == record
        assert new.segments[-1] is not old.segments[-1]
        assert (new.segments_shared, new.segments_opened) == (3, 1)
        with SymbolStore.open(store_dir) as cold:
            assert np.array_equal(new.matrix(), cold.matrix())
    finally:
        old.close()
        new.close()


def test_a_truncated_shared_segment_quarantines_as_after_a_cold_open(store_dir):
    old = SymbolStore.open(store_dir)
    _append(store_dir, seed=7)
    faults.truncate_file(store_dir / old.records[2].name, 64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new = old.reopen()
    try:
        assert [name for name, _ in new.quarantined] == [old.records[2].name]
        assert any(issubclass(w.category, StoreIntegrityWarning) for w in caught)
        assert new.matrix().shape == (N_METERS, WINDOWS - SPAN + 4)
    finally:
        new.close()
        old.close()


def test_a_bare_file_reopens_cold(tmp_path):
    values = np.random.default_rng(8).normal(size=(N_METERS, WINDOWS))
    path = tmp_path / "fleet.rsym"
    write_fleet_store(path, values, alphabet_size=8).close()
    old = SymbolStore.open(path)
    with old.reopen() as new:
        assert new.segments[0] is not old.segments[0]
        assert (new.segments_shared, new.segments_opened) == (0, 1)
        assert new.appended is None
        assert np.array_equal(new.matrix(), old.matrix())
    old.close()


def test_a_store_read_into_memory_reopens_cold(store_dir):
    old = SymbolStore.open(store_dir, mmap=False)
    _append(store_dir, seed=9)
    with old.reopen() as new:
        assert (new.segments_shared, new.segments_opened) == (0, 5)
        assert new.appended is None
    old.close()


def test_concurrent_reopens_and_closes_keep_holder_counts(store_dir):
    """Eight threads reopen, read and close snapshots of one store while
    appends land: a lost holder update would release a map still in use
    (a failed read) or keep one forever (a map left after every close)."""
    base = SymbolStore.open(store_dir)
    expected = base.matrix()
    failures, seen = [], []
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                with base.reopen() as snapshot:
                    seen.extend(snapshot.segments)
                    if not np.array_equal(snapshot.matrix()[:, :WINDOWS], expected):
                        failures.append("a snapshot read different symbols")
        except Exception as exc:  # noqa: BLE001 — reported below
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for seed in range(10, 16):
            _append(store_dir, seed=seed)
            time.sleep(0.02)
        stop.set()
        for thread in threads:
            thread.join(30.0)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert seen
    base.close()
    for segment in seen + base.segments:
        assert segment.payload_nbytes == 0 and not segment.acquire()
