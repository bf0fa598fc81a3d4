"""One writer per store directory: appends and repairing scrubs serialize.

``append_segment`` and ``scrub_store(repair=True)`` each hold the
directory's writer lock from reading the manifest until committing the
next one.  Without it, a repair that runs while an append sits between its
segment and its manifest deletes the new segment as an orphan, and the
append then commits a manifest naming a missing file; and two writers of
one generation share its temp file, so one rename finds it gone.  Each
in-process test holds the first writer at a fault checkpoint with a
``"delay"`` plan and runs the second meanwhile; the last one holds the lock
in another process.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import StoreIntegrityWarning
from repro.store import (
    SymbolStore,
    append_segment,
    faults,
    scrub_store,
    write_segmented_fleet,
)
from repro.store.faults import FaultPlan

N_METERS, WINDOWS, SPAN = 6, 96, 24
HOLD_S = 0.5


@pytest.fixture()
def store_dir(tmp_path):
    values = np.random.default_rng(12).normal(size=(N_METERS, WINDOWS)).cumsum(axis=1)
    write_segmented_fleet(
        tmp_path / "fleet.rsyms", values, alphabet_size=8, segment_windows=SPAN,
    ).close()
    return tmp_path / "fleet.rsyms"


def _hour(seed):
    return np.random.default_rng(seed).integers(0, 8, size=(N_METERS, 4))


def _in_thread(call, results, errors):
    def run():
        try:
            results.append(call())
        except BaseException as exc:  # noqa: BLE001 — reported by the test
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _wait_until_held(injector):
    deadline = time.monotonic() + 10.0
    while not injector.fired:
        assert time.monotonic() < deadline, "the first writer never reached its hold"
        time.sleep(0.005)


def _open_clean(directory) -> SymbolStore:
    with warnings.catch_warnings():
        warnings.simplefilter("error", StoreIntegrityWarning)
        return SymbolStore.open(directory)


def test_a_repair_during_an_append_keeps_the_appended_segment(store_dir):
    results, errors = [], []
    with faults.inject(FaultPlan(
        "segments.before_manifest", action="delay", delay_s=HOLD_S,
    )) as injector:
        appender = _in_thread(
            lambda: append_segment(store_dir, _hour(1)), results, errors
        )
        _wait_until_held(injector)
        report = scrub_store(store_dir, repair=True)
        appender.join(30.0)
    assert errors == []
    (record,) = results
    assert report.orphan_segments == [] and report.removed == []
    with _open_clean(store_dir) as store:
        assert store.records[-1] == record
        assert store.quarantined == []
        assert np.array_equal(store.matrix(window_range=(WINDOWS, WINDOWS + 4)), _hour(1))


def test_two_repairs_commit_one_generation_each_in_turn(store_dir):
    with SymbolStore.open(store_dir) as store:
        damaged = store.records[1].name
        offset = len(b"RSYMSTR1") + int(store.segments[1].offsets[0])
        generation = store.generation
    faults.flip_bit(store_dir / damaged, offset)
    results, errors = [], []
    with faults.inject(FaultPlan(
        "manifest.before_rename", action="delay", delay_s=HOLD_S,
    )) as injector:
        first = _in_thread(
            lambda: scrub_store(store_dir, repair=True), results, errors
        )
        _wait_until_held(injector)
        second = scrub_store(store_dir, repair=True)
        first.join(30.0)
    assert errors == []
    (first_report,) = results
    assert first_report.quarantined == [damaged]
    assert first_report.new_generation == generation + 1
    # The second repair read the generation the first committed: clean.
    assert second.generation == generation + 1
    assert second.corrupt_segments == [] and second.new_generation is None
    with _open_clean(store_dir) as store:
        assert store.generation == generation + 1
        assert damaged not in [record.name for record in store.records]


def test_two_appends_commit_two_generations(store_dir):
    with SymbolStore.open(store_dir) as store:
        generation = store.generation
    results, errors = [], []
    with faults.inject(FaultPlan(
        "manifest.before_rename", action="delay", delay_s=HOLD_S,
    )) as injector:
        first = _in_thread(
            lambda: append_segment(store_dir, _hour(2)), results, errors
        )
        _wait_until_held(injector)
        second = append_segment(store_dir, _hour(3))
        first.join(30.0)
    assert errors == []
    (first_record,) = results
    assert first_record.name != second.name
    with _open_clean(store_dir) as store:
        assert store.generation == generation + 2
        assert store.records[-2:] == [first_record, second]
        assert np.array_equal(
            store.matrix(window_range=(WINDOWS, WINDOWS + 8)),
            np.hstack([_hour(2), _hour(3)]),
        )


_HOLD_IN_CHILD = """
import sys, time
from pathlib import Path
from repro.store.segments import _writer_lock
with _writer_lock(Path(sys.argv[1])):
    Path(sys.argv[2]).touch()
    time.sleep(float(sys.argv[3]))
"""


def test_another_process_holding_the_lock_makes_an_append_wait(store_dir, tmp_path):
    ready = tmp_path / "child-holds-the-lock"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", _HOLD_IN_CHILD, str(store_dir), str(ready), str(HOLD_S)],
        env=env,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not ready.exists():
            assert child.poll() is None, "the child exited before taking the lock"
            assert time.monotonic() < deadline, "the child never took the lock"
            time.sleep(0.005)
        started = time.monotonic()
        record = append_segment(store_dir, _hour(4))
        waited = time.monotonic() - started
    finally:
        child.wait(30.0)
    assert child.returncode == 0
    assert waited >= HOLD_S / 2
    with _open_clean(store_dir) as store:
        assert store.records[-1] == record
