"""``QueryEngine.reopen`` carries its index forward, and it equals a cold open's.

Across random sequences of appends (zero-width ones included), drift-cut
appends with a new table epoch, scrub quarantines and manifest rollbacks,
the reopened engine's index — band histograms, peaks, last symbols and run
counts — equals a cold ``QueryEngine.open`` followed by
``build_query_index`` at every generation, and its run counts equal the
ones the decoded matrix has: on the carried path, and on every fallback (a
quarantine, a rollback, no ``windows_per_day``, columns shorter than one
day).  On RLE stores the index's run counts are the headers' stored counts,
less one for each run that continues across a segment boundary.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.lookup import LookupTable
from repro.obs import registry, span, tracer
from repro.obs.trace import recent_traces
from repro.query import QueryEngine
from repro.query.index import DEFAULT_BANDS, build_query_index, write_query_index
from repro.store import (
    RLE, SymbolStore, SymbolStoreWriter, append_segment, create_segmented_store,
    faults, scrub_store, write_segmented_fleet,
)

N_METERS, ALPHABET, PER_DAY = 7, 8, 24

STEPS = ("append", "append", "append", "empty", "drift", "scrub", "rollback")


def _write(directory: Path, windows: int, per_day: bool, seed: int) -> None:
    values = np.random.default_rng(seed).normal(size=(N_METERS, windows)).cumsum(axis=1)
    write_segmented_fleet(
        directory, values, alphabet_size=ALPHABET, segment_windows=PER_DAY // 2,
        sampling_interval=3600.0 if per_day else None,
    ).close()


def _step(directory: Path, engine: QueryEngine, step: str, rng) -> None:
    store = engine.store
    if step in ("append", "empty", "drift"):
        width = 0 if step == "empty" else int(rng.integers(1, 7))
        table = store.shared_table
        if step == "drift":
            table = LookupTable.fit(rng.normal(size=200), ALPHABET)
        append_segment(
            directory, rng.integers(0, ALPHABET, size=(N_METERS, width)),
            tables=table, reason=step,
        )
    elif step == "scrub":
        live = [seg for seg in store.segments if seg.counts.any()]
        if live:
            victim = live[int(rng.integers(len(live)))]
            faults.flip_bit(victim.path, len(b"RSYMSTR1") + int(victim.offsets[-1]))
            scrub_store(directory, repair=True)
    elif step == "rollback" and store.generation >= 3:
        newest = directory / f"manifest-{store.generation:010d}.json"
        faults.flip_bit(newest, 12)


def _warm(engine: QueryEngine, rng) -> None:
    """Build the index a reload may carry, or leave it unbuilt."""
    if rng.random() < 0.5:
        engine.index()
    if rng.random() < 0.6:
        engine.aggregate()


def _matrix_runs(matrix: np.ndarray) -> np.ndarray:
    """Run count of every row, derived from the decoded symbols."""
    if matrix.shape[1] == 0:
        return np.zeros(matrix.shape[0], dtype=np.int64)
    return 1 + np.count_nonzero(np.diff(matrix, axis=1), axis=1)


def _assert_equals_cold(engine: QueryEngine, directory: Path) -> None:
    """The reload's one index (carried, or built by its first query)
    equals a cold open's, has the default bands, and counts the runs the
    decoded matrix has."""
    cold = QueryEngine.open(directory)
    try:
        reference = build_query_index(cold.store)
        runs = _matrix_runs(cold.store.matrix())
    finally:
        cold.close()
    index = engine.index()
    assert index.n_bands == reference.n_bands == DEFAULT_BANDS
    assert index.fingerprint == reference.fingerprint
    assert index.windows_per_day == reference.windows_per_day
    assert np.array_equal(index.band_histograms, reference.band_histograms)
    assert np.array_equal(index.max_symbols, reference.max_symbols)
    assert np.array_equal(index.last_symbols, reference.last_symbols)
    assert np.array_equal(index.run_counts, reference.run_counts)
    hist, peaks, source_runs = engine.source.column_stats()
    assert np.array_equal(hist, reference.histograms)
    assert np.array_equal(peaks, reference.max_symbols)
    assert np.array_equal(source_runs, runs)


def _run(steps, per_day: bool, days: float, seed: int) -> int:
    """Apply ``steps``, reopening and checking after each; return how many
    reloads carried their summaries."""
    rng = np.random.default_rng(seed)
    carried = 0
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "fleet.rsyms"
        _write(directory, int(days * PER_DAY), per_day, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if rng.random() < 0.5:
                with SymbolStore.open(directory) as store:
                    write_query_index(store)
            engine = QueryEngine.open(directory)
            try:
                for step in steps:
                    _warm(engine, rng)
                    _step(directory, engine, step, rng)
                    reopened = engine.reopen()
                    engine.close()
                    engine = reopened
                    carried += engine.store.appended is not None
                    _assert_equals_cold(engine, directory)
            finally:
                engine.close()
    return carried


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=8),
    per_day=st.booleans(),
    days=st.sampled_from([0.5, 1.0, 2.5]),
    seed=st.integers(0, 2**16),
)
def test_carried_summaries_equal_a_cold_open(steps, per_day, days, seed):
    _run(steps, per_day, days, seed)


@pytest.mark.parametrize("per_day,days", [
    (True, 2.5),      # the index folds by day and carries
    (True, 0.5),      # shorter than a day: the index is rebuilt
    (False, 2.5),     # contiguous bands: the index is rebuilt
])
def test_appends_alone_always_carry(per_day, days):
    steps = ["append", "empty", "append", "drift", "append"]
    assert _run(steps, per_day, days, seed=17) == len(steps)


def test_the_carried_index_is_the_old_one_plus_the_share(tmp_path):
    directory = tmp_path / "fleet.rsyms"
    _write(directory, 3 * PER_DAY, True, seed=3)
    engine = QueryEngine.open(directory)
    engine.index()
    engine.aggregate()
    rng = np.random.default_rng(4)
    append_segment(directory, rng.integers(0, ALPHABET, size=(N_METERS, 5)),
                   tables=engine.store.shared_table)
    reopened = engine.reopen()
    try:
        assert reopened._index is not None
        assert reopened.source.stats.columns_decoded == N_METERS  # the share only
        assert reopened.store.segments_opened == 1
    finally:
        engine.close()
        reopened.close()


def _rle_symbols() -> np.ndarray:
    symbols = np.random.default_rng(12).integers(0, ALPHABET, size=(N_METERS, 3 * PER_DAY))
    symbols[:, PER_DAY - 5: PER_DAY + 7] = 3   # a run across the first cut
    symbols[:2, 2 * PER_DAY - 1: 2 * PER_DAY + 1] = 6   # meters 0, 1: the second
    return symbols


def test_bare_rle_file_run_counts_are_the_headers(tmp_path):
    symbols = _rle_symbols()
    path = tmp_path / "fleet.rsym"
    table = LookupTable.fit(np.random.default_rng(1).normal(size=200), ALPHABET)
    with SymbolStoreWriter(path, ALPHABET, layout=RLE, tables=table) as writer:
        writer.append_matrix(list(range(N_METERS)), symbols)
    with QueryEngine.open(path) as engine:
        (segment,) = engine.store.segments
        assert np.array_equal(engine.index().run_counts, segment.run_counts)
        assert np.array_equal(engine.index().run_counts, _matrix_runs(symbols))


def test_segmented_rle_run_counts_merge_across_boundaries(tmp_path):
    """Each segment's header counts a run that crosses a cut once more;
    the index counts it once, carried across the appends and cold."""
    symbols = _rle_symbols()
    directory = tmp_path / "fleet.rsyms"
    table = LookupTable.fit(np.random.default_rng(1).normal(size=200), ALPHABET)
    create_segmented_store(
        directory, alphabet_size=ALPHABET, layout=RLE,
        metadata={"windows_per_day": PER_DAY}, ids=list(range(N_METERS)),
    ).close()
    append_segment(directory, symbols[:, :PER_DAY], tables=table)
    engine = QueryEngine.open(directory)
    try:
        engine.index()
        for cut in (PER_DAY, 2 * PER_DAY):
            append_segment(directory, symbols[:, cut: cut + PER_DAY], tables=table)
            reopened = engine.reopen()
            engine.close()
            engine = reopened
            assert engine._index is not None  # carried, not rebuilt
        stored = sum(segment.run_counts for segment in engine.store.segments)
        crossing = sum(
            (symbols[:, cut - 1] == symbols[:, cut]).astype(np.int64)
            for cut in (PER_DAY, 2 * PER_DAY)
        )
        assert crossing.min() >= 1 and crossing[:2].min() == 2
        assert np.array_equal(engine.index().run_counts, stored - crossing)
        assert np.array_equal(engine.index().run_counts, _matrix_runs(symbols))
        _assert_equals_cold(engine, directory)
    finally:
        engine.close()


def test_an_index_with_other_bands_is_not_carried(tmp_path):
    """A sidecar written with 4 bands goes stale on append; a cold open
    rebuilds with the default bands, so the reload must not keep 4."""
    directory = tmp_path / "fleet.rsyms"
    _write(directory, 3 * PER_DAY, True, seed=6)
    with SymbolStore.open(directory) as store:
        write_query_index(store, n_bands=4)
    engine = QueryEngine.open(directory)
    assert engine._index.n_bands == 4
    engine.aggregate()
    append_segment(directory, np.ones((N_METERS, 4), dtype=np.int64),
                   tables=engine.store.shared_table)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reopened = engine.reopen()
        cold = QueryEngine.open(directory)
    try:
        assert reopened.store.appended is not None and reopened._index is None
        a = reopened.private_aggregate(k_anon=3)
        b = cold.private_aggregate(k_anon=3)
        assert np.array_equal(a.band_profile, b.band_profile)
        _assert_equals_cold(reopened, directory)
    finally:
        engine.close()
        reopened.close()
        cold.close()


def test_reopen_span_carries_the_counter_deltas(tmp_path):
    directory = tmp_path / "fleet.rsyms"
    _write(directory, 2 * PER_DAY, True, seed=5)
    trace = tracer()
    was_enabled = trace.enabled
    trace.enable()
    reg = registry()
    engine = QueryEngine.open(directory)
    try:
        engine.aggregate()
        append_segment(
            directory, np.zeros((N_METERS, 4), dtype=np.int64),
            tables=engine.store.shared_table,
        )
        shared = reg.counter_value("store.segments_shared_total")
        opened = reg.counter_value("store.segments_opened_total")
        with span("test.reload"):
            reopened = engine.reopen()
        (root,) = recent_traces(1)
        (reload,) = [c for c in root["children"] if c["name"] == "store.reopen"]
        attributes = reload["attributes"]
        assert attributes["segments_shared"] == (
            reg.counter_value("store.segments_shared_total") - shared
        ) == engine.store.n_segments
        assert attributes["segments_opened"] == (
            reg.counter_value("store.segments_opened_total") - opened
        ) == 1
        assert attributes["summaries"] == "carried"
        assert attributes["generation"] == reopened.store.generation
        reopened.close()
    finally:
        engine.close()
        if not was_enabled:
            trace.disable()
