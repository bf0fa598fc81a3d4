"""Block run reads: ``SymbolStore.runs_block`` against a per-column reference.

The property test writes the same symbols as a bare file, a one-segment and
a many-segment directory (dense and RLE, several bit widths), then checks
that every requested column list — contiguous, scattered, unsorted,
repeated or empty — reads back exactly the runs a per-column run-length
encode of the written symbols gives, with runs that continue across
segment boundaries merged.  A windowed read of a bare file decodes only
the window.  The read-count tests pin the block-at-a-time contract:
``anomaly`` and ``match`` make one read per segment per column block, and
the counters agree with the columns read — the run counters, except for
``anomaly`` on a dense store, which decodes its blocks and reads no runs.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import registry
from repro.query import QueryEngine
from repro.store import (
    DENSE,
    RLE,
    SymbolStore,
    SymbolStoreWriter,
    append_segment,
    create_segmented_store,
    open_store,
)
from repro.store import format as format_module
from repro.store.format import _Segment

#: Alphabets of 3, 4, 8 and 9 bits per symbol.
ALPHABETS = (8, 16, 256, 512)


def _reference(rows, columns):
    """``(values, lengths, offsets)`` from a per-column run-length encode."""
    values, lengths, offsets = [], [], [0]
    for column in columns:
        row = np.asarray(rows[column], dtype=np.int64)
        for symbol in row:
            if len(values) > offsets[-1] and values[-1] == symbol:
                lengths[-1] += 1
            else:
                values.append(int(symbol))
                lengths.append(1)
        offsets.append(len(values))
    return values, lengths, offsets


def _assert_runs(runs, rows, columns):
    values, lengths, offsets = _reference(rows, columns)
    assert runs.values.dtype == np.int64 and runs.run_lengths.dtype == np.int64
    assert runs.values.tolist() == values
    assert runs.run_lengths.tolist() == lengths
    assert runs.offsets.tolist() == offsets


def _write(base: Path, kind: str, layout: str, alphabet: int, rows, cuts):
    """One store of ``rows`` (a list of symbol arrays) of the given kind."""
    ids = [f"m{i}" for i in range(len(rows))]
    if kind == "bare":
        path = base / "bare.rsym"
        with SymbolStoreWriter(path, alphabet, layout=layout) as writer:
            for column_id, row in zip(ids, rows):
                writer.append(column_id, row)
        return path
    path = base / f"{kind}.rsyms"
    create_segmented_store(path, alphabet, layout=layout, ids=ids).close()
    matrix = np.vstack(rows)
    bounds = [0] + list(cuts) + [matrix.shape[1]]
    for lo, hi in zip(bounds, bounds[1:]):
        append_segment(path, matrix[:, lo:hi])
    return path


@st.composite
def fleets(draw):
    """Symbols with plateaus, so runs are long and often cross a cut."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, 6))
    width = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = rng.integers(0, alphabet, size=3)
    rows = palette[rng.integers(0, 3, size=(n, width))]
    keep = rng.random((n, width)) < draw(st.sampled_from([0.0, 0.5, 0.9]))
    for t in range(1, width):                     # repeat the previous symbol
        rows[:, t] = np.where(keep[:, t], rows[:, t - 1], rows[:, t])
    if n > 1 and width:
        rows[0] = rows[0, 0]                      # one run across every cut
    cuts = sorted(draw(st.lists(st.integers(0, width), max_size=4)))
    return alphabet, rows, cuts


@given(
    fleet=fleets(),
    layout=st.sampled_from([DENSE, RLE]),
    verify=st.sampled_from(["lazy", "eager", "off"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_runs_block_matches_per_column_runs(fleet, layout, verify, data):
    alphabet, rows, cuts = fleet
    n = rows.shape[0]
    lists = [
        list(range(n)), [], list(range(n))[::-1], [n - 1, 0, n - 1],
        data.draw(st.lists(st.integers(0, n - 1), max_size=9)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for kind, kind_cuts in (("bare", []), ("one", []), ("many", cuts)):
            path = _write(Path(tmp), kind, layout, alphabet, list(rows), kind_cuts)
            with SymbolStore.open(path, verify=verify) as store:
                for columns in lists:
                    _assert_runs(store.runs_block(columns), rows, columns)
                for column in range(n):
                    values, lengths = store.runs(f"m{column}")
                    expected, expected_lengths, _ = _reference(rows, [column])
                    assert values.tolist() == expected
                    assert lengths.tolist() == expected_lengths
                np.testing.assert_array_equal(store.matrix(), rows)


def test_zero_width_segment_between_runs(tmp_path):
    rows = np.array([[1, 1, 2, 2, 2, 0], [3, 3, 3, 3, 3, 3]])
    for layout in (DENSE, RLE):
        path = tmp_path / f"{layout}.rsyms"
        create_segmented_store(path, 4, layout=layout, ids=["a", "b"]).close()
        for lo, hi in ((0, 2), (2, 2), (2, 5), (5, 5), (5, 6)):
            append_segment(path, rows[:, lo:hi])
        with open_store(path) as store:
            assert store.n_segments == 5
            _assert_runs(store.runs_block([1, 0, 1]), rows, [1, 0, 1])


@pytest.mark.parametrize("layout", [DENSE, RLE])
@pytest.mark.parametrize("alphabet", [8, 512])
def test_bare_file_with_unequal_columns(tmp_path, layout, alphabet):
    rng = np.random.default_rng(alphabet)
    rows = [np.repeat(rng.integers(0, alphabet, size=n), 3) for n in (5, 0, 9, 1)]
    path = tmp_path / "ragged.rsym"
    with SymbolStoreWriter(path, alphabet, layout=layout) as writer:
        for column, row in enumerate(rows):
            writer.append(column, row)
    with open_store(path) as store:
        for columns in ([0, 1, 2, 3], [2, 0], [1, 1], [3, 2, 3, 0]):
            _assert_runs(store.runs_block(columns), rows, columns)


@pytest.mark.parametrize("alphabet", [16, 512])
def test_window_of_a_bare_file_decodes_only_the_window(tmp_path, monkeypatch, alphabet):
    rng = np.random.default_rng(alphabet)
    rows = rng.integers(0, alphabet, size=(5, 300))
    path = tmp_path / "wide.rsym"
    with SymbolStoreWriter(path, alphabet) as writer:
        for column, row in enumerate(rows):
            writer.append(column, row)
    decoded = []
    unpack = format_module.unpack_columns

    def counted(packed, bit_starts, counts, bits):
        decoded.append(int(np.sum(counts)))
        return unpack(packed, bit_starts, counts, bits)

    monkeypatch.setattr(format_module, "unpack_columns", counted)
    with open_store(path) as store:
        for lo, hi in ((0, 300), (97, 191), (299, 300), (150, 150)):
            decoded.clear()
            np.testing.assert_array_equal(store.indices(3, lo, hi), rows[3, lo:hi])
            np.testing.assert_array_equal(
                store.matrix(meters=[4, 1], window_range=(lo, hi)), rows[[4, 1], lo:hi]
            )
            assert sum(decoded) <= 3 * (hi - lo)


# -- read counts ---------------------------------------------------------------


N_METERS = 20
BLOCK = 8          # columns per run block in these tests: 3 blocks of 20


@pytest.fixture(params=[DENSE, RLE])
def counted_store(request, tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 8, size=(N_METERS, 48))
    rows[:, 10:30] = 7
    path = tmp_path / "fleet.rsyms"
    create_segmented_store(
        path, 8, layout=request.param, ids=list(range(N_METERS)),
    ).close()
    for lo in range(0, 48, 12):
        append_segment(path, rows[:, lo: lo + 12])
    return path


def _count_segment_reads(monkeypatch) -> dict:
    """Patch the ``_Segment`` read methods to count outermost calls per segment."""
    calls: dict = {}
    depth = [0]
    for name in ("runs_block", "matrix", "_packed_window"):
        original = getattr(_Segment, name)

        def counted(self, *args, _original=original, **kwargs):
            if not depth[0]:
                calls[self.path.name] = calls.get(self.path.name, 0) + 1
            depth[0] += 1
            try:
                return _original(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(_Segment, name, counted)
    return calls


@pytest.mark.parametrize("verb", ["anomaly", "match"])
def test_one_read_per_segment_per_block(counted_store, monkeypatch, verb):
    monkeypatch.setattr(_Segment, "_RUN_SCAN_BLOCK", BLOCK)
    engine = QueryEngine.open(counted_store)
    try:
        # Dense anomaly decodes its blocks; every other case reads runs.
        stat, counter = (
            ("columns_decoded", "store.columns_decoded_total")
            if verb == "anomaly" and engine.store.layout == DENSE
            else ("runs_read", "store.runs_read_total")
        )
        # match's first call builds the index: build it here, so only the
        # verb's reads are counted.
        total_runs = int(engine.index().run_counts.sum())
        calls = _count_segment_reads(monkeypatch)
        reg = registry()
        runs_before = reg.counter_value(counter)
        blocks_before = reg.counter_value("store.blocks_read_total")
        stats_before = getattr(engine.source.stats, stat)
        if verb == "anomaly":
            report = engine.anomaly()
            assert len(report.ids) == N_METERS
        else:
            matches = engine.match("7{5,}")
            assert matches.columns_scanned == N_METERS
            assert matches.runs_scanned == total_runs
        read = getattr(engine.source.stats, stat) - stats_before
        n_segments = engine.store.n_segments
    finally:
        engine.close()
    blocks = -(-N_METERS // BLOCK)
    assert n_segments == 4
    assert calls == {name: blocks for name in calls} and len(calls) == n_segments
    assert read == N_METERS
    assert reg.counter_value(counter) - runs_before == read
    assert reg.counter_value("store.blocks_read_total") - blocks_before == blocks
