"""Dense reads across segments: one gather per segment, one decode per run.

A dense read gathers each segment's packed window of the requested columns
into one buffer and decodes each run of equal-shaped windows with one
kernel call.  These tests write the same symbols as a bare file and as a
directory of uneven segments, for every width from 1 to 32 bits, and check
that every column list and window reads back exactly the written symbols
in the narrow symbol dtype — and that the decoder only ever sees the bytes
of the requested window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.store import (
    SymbolStore,
    SymbolStoreWriter,
    append_segment,
    create_segmented_store,
)
from repro.store import format as format_module
from repro.store.packing import packed_nbytes, symbol_dtype

N_COLUMNS = 7
WIDTH = 45
#: Segment cuts: four equal 4-window segments decode as one run, then
#: widths 5, 1 and 23 each start a new one.
CUTS = (0, 4, 8, 12, 16, 21, 22, WIDTH)
COLUMN_LISTS = ([0, 1, 2, 3, 4, 5, 6], [6, 0, 3], [2], [4, 4, 1], [1, 2, 3, 4, 5])
WINDOWS = (None, (3, 41), (13, 14), (7, 7), (44, 45), (15, 23), (0, 4))


def _stores(tmp_path, alphabet, rows):
    ids = [f"m{i}" for i in range(N_COLUMNS)]
    bare = tmp_path / "bare.rsym"
    with SymbolStoreWriter(bare, alphabet) as writer:
        for column_id, row in zip(ids, rows):
            writer.append(column_id, row)
    many = tmp_path / "many.rsyms"
    create_segmented_store(many, alphabet, ids=ids).close()
    for lo, hi in zip(CUTS, CUTS[1:]):
        append_segment(many, rows[:, lo:hi])
    return bare, many


@pytest.mark.parametrize("bits", range(1, 33))
def test_every_width_reads_alike(tmp_path, monkeypatch, bits):
    alphabet = 2 ** bits
    rng = np.random.default_rng(bits)
    rows = rng.integers(0, alphabet, size=(N_COLUMNS, WIDTH), dtype=np.int64)
    decoded_bytes = []
    unpack = format_module.unpack_slice

    def counted(packed, bits_, start, stop):
        decoded_bytes.append(int(np.asarray(packed).size))
        return unpack(packed, bits_, start, stop)

    monkeypatch.setattr(format_module, "unpack_slice", counted)
    for path in _stores(tmp_path, alphabet, rows):
        with SymbolStore.open(path) as store:
            for columns in COLUMN_LISTS:
                meters = [store.ids[c] for c in columns]
                for window in WINDOWS:
                    lo, hi = (0, WIDTH) if window is None else window
                    decoded_bytes.clear()
                    got = store.matrix(meters=meters, window_range=window)
                    np.testing.assert_array_equal(got, rows[columns, lo:hi])
                    if hi > lo:
                        assert got.dtype == symbol_dtype(bits)
                    # Each segment's window, with at most 7 lead symbols.
                    spans = len(store.segments)
                    limit = len(columns) * spans * (packed_nbytes(hi - lo + 7, bits) + 1)
                    assert sum(decoded_bytes) <= limit
                for column in columns:
                    np.testing.assert_array_equal(
                        store.indices(store.ids[column], 5, 40), rows[column, 5:40]
                    )
