"""A first read checks checksums once per read, not once per segment.

``read_spans`` pools the unverified columns of every dense segment a read
spans into one ``_check_columns`` pass before it gathers, so a read across
30 segments pays the check's set-up once.  Damage still raises the same
:class:`~repro.errors.CorruptStoreError` as a segment-by-segment check: the
lowest damaged span first, then its lowest damaged column.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CorruptStoreError
from repro.store import SymbolStore, faults, write_segmented_fleet
from repro.store import format as format_module
from repro.store.format import MAGIC_HEAD, _Segment

N_METERS = 12
N_SEGMENTS = 30
SEGMENT_WINDOWS = 24


def _store(directory):
    rng = np.random.default_rng(17)
    values = rng.lognormal(3.0, 1.0, size=(N_METERS, N_SEGMENTS * SEGMENT_WINDOWS))
    write_segmented_fleet(
        directory, values, alphabet_size=8, method="median",
        segment_windows=SEGMENT_WINDOWS,
    ).close()
    return directory


def test_a_first_read_across_segments_checks_once(tmp_path, monkeypatch):
    directory = _store(tmp_path / "fleet.rsyms")
    calls = []
    check = format_module._check_columns

    def counted(pieces):
        calls.append(len(pieces))
        return check(pieces)

    monkeypatch.setattr(format_module, "_check_columns", counted)
    with SymbolStore.open(directory) as store:
        assert store.n_segments == N_SEGMENTS
        meters = [store.ids[c] for c in (3, 9, 4)]
        first = store.matrix(meters)
        assert calls == [N_SEGMENTS]
        assert all(seg._verified[[3, 4, 9]].all() for seg in store.segments)
        # Verified columns read with no check at all.
        np.testing.assert_array_equal(store.matrix(meters), first)
        assert calls == [N_SEGMENTS]


def test_damage_names_the_lowest_span_then_its_lowest_column(tmp_path):
    directory = _store(tmp_path / "fleet.rsyms")
    files = sorted(p.name for p in directory.glob("seg-*.rsym"))
    for name, column in ((files[7], 1), (files[3], 5), (files[3], 2)):
        segment = _Segment.open(directory / name)
        offset = len(MAGIC_HEAD) + int(segment.offsets[column])
        segment.close()
        faults.flip_bit(directory / name, offset)
    with SymbolStore.open(directory) as store:
        meters = [store.ids[c] for c in (5, 1, 2)]
        with pytest.raises(CorruptStoreError) as excinfo:
            store.matrix(meters)
        assert excinfo.value.check == "column_crc"
        assert excinfo.value.path.name == files[3]
        assert excinfo.value.detail["column"] == 2
        # Undamaged columns of the damaged segments still read.
        assert store.matrix([store.ids[0]]).shape == (1, N_SEGMENTS * SEGMENT_WINDOWS)
        with pytest.raises(CorruptStoreError) as excinfo:
            store.matrix([store.ids[1]])
        assert excinfo.value.path.name == files[7]
        assert excinfo.value.detail["column"] == 1
