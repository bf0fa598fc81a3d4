"""The server opens each new snapshot once, and drift bodies are history-free."""

from __future__ import annotations

from pathlib import Path

from repro.serve import QueryServer, ServeClient
from repro.store import SymbolStore, format as store_format, write_segmented_fleet

from .conftest import fleet_values


def test_keyed_append_then_read_opens_each_segment_once(tmp_path, monkeypatch):
    path = tmp_path / "fleet.rsyms"
    write_segmented_fleet(
        path, fleet_values(), alphabet_size=8, segment_windows=20,
    ).close()
    with SymbolStore.open(path) as store:
        segments = store.n_segments
        matrix = store.matrix(window_range=(0, 8))
    assert segments == 10
    opened = []
    real_open = store_format._Segment.open.__func__

    def spy(cls, seg_path, *args, **kwargs):
        opened.append(Path(seg_path).name)
        return real_open(cls, seg_path, *args, **kwargs)

    with QueryServer({"fleet": path}) as server:
        client = ServeClient(server.url, timeout=10.0)
        client.agg("fleet")  # the current snapshot is open before counting
        monkeypatch.setattr(store_format._Segment, "open", classmethod(spy))
        appended = client.append("fleet", matrix, idempotency_key="once")
        read = client.agg("fleet")
    assert appended["duplicate"] is False and not read["degraded"]
    # The next read's reopen, and nothing else: S old segments + the new one.
    assert len(opened) <= segments + 1
    assert sorted(set(opened)) == sorted(opened)


def test_drift_body_does_not_depend_on_earlier_requests(server, client):
    first = client.drift("fleet")
    client.agg("fleet")  # decodes columns through the same snapshot
    second = client.drift("fleet")
    assert first == second
    assert second["columns_decoded"] == 0
