"""Tracer: span trees, parentage, ring buffer, sink, collector."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    current_trace_id,
    enable_tracing,
    format_span_tree,
    new_trace_id,
    recent_traces,
    span,
    tracer,
    tracing_enabled,
)


def test_disabled_tracer_yields_noop_span():
    assert not tracing_enabled()
    with span("outer", k=1) as s:
        s.set_attribute("x", 2)  # must not raise
    assert recent_traces() == []


def test_span_nesting_builds_one_tree():
    enable_tracing()
    with span("root") as root:
        with span("child.a"):
            with span("leaf"):
                pass
        with span("child.b"):
            pass
    (trace,) = recent_traces(1)
    assert trace["name"] == "root"
    assert [c["name"] for c in trace["children"]] == ["child.a", "child.b"]
    assert trace["children"][0]["children"][0]["name"] == "leaf"
    # Every child shares the root's trace id and points at its parent.
    child = trace["children"][0]
    assert child["trace_id"] == trace["trace_id"]
    assert child["parent_id"] == trace["span_id"]
    assert root.end_ns >= root.start_ns


def test_span_records_attributes_and_durations():
    enable_tracing()
    with span("work", items=3) as s:
        s.set_attributes(kept=2)
    (trace,) = recent_traces(1)
    assert trace["attributes"] == {"items": 3, "kept": 2}
    assert trace["duration_ns"] >= 0


def test_exception_marks_status_and_still_finishes():
    enable_tracing()
    with pytest.raises(ValueError):
        with span("failing"):
            raise ValueError("boom")
    (trace,) = recent_traces(1)
    assert trace["status"] == "error:ValueError"


def test_explicit_trace_id_and_parent_for_cross_process_spans():
    enable_tracing()
    trace_id = new_trace_id()
    with tracer().span("plan.shard", _trace_id=trace_id, _parent_id="abc123"):
        assert current_trace_id() == trace_id
    (trace,) = recent_traces(1)
    assert trace["trace_id"] == trace_id
    assert trace["parent_id"] == "abc123"


def test_ambient_trace_id_binds_new_roots():
    enable_tracing()
    token = tracer().set_trace_id("feedbeef")
    try:
        with span("served"):
            pass
    finally:
        tracer().reset_trace_id(token)
    (trace,) = recent_traces(1)
    assert trace["trace_id"] == "feedbeef"


def test_ring_keeps_newest_first():
    enable_tracing()
    for index in range(5):
        with span(f"root-{index}"):
            pass
    names = [t["name"] for t in recent_traces(3)]
    assert names == ["root-4", "root-3", "root-2"]


def test_jsonl_sink_appends_one_tree_per_line(tmp_path):
    sink = tmp_path / "trace.jsonl"
    enable_tracing(sink=str(sink))
    with span("a"):
        with span("a.child"):
            pass
    with span("b"):
        pass
    lines = sink.read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["name"] == "a"
    assert first["children"][0]["name"] == "a.child"


def test_collector_diverts_roots_from_ring_and_sink():
    enable_tracing()
    with tracer().collect() as roots:
        with span("captured"):
            pass
    assert [r.name for r in roots] == ["captured"]
    assert recent_traces() == []


def test_threads_get_independent_current_spans():
    enable_tracing()
    seen = {}

    def worker(name: str) -> None:
        with span(name):
            seen[name] = tracer().current_span().name

    threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == {f"t{i}": f"t{i}" for i in range(4)}
    # Four independent roots, none nested under another.
    assert sorted(t["name"] for t in recent_traces(8)) == ["t0", "t1", "t2", "t3"]


def test_format_span_tree_is_indented_and_complete():
    enable_tracing()
    with span("root", op="knn"):
        with span("child"):
            pass
    (trace,) = recent_traces(1)
    rendered = format_span_tree(trace)
    lines = rendered.splitlines()
    assert lines[0].startswith("root")
    assert "op=knn" in lines[0]
    assert lines[1].startswith("  child")
