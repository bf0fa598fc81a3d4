"""Structured trace spans: context managers with ids, timings, attributes.

A span is a lightweight slotted object — name, trace-id, span-id, parent,
``perf_counter_ns`` start/end, a dict of typed attributes, and child spans
nested in creation order.  The tracer keeps the *current* span in a
``ContextVar`` so concurrent server threads each build their own tree
without locking on the hot path.  A plan's shard threads run detached and
collect their ``plan.shard`` roots, which the plan hangs under its own
span in task order.

Finished **root** spans land in a bounded ring buffer (``/traces/recent``
reads it) and, when configured, are appended as one JSON line each to a
sink file (``repro obs tail`` replays it).

When tracing is disabled — the default for library use — ``span()`` yields
a shared no-op object and costs one attribute check.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "format_span_tree",
    "new_trace_id",
    "recent_traces",
    "set_trace_id",
    "span",
    "tracer",
    "tracing_enabled",
]


def new_trace_id() -> str:
    return uuid.uuid4().hex

def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed unit of work inside a trace tree."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_ns",
                 "end_ns", "attributes", "children", "status")

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = time.perf_counter_ns()
        self.end_ns: Optional[int] = None
        self.attributes: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.status = "ok"

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_ns": self.duration_ns,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    status = "ok"
    attributes: Dict[str, Any] = {}
    children: List[Span] = []
    duration_ns = 0

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Builds span trees per execution context; collects finished roots."""

    def __init__(self, ring_size: int = 256):
        self.enabled = False
        self._ring: deque = deque(maxlen=ring_size)
        self._ring_lock = threading.Lock()
        self._sink_path: Optional[str] = None
        self._sink_lock = threading.Lock()
        self._current: ContextVar[Optional[Span]] = ContextVar(
            "repro_obs_current_span", default=None)
        self._trace_id: ContextVar[Optional[str]] = ContextVar(
            "repro_obs_trace_id", default=None)
        self._collector: ContextVar[Optional[List[Span]]] = ContextVar(
            "repro_obs_collector", default=None)

    # -- configuration ---------------------------------------------------------

    def enable(self, sink: Optional[str] = None,
               ring_size: Optional[int] = None) -> None:
        if ring_size is not None:
            with self._ring_lock:
                self._ring = deque(self._ring, maxlen=ring_size)
        if sink is not None:
            self._sink_path = os.fspath(sink)
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self._sink_path = None

    # -- trace-id propagation (lives next to the plan layer's Deadline) --------

    def set_trace_id(self, trace_id: Optional[str]):
        """Bind the ambient trace id; returns a token for ``reset_trace_id``."""
        return self._trace_id.set(trace_id)

    def reset_trace_id(self, token) -> None:
        self._trace_id.reset(token)

    def current_trace_id(self) -> Optional[str]:
        current = self._current.get()
        if current is not None:
            return current.trace_id
        return self._trace_id.get()

    def current_span(self) -> Optional[Span]:
        return self._current.get()

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, _trace_id: Optional[str] = None,
             _parent_id: Optional[str] = None, **attributes: Any):
        if not self.enabled:
            yield NOOP_SPAN
            return
        parent = self._current.get()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = _trace_id or self._trace_id.get() or new_trace_id()
            parent_id = _parent_id
        current = Span(name, trace_id, _new_span_id(), parent_id)
        if attributes:
            current.attributes.update(attributes)
        token = self._current.set(current)
        try:
            yield current
        except BaseException as exc:
            current.status = f"error:{type(exc).__name__}"
            raise
        finally:
            current.end_ns = time.perf_counter_ns()
            self._current.reset(token)
            if parent is not None:
                parent.children.append(current)
            else:
                self._finish_root(current)

    def _finish_root(self, root: Span) -> None:
        collector = self._collector.get()
        if collector is not None:
            collector.append(root)
            return
        with self._ring_lock:
            self._ring.append(root)
        sink = self._sink_path
        if sink:
            line = json.dumps(root.to_dict(), separators=(",", ":"))
            with self._sink_lock:
                with open(sink, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")

    @contextmanager
    def detached(self):
        """Run with no inherited current span.

        A thread running in a copy of the caller's context inherits the
        caller's open span; a span started under it would attach to that
        parent in whatever order the threads finish, instead of finishing
        as a collectable root.
        """
        token = self._current.set(None)
        try:
            yield
        finally:
            self._current.reset(token)

    @contextmanager
    def collect(self):
        """Divert finished roots in this context into a list (shard capture)."""
        roots: List[Span] = []
        token = self._collector.set(roots)
        try:
            yield roots
        finally:
            self._collector.reset(token)

    # -- ring buffer -----------------------------------------------------------

    def recent(self, n: int = 16) -> List[Span]:
        with self._ring_lock:
            items = list(self._ring)
        return items[-n:][::-1]

    def clear(self) -> None:
        with self._ring_lock:
            self._ring.clear()


_TRACER = Tracer()


def tracer() -> Tracer:
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER.enabled


def enable_tracing(sink: Optional[str] = None,
                   ring_size: Optional[int] = None) -> None:
    _TRACER.enable(sink=sink, ring_size=ring_size)


def disable_tracing() -> None:
    _TRACER.disable()


def span(name: str, **attributes: Any):
    """Open a span on the process tracer (no-op while tracing is off)."""
    return _TRACER.span(name, **attributes)


def set_trace_id(trace_id: Optional[str]):
    return _TRACER.set_trace_id(trace_id)


def current_trace_id() -> Optional[str]:
    return _TRACER.current_trace_id()


def recent_traces(n: int = 16) -> List[Dict]:
    return [root.to_dict() for root in _TRACER.recent(n)]


def format_span_tree(span_dict: Dict, indent: str = "") -> str:
    """Human-readable tree: name, duration, and compact attributes."""
    duration_ms = span_dict.get("duration_ns", 0) / 1e6
    attributes = span_dict.get("attributes", {})
    attr_text = " ".join(f"{k}={v}" for k, v in attributes.items())
    status = span_dict.get("status", "ok")
    flag = "" if status == "ok" else f" [{status}]"
    line = f"{indent}{span_dict['name']}  {duration_ms:.3f}ms{flag}"
    if attr_text:
        line += f"  ({attr_text})"
    lines = [line]
    for child in span_dict.get("children", []):
        lines.append(format_span_tree(child, indent + "  "))
    return "\n".join(lines)
