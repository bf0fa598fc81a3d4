"""End-to-end telemetry: metrics registry and trace spans.

Zero-dependency observability for the store → plan → serve stack:

``metrics``
    A process-wide :class:`MetricsRegistry` of counters, gauges and
    fixed-bucket histograms.  Snapshots are plain picklable dicts, and
    ``diff_snapshots`` isolates what one query did between two of them.

``trace``
    Structured spans — context managers carrying trace-id/span-id/parent,
    monotonic timings and typed attributes — collected into a ring buffer
    and an optional JSONL sink.

Everything degrades to near-zero cost when disabled: a histogram record is
one bucket increment, a span on a disabled tracer is a shared no-op object,
and a disabled registry short-circuits before touching any lock.
"""

from .metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
    diff_snapshots,
    registry,
    set_metrics_enabled,
)
from .trace import (
    Span,
    Tracer,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    format_span_tree,
    new_trace_id,
    recent_traces,
    set_trace_id,
    span,
    tracer,
    tracing_enabled,
)

__all__ = [
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "current_trace_id",
    "diff_snapshots",
    "disable_tracing",
    "enable_tracing",
    "format_span_tree",
    "new_trace_id",
    "recent_traces",
    "registry",
    "set_metrics_enabled",
    "set_trace_id",
    "span",
    "tracer",
    "tracing_enabled",
]
