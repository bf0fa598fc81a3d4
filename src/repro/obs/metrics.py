"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

* **Hot-path cheap.**  A counter increment or histogram record is one
  ``bisect`` plus one locked integer add; a disabled registry returns
  before touching the lock.  Instruments are created once and cached by
  ``(name, labels)``, so steady-state code never allocates.
* **Diffable.**  ``snapshot()`` returns a plain nested dict (picklable,
  JSON-able); ``diff_snapshots`` isolates the work done between two
  snapshots, which is how ``repro query --trace`` reports one query's
  counters.
* **Derivable quantiles.**  Histograms keep fixed bucket counts (plus sum
  and count), so p50/p95/p99 fall out of a cumulative walk with linear
  interpolation — no per-observation storage, ever.

Metric names are dotted (``store.columns_decoded_total``); the Prometheus
exposition sanitises them to underscores.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "registry",
    "set_metrics_enabled",
]

# Prometheus-style log-spaced latency buckets, in seconds.  50µs floor
# (span start/stop territory) to 30s (a slow scrub), +Inf implicit.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

# Power-of-4 size buckets for counts and bytes, +Inf implicit.
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
    262144, 1048576, 4194304, 16777216,
)

LabelsTuple = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, str]) -> LabelsTuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _flat_key(name: str, labels: LabelsTuple) -> str:
    """One string key per series, stable for snapshots: ``name|k=v,k=v``."""
    if not labels:
        return name
    return name + "|" + ",".join(f"{k}={v}" for k, v in labels)


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: Iterable[Tuple[str, str]], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """Monotonic counter.  ``inc`` is a no-op when the registry is disabled."""

    __slots__ = ("name", "labels", "_registry", "value")

    def __init__(self, name: str, labels: LabelsTuple, reg: "MetricsRegistry"):
        self.name = name
        self.labels = labels
        self._registry = reg
        self.value = 0

    def inc(self, n: int = 1) -> None:
        reg = self._registry
        if not reg.enabled:
            return
        with reg._lock:
            self.value += n


class Gauge:
    """Point-in-time value (queue depth, open leases, breaker state)."""

    __slots__ = ("name", "labels", "_registry", "value")

    def __init__(self, name: str, labels: LabelsTuple, reg: "MetricsRegistry"):
        self.name = name
        self.labels = labels
        self._registry = reg
        self.value = 0.0

    def set(self, value: float) -> None:
        reg = self._registry
        if not reg.enabled:
            return
        with reg._lock:
            self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        reg = self._registry
        if not reg.enabled:
            return
        with reg._lock:
            self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)


class Histogram:
    """Fixed-bucket histogram: one record = one bucket increment.

    ``bounds`` are upper bucket edges; an implicit +Inf bucket catches the
    tail.  Quantiles interpolate linearly inside the landing bucket, which
    is exactly as precise as the bucket layout and costs nothing to record.
    """

    __slots__ = ("name", "labels", "_registry", "bounds", "buckets",
                 "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelsTuple,
        reg: "MetricsRegistry",
        bounds: Sequence[float],
    ):
        self.name = name
        self.labels = labels
        self._registry = reg
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        reg = self._registry
        if not reg.enabled:
            return
        index = bisect_left(self.bounds, value)
        with reg._lock:
            self.buckets[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket counts (0 when empty)."""
        return _bucket_quantile(self.bounds, self.buckets, self.count, q)


def _bucket_quantile(
    bounds: Sequence[float], buckets: Sequence[int], count: int, q: float
) -> float:
    if count <= 0:
        return 0.0
    target = q * count
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= target:
            if index >= len(bounds):
                # +Inf bucket: the best point estimate is the last edge.
                return float(bounds[-1]) if bounds else 0.0
            lo = float(bounds[index - 1]) if index > 0 else 0.0
            hi = float(bounds[index])
            if bucket_count == 0:
                return hi
            fraction = (target - previous) / bucket_count
            return lo + (hi - lo) * fraction
    return float(bounds[-1]) if bounds else 0.0


class MetricsRegistry:
    """Thread-safe home for every instrument in the process.

    One registry per process is the intended shape (module-level
    :func:`registry`); tests may build private ones.  Disabling flips one
    attribute that every instrument checks before its lock.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelsTuple], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsTuple], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsTuple], Histogram] = {}
        self._help: Dict[str, str] = {}

    # -- instrument factories (cached; cheap to call repeatedly) ---------------

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(key)
                if instrument is None:
                    instrument = Counter(name, key[1], self)
                    self._counters[key] = instrument
                    if help:
                        self._help.setdefault(name, help)
        return instrument

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(key)
                if instrument is None:
                    instrument = Gauge(name, key[1], self)
                    self._gauges[key] = instrument
                    if help:
                        self._help.setdefault(name, help)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(key)
                if instrument is None:
                    instrument = Histogram(name, key[1], self, buckets)
                    self._histograms[key] = instrument
                    if help:
                        self._help.setdefault(name, help)
        return instrument

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Dict:
        """Picklable point-in-time copy of every series."""
        with self._lock:
            return {
                "counters": {
                    _flat_key(c.name, c.labels): c.value
                    for c in self._counters.values()
                },
                "gauges": {
                    _flat_key(g.name, g.labels): g.value
                    for g in self._gauges.values()
                },
                "histograms": {
                    _flat_key(h.name, h.labels): {
                        "bounds": list(h.bounds),
                        "buckets": list(h.buckets),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for h in self._histograms.values()
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._help.clear()

    # -- views -----------------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> int:
        instrument = self._counters.get((name, _labels_key(labels)))
        return instrument.value if instrument is not None else 0

    def to_json(self) -> Dict:
        """Dotted-name JSON view with derived histogram quantiles."""
        snap = self.snapshot()
        histograms = {}
        for key, data in snap["histograms"].items():
            histograms[key] = {
                "count": data["count"],
                "sum": data["sum"],
                "p50": _bucket_quantile(
                    data["bounds"], data["buckets"], data["count"], 0.50),
                "p95": _bucket_quantile(
                    data["bounds"], data["buckets"], data["count"], 0.95),
                "p99": _bucket_quantile(
                    data["bounds"], data["buckets"], data["count"], 0.99),
            }
        return {
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": histograms,
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            help_text = dict(self._help)
        seen_types: set = set()

        def _header(name: str, kind: str) -> None:
            prom = _prom_name(name)
            if prom in seen_types:
                return
            seen_types.add(prom)
            if name in help_text:
                lines.append(f"# HELP {prom} {help_text[name]}")
            lines.append(f"# TYPE {prom} {kind}")

        for c in sorted(counters, key=lambda i: (i.name, i.labels)):
            _header(c.name, "counter")
            lines.append(
                f"{_prom_name(c.name)}{_prom_labels(c.labels)} {c.value}")
        for g in sorted(gauges, key=lambda i: (i.name, i.labels)):
            _header(g.name, "gauge")
            lines.append(
                f"{_prom_name(g.name)}{_prom_labels(g.labels)} {g.value}")
        for h in sorted(histograms, key=lambda i: (i.name, i.labels)):
            _header(h.name, "histogram")
            prom = _prom_name(h.name)
            cumulative = 0
            for bound, bucket_count in zip(h.bounds, h.buckets):
                cumulative += bucket_count
                label = _prom_labels(h.labels, f'le="{bound:g}"')
                lines.append(f"{prom}_bucket{label} {cumulative}")
            cumulative += h.buckets[-1]
            label = _prom_labels(h.labels, 'le="+Inf"')
            lines.append(f"{prom}_bucket{label} {cumulative}")
            lines.append(f"{prom}_sum{_prom_labels(h.labels)} {h.sum}")
            lines.append(f"{prom}_count{_prom_labels(h.labels)} {h.count}")
        return "\n".join(lines) + "\n"


def diff_snapshots(after: Dict, before: Dict) -> Dict:
    """``after - before``, series-wise — the work done between snapshots.

    Series absent from ``before`` (created mid-capture) pass through whole;
    zero-valued counter deltas and empty histograms are dropped, so a
    per-query delta lists only the series the query touched.
    """
    counters = {}
    for key, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(key, 0)
        if delta:
            counters[key] = delta
    gauges = dict(after.get("gauges", {}))
    histograms = {}
    for key, data in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(key)
        if prior is None or tuple(prior["bounds"]) != tuple(data["bounds"]):
            if data["count"]:
                histograms[key] = data
            continue
        count = data["count"] - prior["count"]
        if count <= 0:
            continue
        histograms[key] = {
            "bounds": data["bounds"],
            "buckets": [a - b for a, b in zip(data["buckets"],
                                              prior["buckets"])],
            "sum": data["sum"] - prior["sum"],
            "count": count,
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


_REGISTRY = MetricsRegistry(enabled=True)


def registry() -> MetricsRegistry:
    """The process-wide registry every instrumented seam records into."""
    return _REGISTRY


def set_metrics_enabled(enabled: bool) -> bool:
    """Flip metric recording; returns the previous state."""
    previous = _REGISTRY.enabled
    _REGISTRY.enabled = enabled
    return previous
