"""Counters, gauges and histograms for the engine's hot paths.

The per-solve ``diagnostics`` mappings describe *one* result; this
registry aggregates *across* solves -- sweep-cache and Poisson-cache
hit/miss totals, steady-state detections, retry and
degrade counts, solve-latency histograms -- which is exactly the shape
the planned lifetime-query service needs (p50/p99 latency, throughput,
hit rates).

Collection is opt-in: with no registry installed every instrumentation
point (:func:`count`, :func:`observe`, :func:`set_gauge`) is a function
call plus one ``None`` check.  Install a registry for a scope with
:func:`override_metrics` (tests, ``run_sweep``-level snapshots) or
process-wide with :func:`set_metrics_registry` (the experiments runner's
``--metrics``).  A :meth:`MetricsRegistry.snapshot` is a plain nested
dict, carried in sweep diagnostics under the schema-registered
``"metrics"`` key.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterator, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "count",
    "metrics_registry",
    "observe",
    "override_metrics",
    "set_gauge",
    "set_metrics_registry",
]

#: Default histogram bucket upper bounds (seconds-oriented: sub-ms ticks
#: through minute-scale solves), plus an implicit +inf overflow bucket.
DEFAULT_BUCKETS = (0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0, 16.0, 64.0)


class Counter:
    """A monotonically increasing count (cache hits, retries, solves)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount!r}")
        with self._lock:
            self._value += int(amount)

    @property
    def value(self) -> int:
        """The current count."""
        return self._value


class Gauge:
    """A point-in-time value (cache sizes, worker counts)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        self._value = float(value)

    @property
    def value(self) -> float:
        """The last value set."""
        return self._value


class Histogram:
    """A bucketed distribution of observations (solve latencies).

    Tracks count, sum, min and max exactly plus per-bucket counts over
    fixed upper bounds, so p50/p99-style summaries stay cheap and the
    snapshot stays a small plain dict regardless of observation volume.
    """

    __slots__ = ("name", "_lock", "_bounds", "_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, buckets: "Sequence[float]" = DEFAULT_BUCKETS) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._bounds = tuple(sorted(float(bound) for bound in buckets))
        if not self._bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self._buckets = [0] * (len(self._bounds) + 1)  # trailing +inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        slot = bisect_left(self._bounds, value)
        with self._lock:
            self._buckets[slot] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    def snapshot(self) -> dict[str, Any]:
        """The histogram as a plain dict (count/sum/min/max + buckets)."""
        with self._lock:
            buckets = {
                f"le_{bound:g}": self._buckets[slot]
                for slot, bound in enumerate(self._bounds)
            }
            buckets["le_inf"] = self._buckets[-1]
            return {
                "count": self._count,
                "sum": self._sum,
                "min": None if self._count == 0 else self._min,
                "max": None if self._count == 0 else self._max,
                "buckets": buckets,
            }


class MetricsRegistry:
    """Named counters/gauges/histograms with a plain-dict snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create the counter *name*."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the gauge *name*."""
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str, buckets: "Sequence[float]" = DEFAULT_BUCKETS) -> Histogram:
        """Get-or-create the histogram *name* (*buckets* only on creation)."""
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, buckets)
            return metric

    def snapshot(self) -> dict[str, Any]:
        """Every metric as one JSON-friendly nested dict, names sorted."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: counters[name].value for name in sorted(counters)},
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "histograms": {name: histograms[name].snapshot() for name in sorted(histograms)},
        }

    def render(self) -> str:
        """A plain-text report of the snapshot (``--metrics`` output)."""
        snapshot = self.snapshot()
        lines = ["-- obs metrics --"]
        for name, value in snapshot["counters"].items():
            lines.append(f"  counter   {name}: {value}")
        for name, value in snapshot["gauges"].items():
            lines.append(f"  gauge     {name}: {value:g}")
        for name, data in snapshot["histograms"].items():
            if data["count"]:
                lines.append(
                    f"  histogram {name}: n={data['count']} sum={data['sum']:.6g}s "
                    f"min={data['min']:.6g}s max={data['max']:.6g}s"
                )
            else:
                lines.append(f"  histogram {name}: n=0")
        if len(lines) == 1:
            lines.append("  (no metrics recorded)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
_registry: MetricsRegistry | None = None


def metrics_registry() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when collection is off."""
    return _registry


def set_metrics_registry(registry: MetricsRegistry | None) -> None:
    """Install *registry* process-wide (``None`` disables collection)."""
    global _registry
    _registry = registry


@contextmanager
def override_metrics(registry: MetricsRegistry | None = None) -> "Iterator[MetricsRegistry]":
    """Collect metrics into *registry* (a fresh one by default) for a scope."""
    global _registry
    scoped = registry if registry is not None else MetricsRegistry()
    previous = _registry
    _registry = scoped
    try:
        yield scoped
    finally:
        _registry = previous


def count(name: str, amount: int = 1) -> None:
    """Increment counter *name* if a registry is installed (no-op otherwise)."""
    registry = _registry
    if registry is not None:
        registry.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record *value* on histogram *name* if a registry is installed."""
    registry = _registry
    if registry is not None:
        registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge *name* to *value* if a registry is installed."""
    registry = _registry
    if registry is not None:
        registry.gauge(name).set(value)
