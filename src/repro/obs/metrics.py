"""Process-wide metrics: counters, gauges, bounded-window histograms.

One :class:`MetricsRegistry` per process (:func:`global_registry`)
absorbs the engine's operational signals — cache hits/misses/evictions
per backend, backend resolutions and fallback reasons, shard retries
and degradations, circuit-breaker transitions — and serves them as a
plain-data snapshot for ``GET /metrics``, ``Engine.describe()`` and
tests.  Histograms keep bounded reservoirs (same trick as the server's
latency window), so p50/p99 cost O(window log window) and memory stays
flat on a long-running server.

The hot-path helpers (:func:`incr`, :func:`observe`, :func:`gauge_set`)
check one module-level flag first, so ``set_metrics_enabled(False)``
(or ``REPRO_OBS_METRICS=0``) reduces every hook point to a single
boolean test.  Instrumentation is per *query phase*, never per row.

This module also owns the per-request aggregation that used to live in
``repro.server.metrics`` (:class:`RequestRecord` / :class:`ServerMetrics`)
— the ``/stats`` response shape is pinned by the server tests and must
not drift.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Iterable

from ..resilience import breaker as _breaker

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "RequestRecord",
    "ServerMetrics",
    "gauge_set",
    "global_registry",
    "incr",
    "metrics_enabled",
    "observe",
    "percentile",
    "reset_metrics",
    "set_metrics_enabled",
    "snapshot",
]


def percentile(samples: list[float], q: float) -> float:
    """The q-th percentile (0..100) of ``samples``, 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


class Histogram:
    """A bounded sliding window of observations with percentile summary."""

    def __init__(self, window: int = 1024):
        self._samples: deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0

    def observe(self, value: float) -> None:
        self._samples.append(float(value))
        self._count += 1
        self._total += float(value)

    def summary(self) -> dict[str, float]:
        data = list(self._samples)
        return {
            "count": self._count,
            "mean": (sum(data) / len(data)) if data else 0.0,
            "p50": percentile(data, 50),
            "p99": percentile(data, 99),
            "max": max(data) if data else 0.0,
        }


def _labels_key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe named counters, gauges and histograms.

    Labels are flattened into the key (``cache.hits{backend=memory}``)
    so a snapshot is a plain ``str -> number`` mapping — trivially
    JSON-safe for ``/metrics`` and ``describe()``.
    """

    def __init__(self, histogram_window: int = 1024):
        self._lock = threading.Lock()
        self._histogram_window = histogram_window
        self._counters: Counter = Counter()
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def incr(self, name: str, amount: float = 1, **labels: Any) -> None:
        with self._lock:
            self._counters[_labels_key(name, labels)] += amount

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges[_labels_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            key = _labels_key(name, labels)
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(self._histogram_window)
            histogram.observe(value)

    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_labels_key(name, labels), 0)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    key: self._histograms[key].summary()
                    for key in sorted(self._histograms)
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# The process-global registry and its hot-path helpers
# ----------------------------------------------------------------------
_GLOBAL = MetricsRegistry()

_ENABLED = os.environ.get("REPRO_OBS_METRICS", "1").strip().lower() not in {
    "0",
    "false",
    "off",
}


def global_registry() -> MetricsRegistry:
    return _GLOBAL


def metrics_enabled() -> bool:
    return _ENABLED


def set_metrics_enabled(enabled: bool) -> None:
    global _ENABLED
    _ENABLED = bool(enabled)


def incr(name: str, amount: float = 1, **labels: Any) -> None:
    if _ENABLED:
        _GLOBAL.incr(name, amount, **labels)


def gauge_set(name: str, value: float, **labels: Any) -> None:
    if _ENABLED:
        _GLOBAL.gauge_set(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    if _ENABLED:
        _GLOBAL.observe(name, value, **labels)


def snapshot() -> dict[str, Any]:
    return _GLOBAL.snapshot()


def reset_metrics() -> None:
    _GLOBAL.reset()


# ----------------------------------------------------------------------
# Circuit-breaker transitions
# ----------------------------------------------------------------------
def _record_breaker_transition(name: str, old_state: str, new_state: str) -> None:
    incr(
        "resilience.breaker.transitions",
        breaker=name,
        transition=f"{old_state}->{new_state}",
    )


_breaker.add_transition_listener(_record_breaker_transition)


# ----------------------------------------------------------------------
# Per-request aggregation (formerly repro.server.metrics)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestRecord:
    """What one finished request contributes to the aggregates."""

    tenant: str
    outcome: str  # "ok" | "error" | "cancelled" | "rejected"
    queue_wait: float = 0.0
    execution: float = 0.0
    total: float = 0.0
    cache_hit: bool | None = None
    strategy: str | None = None


class ServerMetrics:
    """Thread-safe aggregation of request records for ``/stats``.

    Every admitted request records one :class:`RequestRecord` — queue
    wait (time between admission and winning an execution slot),
    execution time, whether the result came from the tenant's cache
    slice, and the strategy that actually ran (for ``strategy="auto"``
    that is the planner's choice, read off the result metadata).
    """

    def __init__(self, window: int = 4096):
        self._lock = threading.Lock()
        self._started = time.time()
        self._outcomes: Counter = Counter()
        self._tenants: Counter = Counter()
        self._strategies: Counter = Counter()
        self._cache_hits = 0
        self._cache_misses = 0
        self._latency: deque[float] = deque(maxlen=window)
        self._queue_wait: deque[float] = deque(maxlen=window)
        self._execution: deque[float] = deque(maxlen=window)

    def record(self, record: RequestRecord) -> None:
        with self._lock:
            self._outcomes[record.outcome] += 1
            self._tenants[record.tenant] += 1
            if record.strategy:
                self._strategies[record.strategy] += 1
            if record.cache_hit is not None:
                if record.cache_hit:
                    self._cache_hits += 1
                else:
                    self._cache_misses += 1
            if record.outcome == "ok":
                self._latency.append(record.total)
                self._queue_wait.append(record.queue_wait)
                self._execution.append(record.execution)

    @staticmethod
    def _summary(samples: Iterable[float]) -> dict[str, float]:
        data = list(samples)
        return {
            "count": len(data),
            "mean": sum(data) / len(data) if data else 0.0,
            "p50": percentile(data, 50),
            "p99": percentile(data, 99),
            "max": max(data) if data else 0.0,
        }

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            completed = self._outcomes.get("ok", 0)
            total_cache = self._cache_hits + self._cache_misses
            uptime = time.time() - self._started
            return {
                "uptime": uptime,
                "requests": dict(self._outcomes),
                "completed": completed,
                "qps": completed / uptime if uptime > 0 else 0.0,
                "tenants": dict(self._tenants),
                "strategies": dict(self._strategies),
                "cache": {
                    "hits": self._cache_hits,
                    "misses": self._cache_misses,
                    "hit_rate": (
                        self._cache_hits / total_cache if total_cache else 0.0
                    ),
                },
                "latency": self._summary(self._latency),
                "queue_wait": self._summary(self._queue_wait),
                "execution": self._summary(self._execution),
            }
