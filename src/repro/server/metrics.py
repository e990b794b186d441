"""Live serving metrics: QPS, latency percentiles, batch shapes.

One :class:`ServerMetrics` instance is shared by the asyncio front end,
the scheduler and every worker thread, so all mutators take an internal
lock.  Latencies are kept in a bounded reservoir (the most recent
``window`` completions) -- percentiles describe recent behaviour, not
the full history, which is what a live ``stats`` probe wants.

Every recording also publishes into the process-wide
:class:`repro.obs.MetricsRegistry`, which is what the ``metrics`` wire
verb renders in Prometheus format: the reservoir answers "what were
recent latencies", the registry answers "what happened since boot".

The shared-cache hit/miss counts are *not* tracked here; they live in
the engine's :class:`~repro.core.cache.SharedDataCache` stats and are
merged into the ``stats`` response by the scheduler, so one counter
serves both the library and the server.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

from repro.obs import get_registry

__all__ = ["ServerMetrics", "latency_summary", "percentile"]


def percentile(values: list[float], fraction: float) -> float | None:
    """The ``fraction``-quantile of ``values`` by nearest-rank.

    Nearest-rank: the smallest value such that at least ``fraction`` of
    the sample is <= it, i.e. the 1-based rank ``ceil(fraction * n)``.
    ``percentile([1, 2, 3, 4], 0.5)`` is 2 (not 3: ``int(fraction * n)``
    is the *next* rank whenever ``fraction * n`` is exact).

    An empty sample has no quantiles: returns ``None`` (which JSON
    serialises as ``null``) so a freshly started or idle server's stats
    are distinguishable from a genuinely-zero latency.
    """
    return _nearest_rank(sorted(values), fraction)


def _nearest_rank(ordered: list[float], fraction: float) -> float | None:
    if not ordered:
        return None
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def latency_summary(values: list[float]) -> dict:
    """The ``stats`` latency section of a reservoir, sorting it once:
    its size, mean and :func:`percentile` p50 / p95 / p99."""
    ordered = sorted(values)
    return {
        "window": len(ordered),
        "mean": sum(values) / len(values) if values else None,
        "p50": _nearest_rank(ordered, 0.50),
        "p95": _nearest_rank(ordered, 0.95),
        "p99": _nearest_rank(ordered, 0.99),
    }


class ServerMetrics:
    """Thread-safe counters and latency reservoir for one server."""

    def __init__(self, window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._latencies: deque[float] = deque(maxlen=window)
        self.admitted = 0
        self.rejected = 0
        self.expired = 0
        self.failed = 0
        self.cancelled = 0
        self.completed = 0
        self.updates = 0
        self.batches = 0
        self.batched_queries = 0
        self.max_batch_size = 0
        registry = get_registry()
        self._requests_total = registry.counter(
            "repro_requests_total",
            "Queries by final outcome (admitted counts entries, not exits).",
            labels=("outcome",),
        )
        self._latency_histogram = registry.histogram(
            "repro_request_latency_seconds",
            "Admission-to-completion latency of finished queries.",
        )
        self._updates_total = registry.counter(
            "repro_updates_total", "Graph updates applied by the scheduler."
        )
        self._batches_total = registry.counter(
            "repro_batches_total", "Micro-batches dispatched to the worker pool."
        )
        self._batched_queries_total = registry.counter(
            "repro_batched_queries_total",
            "Queries dispatched inside micro-batches.",
        )

    # -- recording (one call per event, all under the lock) --------------
    def record_admitted(self) -> None:
        with self._lock:
            self.admitted += 1
        self._requests_total.inc(outcome="admitted")

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1
        self._requests_total.inc(outcome="rejected")

    def record_expired(self) -> None:
        with self._lock:
            self.expired += 1
        self._requests_total.inc(outcome="expired")

    def record_failed(self) -> None:
        with self._lock:
            self.failed += 1
        self._requests_total.inc(outcome="failed")

    def record_cancelled(self) -> None:
        """An admitted job was cancelled before a worker claimed it."""
        with self._lock:
            self.cancelled += 1
        self._requests_total.inc(outcome="cancelled")

    def record_completed(self, latency: float) -> None:
        """One query finished ``latency`` seconds after admission."""
        with self._lock:
            self.completed += 1
            self._latencies.append(latency)
        self._requests_total.inc(outcome="completed")
        self._latency_histogram.observe(latency)

    def record_update(self) -> None:
        with self._lock:
            self.updates += 1
        self._updates_total.inc()

    def record_batch(self, size: int) -> None:
        """One micro-batch of ``size`` queries was dispatched to a worker."""
        with self._lock:
            self.batches += 1
            self.batched_queries += size
            if size > self.max_batch_size:
                self.max_batch_size = size
        self._batches_total.inc()
        self._batched_queries_total.inc(size)

    # -- reading ---------------------------------------------------------
    @property
    def uptime(self) -> float:
        return time.monotonic() - self._started

    def latency_values(self) -> list[float]:
        """A copy of the latency reservoir (cluster-wide percentile pooling)."""
        with self._lock:
            return list(self._latencies)

    def in_flight(self) -> int:
        """Admitted jobs not yet resolved: ``admitted`` minus the five
        outcome counts, read together under the lock."""
        with self._lock:
            return self._in_flight_locked()

    def _in_flight_locked(self) -> int:
        # Admission counts queries and updates; each leaves in-flight
        # through exactly one of the five outcome counters.
        return (
            self.admitted
            - self.completed
            - self.expired
            - self.failed
            - self.cancelled
            - self.updates
        )

    def snapshot(self) -> dict:
        """A point-in-time metrics dict (the ``stats`` verb's core)."""
        with self._lock:
            latencies = list(self._latencies)
            uptime = time.monotonic() - self._started
            completed = self.completed
            snapshot = {
                "uptime": uptime,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "expired": self.expired,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "completed": completed,
                "updates": self.updates,
                "in_flight": self._in_flight_locked(),
                "qps": completed / uptime if uptime > 0 else 0.0,
                "batches": self.batches,
                "mean_batch_size": (
                    self.batched_queries / self.batches if self.batches else 0.0
                ),
                "max_batch_size": self.max_batch_size,
            }
        snapshot["latency"] = latency_summary(latencies)
        return snapshot
