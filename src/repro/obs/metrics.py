"""A process-local metrics registry with Prometheus text exposition.

Three instrument kinds, all label-aware and all monotonic-safe under
concurrency (one registry lock; these are counters on a request path,
not a contention hotspot next to fsync and closure joins):

* ``counter`` -- monotonically increasing totals (requests, WAL appends).
* ``gauge``   -- last-write-wins levels (queue depth, last LSN).
* ``histogram`` -- fixed-bucket cumulative histograms (request latency),
  rendered with the standard ``_bucket{le=...}`` / ``_sum`` / ``_count``
  triplet.

The module-level default registry (:func:`get_registry`) is what every
layer publishes into and what the ``metrics`` wire verb renders; tests
that need isolation construct their own :class:`MetricsRegistry`.
:func:`parse_prometheus` is the matching reader, used by the CLI's
``--watch`` table, the bench harness, and the test suite.
"""

from __future__ import annotations

import math
import re
import threading

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "parse_prometheus",
    "phase_totals",
]

# Request latencies on this stack span ~100us (cache-hit count query)
# to tens of seconds (cold boundary join); roughly-log-spaced seconds.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _label_key(label_names: tuple, labels: dict) -> tuple:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Instrument:
    """Shared label-family plumbing for all three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, label_names: tuple, lock) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = lock
        self._series: dict = {}

    def _labels_text(self, key: tuple, extra: str = "") -> str:
        parts = [
            f'{name}="{_escape(value)}"'
            for name, value in zip(self.label_names, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""


class Counter(_Instrument):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def render(self) -> list:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} counter",
        ]
        with self._lock:
            series = sorted(self._series.items())
        for key, value in series:
            lines.append(
                f"{self.name}{self._labels_text(key)} {_format_value(value)}"
            )
        return lines


class Gauge(_Instrument):
    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def render(self) -> list:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} gauge",
        ]
        with self._lock:
            series = sorted(self._series.items())
        for key, value in series:
            lines.append(
                f"{self.name}{self._labels_text(key)} {_format_value(value)}"
            )
        return lines


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple,
        lock,
        buckets=DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names, lock)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
                self._series[key] = series
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series["counts"][index] += 1
            series["sum"] += value
            series["count"] += 1

    def render(self) -> list:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} histogram",
        ]
        with self._lock:
            series = sorted(
                (key, dict(data, counts=list(data["counts"])))
                for key, data in self._series.items()
            )
        for key, data in series:
            for bound, count in zip(self.buckets, data["counts"]):
                le = f'le="{_format_value(bound)}"'
                lines.append(
                    f"{self.name}_bucket{self._labels_text(key, le)} {count}"
                )
            inf_label = 'le="+Inf"'
            lines.append(
                f"{self.name}_bucket{self._labels_text(key, inf_label)} "
                f"{data['count']}"
            )
            lines.append(
                f"{self.name}_sum{self._labels_text(key)} {_format_value(data['sum'])}"
            )
            lines.append(
                f"{self.name}_count{self._labels_text(key)} {data['count']}"
            )
        return lines


class MetricsRegistry:
    """Names -> instruments; re-registration with the same shape is a no-op.

    Idempotent registration matters here: several ``SharingScheduler``
    instances -- one per cluster shard, and in the test suite many
    short-lived servers -- live in
    one process and all call ``counter("repro_requests_total", ...)`` --
    they must share one series, not fight over the name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict = {}

    def _register(self, factory, name, help_text, labels, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, factory) or existing.label_names != tuple(
                    labels
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with a different shape"
                    )
                return existing
            instrument = factory(name, help_text, tuple(labels), self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "", labels=()) -> Counter:
        return self._register(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels=()) -> Gauge:
        return self._register(Gauge, name, help_text, labels)

    def histogram(
        self, name: str, help_text: str = "", labels=(), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def render_prometheus(self) -> str:
        with self._lock:
            instruments = [
                self._instruments[name] for name in sorted(self._instruments)
            ]
        lines: list = []
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """``{metric_name: {label_value_tuple: value}}`` for counters/gauges."""
        with self._lock:
            instruments = list(self._instruments.values())
        out: dict = {}
        for instrument in instruments:
            if isinstance(instrument, Histogram):
                continue
            with self._lock:
                out[instrument.name] = dict(instrument._series)
        return out


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every layer publishes into."""
    return _DEFAULT_REGISTRY


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict:
    """Exposition text -> ``{name: {frozenset(label items): float}}``.

    The un-labelled series uses ``frozenset()`` as its key.  Enough of
    the format for our own output and for round-trip tests; not a
    general scraper.
    """
    samples: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            continue
        labels = {}
        if match.group("labels"):
            for label_match in _LABEL_RE.finditer(match.group("labels")):
                raw = label_match.group(2)
                labels[label_match.group(1)] = (
                    raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
                )
        raw_value = match.group("value")
        value = math.inf if raw_value == "+Inf" else float(raw_value)
        samples.setdefault(match.group("name"), {})[
            frozenset(labels.items())
        ] = value
    return samples


def phase_totals(registry: MetricsRegistry | None = None) -> dict:
    """``{phase: seconds}`` from ``repro_phase_seconds_total`` -- the
    always-on per-phase wall-time ledger the bench harness diffs
    around each cell to produce its rtc/evaluate/join/wal breakdown."""
    if registry is None:
        registry = get_registry()
    counter = registry.counter(
        "repro_phase_seconds_total",
        "Wall seconds spent per engine/storage phase.",
        labels=("phase",),
    )
    with counter._lock:
        return {key[0]: value for key, value in counter._series.items()}
