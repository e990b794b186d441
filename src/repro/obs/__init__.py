"""``repro.obs`` -- stdlib-only observability for the serving stack.

Three legs, one package:

* :mod:`repro.obs.trace` -- distributed tracing.  A :class:`Span` tree
  per request, asked for through the wire protocol's optional ``trace``
  field and carried from the router into every shard it fans out to, with an
  *ambient* (thread-local) activation so deep layers -- the WAL, the
  checkpointer -- can record spans without threading handles through
  every signature.  Zero-cost when off: no active tracer means no span
  objects are allocated anywhere.
* :mod:`repro.obs.metrics` -- a process-local :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms) every layer publishes
  into, rendered in Prometheus text exposition format by the ``metrics``
  wire verb and ``repro stats --connect --prometheus``.
* :mod:`repro.obs.names` -- the declared registry of span, metric, and
  phase names all of the above draw from, enforced statically by
  ``repro lint`` (rule ``RPR501``).
* :mod:`repro.obs.slowlog` -- router-side slow-query forensics: completed
  trace trees (plus the query's ``explain()`` plan, when the serving
  session has one) appended as JSONL whenever a request exceeds a
  configured threshold; rendered by ``repro trace``.
"""

from repro.obs.names import METRIC_NAMES, PHASE_KEYS, SPAN_NAMES
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
    parse_prometheus,
    phase_totals,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    Span,
    Tracer,
    activate,
    ambient_span,
    build_tree,
    current,
    render_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_NAMES",
    "MetricsRegistry",
    "PHASE_KEYS",
    "SPAN_NAMES",
    "get_registry",
    "parse_prometheus",
    "phase_totals",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "activate",
    "ambient_span",
    "build_tree",
    "current",
    "render_trace",
]
