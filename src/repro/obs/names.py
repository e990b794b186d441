"""The canonical registry of observability names.

Every span name handed to ``tracer.begin``/``span``/``record`` or
:func:`~repro.obs.trace.ambient_span`, every metric name registered
with :class:`~repro.obs.metrics.MetricsRegistry`, and every ``phase``
label key must appear here.  ``repro lint`` (rule ``RPR501``) enforces
the contract statically: dashboards, ``repro trace``/``repro explain``
forensics, and :func:`~repro.obs.metrics.phase_totals` all key on these
exact strings, so a typo at an instrumentation site silently produces
an empty panel rather than an error.

Adding an instrumentation site means adding its name here first --
which is the point: the registry diff *is* the observability-surface
review.
"""

from __future__ import annotations

__all__ = ["SPAN_NAMES", "METRIC_NAMES", "PHASE_KEYS"]

#: Span names, grouped by the layer that begins them.
SPAN_NAMES = frozenset(
    {
        # server/service.py -- one request, its per-query children.
        "request",
        "query",
        "encode",
        # server/scheduler.py -- queue waits + evaluation.
        "admission_wait",
        "batch_wait",
        "evaluate",
        "update_drain",
        "update_apply",
        # db/session.py -- direct-session evaluation spans.
        "partial",
        # cluster/service.py -- router-side fan-out and joins.
        "shard",
        "shard_update",
        "join_round",
        "join_cache_hit",
        # storage -- durability work.
        "wal_append",
        "checkpoint",
        "snapshot",
        # engine phase children (the repro.core.timing PHASE_* keys,
        # recorded as retroactive children of the evaluate span; also
        # ResultSet.phase_times keys and ledger phases below).
        "rtc",
        "pre_join",
        "remainder",
    }
)

#: Metric names (the ``repro_*`` Prometheus-style families).
METRIC_NAMES = frozenset(
    {
        # server/metrics.py
        "repro_requests_total",
        "repro_request_latency_seconds",
        "repro_updates_total",
        "repro_batches_total",
        "repro_batched_queries_total",
        # the cross-layer per-phase wall-time ledger
        "repro_phase_seconds_total",
        # storage/wal.py + storage/recovery.py
        "repro_wal_appends_total",
        "repro_wal_last_lsn",
        "repro_checkpoints_total",
        # core/incremental.py -- cached RTCs an update touched, by outcome
        "repro_rtc_repairs_total",
        # cluster/service.py (router-side boundary joins)
        "repro_join_rounds_total",
        "repro_join_cache_hits_total",
    }
)

#: Values of the ``phase`` label on ``repro_phase_seconds_total``.
PHASE_KEYS = frozenset(
    {
        "rtc",
        "pre_join",
        "remainder",
        "evaluate",
        # db/resultset.py -- bitmap -> vertex-tuple decode of a result.
        "materialise",
        "update_apply",
        "join",
        "wal",
        "checkpoint",
    }
)
