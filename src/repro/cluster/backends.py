"""The two merges the cluster router needs across its shards.

A shard is one :class:`~repro.db.GraphDB` session behind one
:class:`~repro.server.SharingScheduler`, in the router's process, and
:class:`~repro.cluster.GraphCluster` drives that scheduler directly.
This module holds only what combines the shards' outputs: :func:`aggregate_scheduler_stats` (per-shard scheduler
statistics into one scheduler-shaped document) and
:func:`merge_futures` (per-shard futures into one, through an optional
combine step).
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import CancelledError, Future

from repro.server.metrics import latency_summary

__all__ = ["aggregate_scheduler_stats", "merge_futures"]

#: Scheduler counters summed verbatim when aggregating shard stats.
_COUNTER_KEYS = (
    "admitted",
    "rejected",
    "expired",
    "failed",
    "cancelled",
    "completed",
    "updates",
    "in_flight",
    "batches",
    "queue_depth",
    "workers",
)


def aggregate_scheduler_stats(stats_list: list[dict], latencies: list[float]) -> dict:
    """Scheduler-shaped aggregate of per-shard scheduler statistics.

    Counters sum; QPS sums (shards serve concurrently); the mean batch
    size is the batch-count-weighted mean; latency percentiles come from
    the *pooled* raw reservoirs, never from averaging per-shard
    percentiles.

    An empty ``stats_list`` aggregates to zeros with ``None`` latency
    quantiles rather than raising -- the same null-safety contract as
    an idle :meth:`~repro.server.metrics.ServerMetrics.snapshot`.
    """
    latency = latency_summary(latencies)
    if not stats_list:
        return {
            "uptime": 0.0,
            **{key: 0 for key in _COUNTER_KEYS},
            "qps": 0.0,
            "mean_batch_size": 0.0,
            "max_batch_size": 0,
            "latency": latency,
        }
    total = {
        key: sum(stats[key] for stats in stats_list) for key in _COUNTER_KEYS
    }
    batches = total["batches"]
    batched_queries = sum(
        stats["mean_batch_size"] * stats["batches"] for stats in stats_list
    )
    aggregate = {
        "uptime": max(stats["uptime"] for stats in stats_list),
        **total,
        "qps": sum(stats["qps"] for stats in stats_list),
        "mean_batch_size": batched_queries / batches if batches else 0.0,
        "max_batch_size": max(stats["max_batch_size"] for stats in stats_list),
        "latency": latency,
    }
    caches = [stats["cache"] for stats in stats_list if "cache" in stats]
    if caches:
        hits = sum(cache["hits"] for cache in caches)
        misses = sum(cache["misses"] for cache in caches)
        aggregate["cache"] = {
            "mode": caches[0]["mode"],
            "hits": hits,
            "misses": misses,
            "entries": sum(cache["entries"] for cache in caches),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
    return aggregate


def merge_futures(
    children: list[Future], combine: Callable[[list], object] | None = None
) -> Future:
    """One parent future resolving when every child has.

    The parent's result is ``combine`` applied to the children's
    results in ``children`` order (``None`` without ``combine``).  The
    first child error (or cancellation) -- or an error ``combine``
    raises -- becomes the parent's exception once all children are
    accounted for.  This is how the router merges one update's
    per-shard futures and one query's per-shard answers.
    """
    parent: Future = Future()
    if not children:
        parent.set_running_or_notify_cancel()
        parent.set_result(None if combine is None else combine([]))
        return parent
    lock = threading.Lock()
    state = {"done": 0, "error": None}

    def on_done(child: Future) -> None:
        try:
            child.result()
        except (CancelledError, Exception) as error:  # noqa: BLE001  # repro: noqa[RPR701] -- fan-in callback: the first failure is stashed and delivered through the merged future
            outcome: BaseException | None = error
        else:
            outcome = None
        with lock:
            if outcome is not None and state["error"] is None:
                state["error"] = outcome
            state["done"] += 1
            finished = state["done"] == len(children)
        if not finished:
            return
        if not parent.set_running_or_notify_cancel():
            return
        if state["error"] is not None:
            parent.set_exception(state["error"])
        elif combine is None:
            parent.set_result(None)
        else:
            try:
                result = combine([child.result() for child in children])
            except Exception as error:  # noqa: BLE001  # repro: noqa[RPR701] -- fan-in callback: a failed combine is delivered through the merged future
                parent.set_exception(error)
            else:
                parent.set_result(result)

    for child in children:
        child.add_done_callback(on_done)
    return parent

