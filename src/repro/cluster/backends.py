"""One shard of the cluster: a session and its scheduler, in the router's process.

The router (:class:`~repro.cluster.GraphCluster`) talks to one
:class:`Shard` object per shard.  A shard is exactly one
:class:`~repro.db.GraphDB` session behind one
:class:`~repro.server.SharingScheduler`: the shard's graph exists once,
its reduced transitive closures are built once per closure body and
shared by every batch unit that names them, and every update is applied
once.  The surface is small -- ``query`` / ``update`` / ``watch`` /
``reaches`` / ``checkpoint`` / ``stats`` / ``drain`` / ``close`` -- and
the query's shared :class:`~repro.core.plan.Plan` travels with it, so
the scheduler batches on the same object the router routed on.  The
boundary join's shard summaries are not a shard verb: the router calls
:meth:`GraphDB.summarise <repro.db.GraphDB.summarise>` on ``db``
directly, on its join thread.

The module also holds the two merges the router needs across shards:
:func:`aggregate_scheduler_stats` (per-shard scheduler statistics into
one scheduler-shaped document) and :func:`merge_futures` (per-shard
futures into one, through an optional combine step).
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import CancelledError, Future

from repro.core.plan import Plan
from repro.db.session import GraphDB
from repro.errors import ClusterError
from repro.graph.multigraph import LabeledMultigraph
from repro.server.metrics import percentile
from repro.server.scheduler import SharingScheduler

__all__ = ["Shard", "aggregate_scheduler_stats", "merge_futures"]

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
    latency = {
        "window": len(latencies),
        "mean": sum(latencies) / len(latencies) if latencies else None,
        "p50": percentile(latencies, 0.50),
        "p95": percentile(latencies, 0.95),
        "p99": percentile(latencies, 0.99),
    }
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


class Shard:
    """One shard: a :class:`~repro.db.GraphDB` behind a
    :class:`~repro.server.SharingScheduler`, in the router's process.

    ``db`` and ``scheduler`` are public (tests and diagnostics read the
    shard's graph, caches and counters through them).  With
    ``storage_dir`` the session owns the shard's WAL, snapshots and RTC
    store; when the directory holds committed state the seed ``graph``
    is ignored and the shard serves the recovered graph from its first
    request.
    """

    def __init__(
        self,
        shard_id: int,
        graph: LabeledMultigraph | None,
        engine: str = "rtc",
        workers: int = 2,
        max_queue: int = 256,
        batch_window: float = 0.005,
        max_batch: int = 64,
        engine_kwargs: dict | None = None,
        storage_dir: str | None = None,
        checkpoint_every: int | None = None,
        start: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.engine_name = engine.lower()
        self._storage = None
        if storage_dir is not None:
            from repro.storage.recovery import ShardStorage

            self._storage = ShardStorage(storage_dir)
            if self._storage.has_state():
                graph = self._storage.recover().graph
        if graph is None:
            raise ClusterError(
                "a shard needs a graph or a storage_dir holding "
                "recoverable state",
                code="cluster.topology",
                shards=(shard_id,),
            )
        self.db = GraphDB.open(
            graph,
            engine=engine,
            storage=self._storage,
            checkpoint_every=checkpoint_every,
            **(engine_kwargs or {}),
        )
        self.scheduler = SharingScheduler(
            self.db,
            workers=workers,
            max_queue=max_queue,
            batch_window=batch_window,
            max_batch=max_batch,
            start=False,
        )
        self._started = False
        self._closed = False
        if start:
            self.start()

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        if self._started or self._closed:
            return
        self._started = True
        self.scheduler.start()

    def close(self) -> None:
        """Stop serving and close the session (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.stop()
        self.db.close()

    def drain(self) -> None:
        """Wait until currently admitted work has finished."""
        self.scheduler.drain()

    # -- serving ----------------------------------------------------------
    def query(
        self,
        text: str,
        plan: Plan | None = None,
        *,
        timeout: float | None = None,
        trace: tuple | None = None,
    ) -> Future:
        """Admit one query; future of ``(pairs, engine_elapsed)``.

        ``trace`` is the router's ``(tracer, parent_span_id)`` when the
        request is traced; the scheduler records its spans under it.
        """
        return self.scheduler.submit(text, plan, timeout=timeout, trace=trace)

    def update(self, add=(), remove=(), trace: tuple | None = None) -> Future:
        """Admit one edge change drain-then-apply; future of ``None``.

        Admission blocks for a queue slot instead of rejecting: the
        router has already committed the update's routing state, so
        every owning shard must take its slice.
        """
        return self.scheduler.submit_update(
            add=add, remove=remove, block=True, trace=trace
        )

    def watch(self, body: str) -> None:
        """Watch (pin the maintained RTC of) ``body`` on this shard."""
        self.db.watch(body)

    def reaches(self, body: str, source: object, target: object) -> bool:
        """One streaming reachability probe against this shard."""
        return self.db.reaches(body, source, target)

    def checkpoint(self) -> dict:
        """Commit this shard's durable checkpoint (snapshot + RTC store).

        Drains first, so the snapshot reflects every acked update.
        Raises :class:`~repro.errors.ClusterError`
        (``cluster.unsupported``) on a shard without storage.
        """
        if self._storage is None:
            raise ClusterError(
                f"shard {self.shard_id} has no storage attached",
                code="cluster.unsupported",
                shards=(self.shard_id,),
            )
        self.drain()
        return self.db.checkpoint()

    def edge_count(self) -> int:
        """Live edge count, for smallest-shard routing."""
        return self.db.graph.num_edges

    def stats(self) -> dict:
        """The shard document the router aggregates.

        ``graph`` holds live counts, ``scheduler`` and ``session`` the
        two components' own statistics, ``latency_values`` the raw
        latency reservoir (so cluster-wide percentiles pool values), and
        ``storage`` -- on durable shards -- the recovery/LSN state.
        """
        graph = self.db.graph
        session = self.db.stats()
        document = {
            "shard": self.shard_id,
            "graph": {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "labels": graph.num_labels,
            },
            "scheduler": self.scheduler.stats(),
            "session": session,
            "latency_values": self.scheduler.metrics.latency_values(),
        }
        if "storage" in session:
            document["storage"] = session["storage"]
        return document

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "running" if self._started else "created"
        )
        return f"Shard(shard={self.shard_id}, {state})"
