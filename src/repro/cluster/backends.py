"""Transport-agnostic shard backends: the layer between router and shard.

The cluster's router (:class:`~repro.cluster.GraphCluster`) does not talk
to sessions or sockets directly any more -- it talks to one
:class:`ShardBackend` per shard, a small transport-agnostic surface
(``query`` / ``summary`` / ``update`` / ``stats`` / ``drain`` /
``close``) with two implementations:

:class:`InProcessBackend`
    The PR-4 deployment, behaviour-preserving: R replicated
    :class:`~repro.db.GraphDB` sessions, each behind its own
    :class:`~repro.server.SharingScheduler`, living in the router's
    process.  Queries pick a replica body-affinely (the query's
    canonical closure-body key hashes to one replica, so each replica's
    RTC cache serves a stable subset of bodies), closure-free queries go
    least-loaded, and updates broadcast drain-then-apply to every
    replica with blocking admission so the copies never diverge.  The
    key and the boundary-join automaton are read off the query's shared
    :class:`~repro.core.plan.Plan` -- the same object the router routed
    on and the replica schedulers batch and evaluate -- so no backend
    keeps a memo of its own.

:class:`ProcessBackend`
    The same shard served from a separate OS process: the backend spawns
    one worker (:mod:`repro.cluster.worker`) hosting an
    :class:`InProcessBackend` behind a JSON-lines
    :class:`~repro.server.QueryServer`, ships the shard graph to it as
    one :mod:`repro.storage.snapshot` document (vertex table plus id
    rows, the snapshot format), and fans requests out through a pooled
    :class:`~repro.server.ClientPool`.  CPU-bound evaluation then runs
    on the worker's cores, outside the router's GIL -- the piece that
    turns the cluster's scaling story from update isolation into true
    multi-core scale-out.

Both backends expose identical semantics; the identity suite in
``tests/cluster/test_backends.py`` gates them against each other and
against a single session.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import zlib
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.boundary import summary_from_wire
from repro.core.plan import Plan, plan_for
from repro.db.session import GraphDB
from repro.errors import AdmissionError, ClusterError, ServerError
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import activate, get_registry
from repro.server.metrics import percentile
from repro.server.scheduler import SharingScheduler

__all__ = [
    "ShardBackend",
    "ShardReplica",
    "InProcessBackend",
    "ProcessBackend",
    "aggregate_scheduler_stats",
    "merge_futures",
]

#: When set, process workers without an explicit log path log into this
#: directory (one file per spawn) -- CI exports it and uploads the
#: directory as an artifact on failure.
_ENV_LOG_DIR = "REPRO_CLUSTER_LOG_DIR"


_log_sequence = itertools.count()


def _default_log_path(shard_id: int) -> str | None:
    directory = os.environ.get(_ENV_LOG_DIR)
    if not directory:
        return None
    Path(directory).mkdir(parents=True, exist_ok=True)
    sequence = next(_log_sequence)
    return str(
        Path(directory) / f"shard{shard_id}-{os.getpid()}-{sequence}.log"
    )

#: Scheduler counters summed verbatim when aggregating replica stats.
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


@dataclass
class ShardReplica:
    """One replica: its own session, scheduler, and load counter."""

    shard_id: int
    replica_id: int
    db: GraphDB
    scheduler: SharingScheduler
    in_flight: int = 0

    @property
    def name(self) -> str:
        return f"shard{self.shard_id}/replica{self.replica_id}"


def aggregate_scheduler_stats(stats_list: list[dict], latencies: list[float]) -> dict:
    """Scheduler-shaped aggregate of per-replica scheduler statistics.

    Counters sum; QPS sums (replicas serve concurrently); the mean batch
    size is the batch-count-weighted mean; latency percentiles come from
    the *pooled* raw reservoirs, never from averaging per-replica
    percentiles.  Shared by the router's cluster-wide ``stats`` and the
    shard workers' per-shard ``stats`` verb.

    An empty ``stats_list`` (a backend probed before any replica came
    up) aggregates to zeros with ``None`` latency quantiles rather than
    raising -- the same null-safety contract as an idle
    :meth:`~repro.server.metrics.ServerMetrics.snapshot`.
    """
    if not stats_list:
        return {
            "uptime": 0.0,
            **{key: 0 for key in _COUNTER_KEYS},
            "qps": 0.0,
            "mean_batch_size": 0.0,
            "max_batch_size": 0,
            "latency": {
                "window": len(latencies),
                "mean": sum(latencies) / len(latencies) if latencies else None,
                "p50": percentile(latencies, 0.50),
                "p95": percentile(latencies, 0.95),
                "p99": percentile(latencies, 0.99),
            },
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
        "latency": {
            "window": len(latencies),
            "mean": sum(latencies) / len(latencies) if latencies else None,
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
        },
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


def merge_futures(children: list[Future]) -> Future:
    """One parent future resolving when every child has (None result).

    The first child error (or cancellation) becomes the parent's
    exception once all children are accounted for -- the update-broadcast
    merge shape shared by backends and router.
    """
    parent: Future = Future()
    if not children:
        parent.set_running_or_notify_cancel()
        parent.set_result(None)
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
        else:
            parent.set_result(None)

    for child in children:
        child.add_done_callback(on_done)
    return parent


class ShardBackend:
    """The transport-agnostic surface one shard presents to the router.

    ``query``/``update`` admit work and return
    :class:`concurrent.futures.Future` objects; ``stats`` returns the
    structured shard document (per-replica scheduler/session stats,
    pooled latency values, live graph counts) the router aggregates;
    ``drain`` waits for in-flight work; ``close`` releases everything.
    ``start`` may be deferred (``wait_ready`` blocks until the shard
    actually serves -- meaningful for process workers that boot
    asynchronously).
    """

    shard_id: int

    def start(self) -> None:
        raise NotImplementedError

    def wait_ready(self, timeout: float | None = None) -> None:
        """Block until the shard serves (default: started == ready)."""

    def query(
        self,
        text: str,
        plan: Plan | None = None,
        *,
        timeout: float | None = None,
        want_pairs: bool = True,
        trace: tuple | None = None,
    ) -> Future:
        """Admit one query; future of ``(pairs, engine_elapsed)``.

        ``plan`` is the text's shared plan when the caller holds it.
        ``want_pairs=False`` lets a remote backend answer with a bare
        count instead of a pair-set (in-process backends may keep
        returning the set -- it is free); the router's merge accepts
        both.  ``trace`` is the router's ``(tracer, parent_span_id)``
        when the request is traced: in-process backends record straight
        into the tracer, process backends propagate the trace over the
        wire and absorb the worker's span subtree into it.
        """
        raise NotImplementedError

    def summary(
        self,
        text: str,
        plan: Plan | None = None,
        *,
        boundary,
        entries=(),
        timeout: float | None = None,
        trace: tuple | None = None,
    ) -> Future:
        """Admit one shard summary (edge-cut path).

        Future of ``(summary, elapsed)``: the
        :class:`~repro.rpq.partial.ShardSummary` of the shard's own
        candidate starts plus the router-planned ``entries`` it owns --
        which exits on ``boundary`` and which accepted ends each reaches
        locally -- and the shard's evaluation time.  One call per shard
        per join; see :func:`repro.rpq.partial.summarise_shard`.
        """
        raise NotImplementedError

    def update(self, add=(), remove=(), trace: tuple | None = None) -> Future:
        """Admit an edge change to every replica; future of ``None``."""
        raise NotImplementedError

    def metrics_text(self) -> str:
        """This shard's metrics registry in Prometheus text format.

        In-process shards share the router's registry; process shards
        fetch the worker's registry over the ``metrics`` wire verb.
        """
        raise NotImplementedError

    def watch(self, body: str) -> None:
        """Watch (pin the maintained RTC of) ``body`` on every replica."""
        raise NotImplementedError

    def reaches(self, body: str, source: object, target: object) -> bool:
        """One streaming reachability probe against this shard."""
        raise NotImplementedError

    @property
    def shard_graph(self):
        """The live shard multigraph when co-located, else ``None``.

        The router's cut-relevant ``reaches`` fast path sweeps its
        bitmap adjacency rows as a reachability prefilter; process
        shards (graph in another address space) return ``None`` and the
        router skips the prefilter rather than round-tripping.
        """
        return None

    def stats(self) -> dict:
        """The structured shard document (see class docstring)."""
        raise NotImplementedError

    def checkpoint(self) -> dict:
        """Commit this shard's durable checkpoint (snapshot + RTC store).

        Only meaningful on storage-backed shards; others raise
        :class:`~repro.errors.ClusterError` (``cluster.unsupported``).
        """
        raise NotImplementedError

    def edge_count(self) -> int:
        """Live (or best-effort) edge count, for smallest-shard routing."""
        raise NotImplementedError

    def drain(self) -> None:
        """Wait until currently admitted work has finished."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop serving and release sessions/processes (idempotent)."""
        raise NotImplementedError


class InProcessBackend(ShardBackend):
    """One shard's replica group living in the router's process.

    Also doubles as the scheduler *and* session surface of a
    :class:`~repro.server.QueryServer` (``submit`` / ``submit_update`` /
    ``scheduler_stats`` / ``watch`` / ``reaches``), which is exactly how
    the process-mode worker serves it over the wire
    (:class:`~repro.cluster.worker.ShardWorkerServer`).
    """

    def __init__(
        self,
        shard_id: int,
        graph: LabeledMultigraph | None,
        engine: str = "rtc",
        replicas: int = 1,
        workers: int = 2,
        max_queue: int = 256,
        batch_window: float = 0.005,
        max_batch: int = 64,
        engine_kwargs: dict | None = None,
        storage_dir: str | None = None,
        checkpoint_every: int | None = None,
        start: bool = False,
    ) -> None:
        if replicas < 1:
            raise ClusterError(
                f"replicas must be >= 1, got {replicas}",
                code="cluster.topology",
            )
        self.shard_id = shard_id
        self.engine_name = engine.lower()
        # Durable shards: the primary replica's session owns the shard's
        # WAL + snapshots; recovery (when the directory holds state)
        # replaces the seed graph *before* any replica is built, so a
        # restarted shard serves the recovered graph from its first
        # request.  Sibling replicas are warmed from the same RTC store.
        self._storage = None
        if storage_dir is not None:
            from repro.storage.recovery import ShardStorage

            self._storage = ShardStorage(storage_dir)
            if self._storage.has_state():
                graph = self._storage.recover().graph
        if graph is None:
            raise ClusterError(
                "InProcessBackend needs a shard graph or a storage_dir "
                "holding recoverable state",
                code="cluster.topology",
                shards=(shard_id,),
            )
        self.replicas: list[ShardReplica] = []
        for replica_id in range(replicas):
            replica_graph = graph if replica_id == 0 else graph.copy()
            db = GraphDB.open(
                replica_graph,
                engine=engine,
                storage=self._storage if replica_id == 0 else None,
                checkpoint_every=checkpoint_every if replica_id == 0 else None,
                **(engine_kwargs or {}),
            )
            if self._storage is not None and replica_id > 0:
                self._storage.install(db)
            scheduler = SharingScheduler(
                db,
                workers=workers,
                max_queue=max_queue,
                batch_window=batch_window,
                max_batch=max_batch,
                start=False,
            )
            self.replicas.append(ShardReplica(shard_id, replica_id, db, scheduler))
        #: The live shared cache's mode: replica affinity hashes the
        #: plan's group key of this mode, so it cannot disagree with how
        #: the caches key (the router routes by the same mode).
        self.cache_mode = self.replicas[0].scheduler.cache_mode
        self._lock = threading.Lock()  # in_flight counters + executor
        # Replica-consistent update ordering: concurrent updates reach
        # every replica queue in one global order, so the copies of this
        # shard's graph never diverge.
        self._update_lock = threading.Lock()
        self._summary_executor: ThreadPoolExecutor | None = None
        self._started = False
        self._closed = False
        if start:
            self.start()

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        if self._started or self._closed:
            return
        self._started = True
        for replica in self.replicas:
            replica.scheduler.start()

    # ``stop`` aliases ``close`` so the backend satisfies QueryServer's
    # scheduler surface (the worker front end calls scheduler.stop()).
    def stop(self) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Swap the executor out under the lock (its lazy creation in
        # ``summary`` races with close), but shut it down outside --
        # in-flight summaries release their replica under self._lock.
        with self._lock:
            executor, self._summary_executor = self._summary_executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        for replica in self.replicas:
            replica.scheduler.stop()
        for replica in self.replicas:
            replica.db.close()

    def drain(self) -> None:
        for replica in self.replicas:
            replica.scheduler.drain()

    # -- routing ----------------------------------------------------------
    def _pick_replica(self, key: str) -> ShardReplica:
        """Body-affine replica choice; least-loaded for closure-free keys."""
        group = self.replicas
        if len(group) == 1:
            return group[0]
        if key:
            # crc32 keeps the body -> replica mapping stable across runs
            # (hash() is seed-randomised), so a body's RTC lives on one
            # replica per shard and its cache stays hot.
            return group[zlib.crc32(key.encode("utf-8")) % len(group)]
        with self._lock:
            return min(group, key=lambda replica: replica.in_flight)

    def _release(self, replica: ShardReplica) -> None:
        with self._lock:
            replica.in_flight -= 1

    # -- backend surface --------------------------------------------------
    def query(
        self,
        text: str,
        plan: Plan | None = None,
        *,
        timeout: float | None = None,
        want_pairs: bool = True,
        trace: tuple | None = None,
    ) -> Future:
        # want_pairs is a wire-cost hint; in-process pair-sets travel by
        # reference, so the set is returned either way.
        plan = plan_for(text if plan is None else plan)
        replica = self._pick_replica(plan.group_key(self.cache_mode))
        future = replica.scheduler.submit(text, plan, timeout=timeout, trace=trace)
        with self._lock:
            replica.in_flight += 1
        future.add_done_callback(
            lambda _future, replica=replica: self._release(replica)
        )
        return future

    def summary(
        self,
        text: str,
        plan: Plan | None = None,
        *,
        boundary,
        entries=(),
        timeout: float | None = None,
        trace: tuple | None = None,
    ) -> Future:
        # Summaries bypass the scheduler (it batches whole planned
        # queries, not tagged automaton traversals) and run on a small
        # backend executor instead; the session lock inside
        # ``GraphDB.summarise`` still serialises them against updates.
        if self._closed:
            raise ProcessBackend._closed_error()
        _labels, _nullable, nfa = plan_for(text if plan is None else plan).route()
        boundary = frozenset(boundary)
        entries = tuple(entries)
        with self._lock:
            if self._summary_executor is None:
                self._summary_executor = ThreadPoolExecutor(
                    max_workers=max(2, len(self.replicas)),
                    thread_name_prefix=f"repro-summary{self.shard_id}",
                )
            executor = self._summary_executor
        replica = self._pick_replica("")

        def evaluate():
            started = time.perf_counter()
            # The session's ``partial`` ambient span records into the
            # router's tracer under the join-round span.
            with activate(*trace) if trace is not None else nullcontext():
                summary = replica.db.summarise(nfa, boundary, entries)
            return summary, time.perf_counter() - started

        future = executor.submit(evaluate)
        with self._lock:
            replica.in_flight += 1
        future.add_done_callback(
            lambda _future, replica=replica: self._release(replica)
        )
        return future

    def update(self, add=(), remove=(), trace: tuple | None = None) -> Future:
        """Broadcast one edge change drain-then-apply to every replica.

        Admission is blocking on every replica queue (a half-accepted
        update would leave the copies diverged), and the update lock
        pins one global ordering across concurrent updates.  A traced
        update records each replica's drain/apply spans under the same
        parent (one subtree per replica).
        """
        with self._update_lock:
            children = [
                replica.scheduler.submit_update(
                    add=add, remove=remove, block=True, trace=trace
                )
                for replica in self.replicas
            ]
        return merge_futures(children)

    def watch(self, body: str) -> None:
        for replica in self.replicas:
            replica.db.watch(body)

    def reaches(self, body: str, source: object, target: object) -> bool:
        return self.replicas[0].db.reaches(body, source, target)

    @property
    def shard_graph(self):
        """The primary replica's live multigraph (co-located, shareable)."""
        return self.replicas[0].db.graph

    def checkpoint(self) -> dict:
        """Commit a shard checkpoint covering every replica's warm state.

        Drains first (so the snapshot reflects every acked update), then
        checkpoints the primary session with the sibling replicas as
        extra sources -- body-affine picking spreads the cached closures
        across replicas, and the merged store warms *all* of them on the
        next start.
        """
        if self._storage is None:
            raise ClusterError(
                f"shard {self.shard_id} has no storage attached",
                code="cluster.unsupported",
                shards=(self.shard_id,),
            )
        self.drain()
        primary = self.replicas[0]
        return primary.db.checkpoint(
            extra_sessions=[replica.db for replica in self.replicas[1:]]
        )

    def edge_count(self) -> int:
        return self.replicas[0].db.graph.num_edges

    def stats(self) -> dict:
        graph = self.replicas[0].db.graph
        latencies: list[float] = []
        replicas = []
        for replica in self.replicas:
            latencies.extend(replica.scheduler.metrics.latency_values())
            replicas.append(
                {
                    "replica": replica.replica_id,
                    "scheduler": replica.scheduler.stats(),
                    "session": replica.db.stats(),
                }
            )
        document = {
            "shard": self.shard_id,
            "backend": "thread",
            "graph": {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "labels": graph.num_labels,
            },
            "replicas": replicas,
            "latency_values": latencies,
        }
        # Recovery/LSN info for the ``stats`` verb; the authoritative
        # copy lives in the primary session's stats, surfaced here so
        # routers and operators need not dig through the replica list.
        primary_session = replicas[0]["session"]
        if "storage" in primary_session:
            document["storage"] = primary_session["storage"]
        return document

    def metrics_text(self) -> str:
        """In-process shards publish into the process-wide registry."""
        return get_registry().render_prometheus()

    # -- QueryServer scheduler surface (the worker front end) -------------
    def submit(
        self,
        text: str,
        plan: Plan | None = None,
        timeout: float | None = None,
        trace: tuple | None = None,
    ) -> Future:
        return self.query(text, plan, timeout=timeout, trace=trace)

    def submit_update(self, add=(), remove=(), trace: tuple | None = None) -> Future:
        return self.update(add=add, remove=remove, trace=trace)

    def scheduler_stats(self) -> dict:
        """Aggregated scheduler-shaped stats (the worker's ``stats`` verb)."""
        doc = self.stats()
        return aggregate_scheduler_stats(
            [replica["scheduler"] for replica in doc["replicas"]],
            doc["latency_values"],
        )

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "running" if self._started else "created"
        )
        return (
            f"InProcessBackend(shard={self.shard_id}, "
            f"replicas={len(self.replicas)}, {state})"
        )


class ProcessBackend(ShardBackend):
    """One shard served by a dedicated worker process.

    ``start`` writes the shard graph to a temporary
    :mod:`repro.storage.snapshot` document, spawns
    :func:`repro.cluster.worker.worker_main` in a fresh ``spawn``
    process, and records the ephemeral address the worker reports back.
    Requests then travel over the ordinary JSON-lines protocol through a
    :class:`~repro.server.ClientPool` -- queries on a small thread pool
    (one thread per pooled connection, so a lease never blocks), updates
    on a dedicated single-threaded lane whose one connection preserves
    the router's update admission order end to end.

    Admission control mirrors the thread backend: beyond
    ``max_queue + pool_size`` requests in flight toward the worker, new
    queries are rejected locally with
    :class:`~repro.errors.AdmissionError` instead of queueing without
    bound.  Updates are never rejected (replica copies must converge),
    only serialised.

    ``close`` is graceful: pending work drains, the pool closes, the
    worker gets ``SIGTERM`` (its server shuts down cleanly, see
    :meth:`~repro.server.QueryServer.run`), and only an unresponsive
    worker is killed.
    """

    #: Seconds to wait for the worker to report its bound address.
    ready_timeout = 60.0
    #: Seconds to wait after SIGTERM before killing the worker.
    terminate_timeout = 10.0

    def __init__(
        self,
        shard_id: int,
        graph: LabeledMultigraph | None,
        engine: str = "rtc",
        replicas: int = 1,
        workers: int = 2,
        max_queue: int = 256,
        batch_window: float = 0.005,
        max_batch: int = 64,
        engine_kwargs: dict | None = None,
        pool_size: int = 8,
        log_path: str | None = None,
        data_dir: str | None = None,
        checkpoint_every: int | None = None,
        start: bool = False,
    ) -> None:
        if graph is None and data_dir is None:
            raise ClusterError(
                "ProcessBackend needs a shard graph to ship or a data_dir "
                "holding recoverable state",
                code="cluster.unsupported",
                shards=(shard_id,),
            )
        self.shard_id = shard_id
        self.engine_name = engine.lower()
        self._graph = graph
        self._spec_kwargs = {
            "engine": engine,
            "replicas": replicas,
            "workers": workers,
            "max_queue": max_queue,
            "batch_window": batch_window,
            "max_batch": max_batch,
            "engine_kwargs": dict(engine_kwargs or {}),
            "data_dir": data_dir,
            "checkpoint_every": checkpoint_every,
        }
        self._pool_size = max(1, pool_size)
        self._max_pending = max_queue + self._pool_size
        self._log_path = (
            log_path if log_path is not None else _default_log_path(shard_id)
        )
        self._pending = 0
        self._rejected = 0  # local admission rejections (stats parity)
        self._lock = threading.Lock()
        self._ready_lock = threading.Lock()  # serialises spawn/wait_ready
        self._process = None
        self._ready_conn = None
        self._graph_path: str | None = None
        self._address: tuple[str, int] | None = None
        self._pool = None
        self._executor: ThreadPoolExecutor | None = None
        self._update_executor: ThreadPoolExecutor | None = None
        self._update_client = None
        # Best-effort live edge count: seeded from the shipped graph,
        # adjusted as updates succeed (the authoritative graph lives in
        # the worker; a wire round trip per routing decision would be
        # absurd, and smallest-shard placement only needs a heuristic).
        self._edge_estimate = graph.num_edges if graph is not None else 0
        self._closed = False
        if start:
            self.start()
            self.wait_ready()

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker (non-blocking; pair with :meth:`wait_ready`).

        Not itself thread-safe -- call from one thread (the router's
        ``start``), or rely on :meth:`wait_ready`, which serialises the
        spawn internally.
        """
        if self._process is not None or self._closed:
            return
        import multiprocessing
        import tempfile

        from repro.cluster.worker import WorkerSpec, worker_main
        from repro.storage.snapshot import dump_graph

        # A restart against a data dir with committed state needs no
        # graph handoff at all: the worker recovers from disk.  The seed
        # document is written only for the first (empty-directory) spawn.
        recovering = False
        if self._spec_kwargs.get("data_dir") is not None:
            from repro.storage.recovery import has_state

            recovering = has_state(self._spec_kwargs["data_dir"])
        if self._graph is not None and not recovering:
            handle, path = tempfile.mkstemp(
                prefix=f"repro-shard{self.shard_id}-", suffix=".json"
            )
            os.close(handle)
            self._graph_path = path
            try:
                dump_graph(self._graph, path)
            except BaseException:
                os.unlink(path)
                self._graph_path = None
                raise
        spec = WorkerSpec(
            shard_id=self.shard_id,
            graph_path=self._graph_path,
            log_path=self._log_path,
            **self._spec_kwargs,
        )
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe(duplex=False)
        self._ready_conn = parent_conn
        self._process = context.Process(
            target=worker_main,
            args=(spec, child_conn),
            name=f"repro-shard{self.shard_id}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def wait_ready(self, timeout: float | None = None) -> None:
        """Block until the worker reports its bound address (or fail).

        Safe to call from several threads; the first caller consumes the
        ready pipe, later ones return as soon as the address is known.
        """
        with self._ready_lock:
            self._wait_ready_locked(timeout)

    def _wait_ready_locked(self, timeout: float | None) -> None:
        if self._address is not None or self._closed:
            return
        if self._process is None:
            self.start()
        timeout = self.ready_timeout if timeout is None else timeout
        failure: str | None = None
        if not self._ready_conn.poll(timeout):
            failure = f"no ready message within {timeout}s"
        else:
            try:
                message = self._ready_conn.recv()
            except (EOFError, OSError):
                failure = "worker exited before reporting an address"
            else:
                if message[0] == "ready":
                    _tag, host, port = message
                    self._address = (host, port)
                else:
                    failure = message[1]
        self._ready_conn.close()
        self._ready_conn = None
        if failure is not None:
            self.close()
            raise ClusterError(
                f"shard {self.shard_id} worker failed to start: {failure}"
                + (f" (worker log: {self._log_path})" if self._log_path else ""),
                code="cluster.worker_start",
                shards=(self.shard_id,),
            )
        from repro.server.pool import ClientPool

        self._pool = ClientPool(*self._address, size=self._pool_size)
        self._executor = ThreadPoolExecutor(
            max_workers=self._pool_size,
            thread_name_prefix=f"repro-shard{self.shard_id}",
        )
        self._update_executor = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"repro-shard{self.shard_id}-upd",
        )

    @property
    def address(self) -> tuple[str, int]:
        """The worker's ``(host, port)`` (after :meth:`wait_ready`)."""
        if self._address is None:
            raise ClusterError(
                f"shard {self.shard_id} worker is not ready",
                code="cluster.worker_start",
                shards=(self.shard_id,),
            )
        return self._address

    @property
    def pid(self) -> int | None:
        return self._process.pid if self._process is not None else None

    def _ensure_ready(self) -> None:
        if self._closed:
            raise self._closed_error()
        if self._address is None:
            self.wait_ready()

    @staticmethod
    def _closed_error() -> ServerError:
        error = ServerError("shard backend is closed")
        error.code = "closed"
        return error

    # -- backend surface --------------------------------------------------
    def query(
        self,
        text: str,
        plan: Plan | None = None,
        *,
        timeout: float | None = None,
        want_pairs: bool = True,
        trace: tuple | None = None,
    ) -> Future:
        # ``plan`` lives in the router's process; the worker plans the
        # text from its own plan cache (a hit in the serving steady
        # state).
        return self._admit(self._remote_query, text, timeout, want_pairs, trace)

    def _admit(self, call, *args) -> Future:
        """Run one remote read on the pool, under the local admission bound."""
        self._ensure_ready()
        with self._lock:
            if self._pending >= self._max_pending:
                self._rejected += 1
                raise AdmissionError(queue_depth=self._pending)
            self._pending += 1
        try:
            future = self._executor.submit(call, *args)
        except BaseException:
            with self._lock:
                self._pending -= 1
            raise
        future.add_done_callback(self._release_pending)
        return future

    def _release_pending(self, _future: Future) -> None:
        with self._lock:
            self._pending -= 1

    @staticmethod
    def _wire_trace(trace: tuple | None) -> dict | None:
        """The propagated form of a router trace: ``{"id", "parent"}``."""
        if trace is None:
            return None
        tracer, parent = trace
        wire = {"id": tracer.trace_id}
        if parent is not None:
            wire["parent"] = parent
        return wire

    @staticmethod
    def _absorb_trace(trace: tuple | None, response: dict) -> None:
        """Stitch the worker's span subtree into the router's tracer."""
        if trace is None:
            return
        remote = response.get("trace")
        if isinstance(remote, dict):
            trace[0].absorb(remote.get("spans") or ())

    def _remote_query(
        self,
        text: str,
        timeout: float | None,
        want_pairs: bool,
        trace: tuple | None = None,
    ):
        with self._pool.lease() as client:
            results, response = client.query_call(
                [text],
                timeout=timeout,
                pairs=want_pairs,
                trace=self._wire_trace(trace),
            )
        self._absorb_trace(trace, response)
        result = results[0]
        # Counts-only answers carry no pair-set; the router's merge
        # sums the counts (shard answers are component-disjoint).
        payload = result.pairs if want_pairs else result.count
        return payload, result.time

    def summary(
        self,
        text: str,
        plan: Plan | None = None,
        *,
        boundary,
        entries=(),
        timeout: float | None = None,
        trace: tuple | None = None,
    ) -> Future:
        payload = {
            "query": text,
            "mode": "summary",
            "boundary": sorted(boundary, key=str),
            "entries": [list(entry) for entry in entries],
        }
        if timeout is not None:
            payload["timeout"] = timeout
        # Same local admission as ``query``: summaries compete for the
        # same worker capacity.
        return self._admit(self._remote_summary, payload, trace)

    def _remote_summary(self, payload: dict, trace: tuple | None = None):
        wire_trace = self._wire_trace(trace)
        if wire_trace is not None:
            payload["trace"] = wire_trace
        with self._pool.lease() as client:
            response = client.call("query", **payload)
        self._absorb_trace(trace, response)
        wire = response["summary"]
        return summary_from_wire(wire), wire["time"]

    def update(self, add=(), remove=(), trace: tuple | None = None) -> Future:
        """One edge change through the single-connection update lane.

        The dedicated lane (one thread, one connection) makes the wire
        order equal the call order, so the router's update lock keeps
        its cross-replica ordering guarantee across the process hop.
        """
        self._ensure_ready()
        add = [list(edge) for edge in add]
        remove = [list(edge) for edge in remove]
        wire_trace = self._wire_trace(trace)

        def apply() -> None:
            client = self._lease_update_client()
            response = client.update(add=add, remove=remove, trace=wire_trace)
            self._absorb_trace(trace, response)
            with self._lock:
                self._edge_estimate += len(add) - len(remove)

        # Updates join the pending accounting (so drain() waits for the
        # update lane too) but are exempt from the admission bound:
        # rejecting an update could leave replica copies diverged.
        with self._lock:
            self._pending += 1
        try:
            future = self._update_executor.submit(apply)
        except BaseException:
            with self._lock:
                self._pending -= 1
            raise
        future.add_done_callback(self._release_pending)
        return future

    def _lease_update_client(self):
        """The lane's long-lived client, redialled after poisoning."""
        from repro.server.client import Client

        client = self._update_client
        if client is None or client.broken or client.closed:
            if client is not None:
                client.close()
            client = Client(*self.address)
            self._update_client = client
        return client

    def watch(self, body: str) -> None:
        self._ensure_ready()
        with self._pool.lease() as client:
            client.watch(body)

    def reaches(self, body: str, source: object, target: object) -> bool:
        self._ensure_ready()
        with self._pool.lease() as client:
            return client.reaches(body, source, target)

    def checkpoint(self) -> dict:
        """Ask the worker to commit a shard checkpoint (wire verb)."""
        self._ensure_ready()
        with self._pool.lease() as client:
            return client.call("checkpoint")["checkpoint"]

    def metrics_text(self) -> str:
        """The worker process's registry, over the ``metrics`` verb."""
        self._ensure_ready()
        with self._pool.lease() as client:
            return client.metrics()

    def edge_count(self) -> int:
        with self._lock:
            return self._edge_estimate

    def stats(self) -> dict:
        """The worker's structured shard document, fetched over the wire."""
        self._ensure_ready()
        with self._pool.lease() as client:
            document = client.call("stats", shard=True)["stats"]["shard"]
        document["backend"] = "process"
        document["worker"] = {"pid": self.pid, "address": list(self.address)}
        with self._lock:
            # The worker never saw locally rejected requests; the router
            # folds this into the aggregate so thread/process stats agree.
            document["local_rejected"] = self._rejected
        return document

    def drain(self) -> None:
        """Wait until every locally admitted request has completed."""
        while True:
            with self._lock:
                if self._pending == 0:
                    return
            time.sleep(0.001)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        if self._update_executor is not None:
            self._update_executor.shutdown(wait=True, cancel_futures=True)
        if self._update_client is not None:
            self._update_client.close()
            self._update_client = None
        if self._pool is not None:
            self._pool.close()
        if self._ready_conn is not None:
            self._ready_conn.close()
            self._ready_conn = None
        if self._process is not None and self._process.is_alive():
            self._process.terminate()  # SIGTERM -> graceful server stop
            self._process.join(timeout=self.terminate_timeout)
            if self._process.is_alive():
                self._process.kill()
                self._process.join(timeout=5)
        if self._process is not None:
            self._process = None
        if self._graph_path is not None:
            try:
                os.unlink(self._graph_path)
            except OSError:
                pass
            self._graph_path = None

    def __repr__(self) -> str:
        if self._closed:
            state = "closed"
        elif self._address is not None:
            state = f"serving on {self._address[0]}:{self._address[1]}"
        else:
            state = "spawning" if self._process is not None else "created"
        return f"ProcessBackend(shard={self.shard_id}, pid={self.pid}, {state})"
