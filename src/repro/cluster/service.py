"""The cluster router: shards x replicas behind one scheduler-shaped facade.

One :class:`GraphCluster` partitions a graph into component-disjoint
shards (:mod:`repro.cluster.partition`) and serves each through a
transport-agnostic :class:`~repro.cluster.backends.ShardBackend`
(:mod:`repro.cluster.backends`):

* ``backend="thread"`` (the default) keeps every shard's replica group
  in this process -- R :class:`~repro.db.GraphDB` sessions each behind a
  :class:`~repro.server.SharingScheduler`, the PR-4 deployment;
* ``backend="process"`` spawns one worker process per shard
  (:mod:`repro.cluster.worker`) and fans requests out over the JSON-lines
  protocol through pooled clients, so CPU-bound RTC evaluation runs on
  real cores instead of time-slicing one GIL.

On top of the backends the router implements the same *scheduler
surface* the :class:`~repro.server.QueryServer` front end drives
(``start`` / ``stop`` / ``submit`` / ``submit_update`` / ``stats``), so
:class:`ClusterRouter` is a thin :class:`~repro.server.QueryServer`
subclass speaking the existing JSON-lines protocol -- the
:class:`~repro.server.Client` needs no changes at all, and both backends
serve it identically.

Routing
-------
* **Queries fan out to shards and the pair-sets union.**  Over a
  component-disjoint partition the per-shard answers are disjoint and
  their union is exactly the single-session answer.  Shards whose label
  alphabet is disjoint from the query's are pruned
  (federated-SPARQL-style source selection); nullable queries are never
  pruned, because every shard contributes its reflexive pairs.
* **Edge-cut partitions activate the boundary join.**  When the
  partition's cut relation holds an edge whose label occurs in the
  query, the union is no longer the answer: satisfying paths may cross
  shards.  The cut edges and the query automaton then fix the *entry
  nodes* ``(cut target, state)`` up front; each contributing shard is
  asked **once** for a start-independent summary -- which exit nodes
  ``(cut source, state)`` and which accepted ends its own candidate
  starts and its entry nodes reach locally
  (:func:`repro.rpq.partial.summarise_shard`) -- and the router closes
  the resulting entry -> entry relation over the cut edges and reads
  every start's row off that one shared closure
  (:mod:`repro.cluster.boundary`).  Queries whose alphabet misses every
  cut label keep the plain union path: no satisfying path can traverse
  a cut edge, so per-shard answers stay disjoint and complete.
* **Replica picking is body-affine** and happens *inside* the backend:
  a query's canonical closure-body key hashes to one replica per shard,
  so each replica's RTC cache serves a stable subset of closure bodies
  and stays hot; closure-free queries fall back to the least-loaded
  replica.  (In process mode the worker's backend does the picking; the
  affinity property is identical.)
* **Updates broadcast drain-then-apply.**  An edge change routes to the
  shard owning its endpoints (new vertices are assigned on first
  contact) and the owning backend applies it through *every* replica --
  each drains its in-flight batches, applies on its own graph copy, and
  drops its caches.  The other shards keep serving with hot caches
  throughout.  An edge whose endpoints live on two *different* shards
  belongs to no shard subgraph: it is recorded in (or removed from) the
  partition's cut relation at the router, atomically with the rest of
  the batch, and the boundary join picks it up on the next query.

A query routes on its shared :class:`~repro.core.plan.Plan`: the
closure key (a DNF walk), the label set, nullability and the automaton
are computed once per query text for the whole process -- router,
backends and their replica schedulers alike -- so a serving workload's
repeated queries route in O(1).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from os import PathLike
from pathlib import Path

from repro.cluster.backends import (
    InProcessBackend,
    ProcessBackend,
    ShardBackend,
    ShardReplica,
    aggregate_scheduler_stats,
    merge_futures,
)
from repro.bitset import PairBitmap, alphabet_reachable_mask
from repro.cluster import boundary
from repro.cluster.partition import GraphPartition, partition_graph
from repro.core.plan import PLAN_MEMO_LIMIT, Plan, plan_for
from repro.errors import (
    ClusterError,
    DeadlineExpiredError,
    GraphError,
    ServerError,
    StorageError,
)
from repro.graph.io import load_edge_list
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import get_registry
from repro.regex.parser import parse
from repro.server import protocol
from repro.server.service import QueryServer, ServerConfig
from repro.storage.snapshot import check_persistable_edge
from repro.storage.wal import WriteAheadLog

__all__ = ["ClusterConfig", "GraphCluster", "ClusterRouter", "ShardReplica"]

#: The shard-backend transports a cluster can be built on.
BACKENDS = ("thread", "process")

# Router-side observability: the boundary join is the one engine phase
# that runs *at the router* (everything else is per-shard and publishes
# from the worker's process), so its metrics live here.
_join_rounds_total = get_registry().counter(
    "repro_join_rounds_total",
    "Boundary joins executed at the router (one shard round each).",
)
_join_cache_hits_total = get_registry().counter(
    "repro_join_cache_hits_total",
    "Boundary-join queries answered from the router's join cache.",
)
_phase_seconds = get_registry().counter(
    "repro_phase_seconds_total",
    "Wall seconds spent per engine/storage phase.",
    labels=("phase",),
)


@dataclass
class ClusterConfig:
    """Topology, transport and per-replica scheduler tunables."""

    shards: int = 4
    replicas: int = 1
    #: Worker threads *per replica scheduler*.
    workers: int = 2
    max_queue: int = 256
    #: Per replica scheduler, while all its workers are busy: seconds /
    #: jobs collected into one batch; unused when a worker is free.
    batch_window: float = 0.005
    max_batch: int = 64
    engine_kwargs: dict = field(default_factory=dict)
    #: Shard transport: ``"thread"`` (in-process replica groups) or
    #: ``"process"`` (one worker process per shard; see
    #: :mod:`repro.cluster.backends`).
    backend: str = "thread"
    #: Process mode: pooled connections (= concurrent requests) per shard.
    pool_size: int = 8
    #: Process mode: directory for per-shard worker logs (None = no logs).
    worker_log_dir: str | PathLike | None = None
    #: How :meth:`GraphCluster.open` partitions the graph:
    #: ``"component"`` (whole components, union merge), ``"edge-cut"``
    #: (balanced vertex ranges, boundary join over cut edges) or
    #: ``"auto"`` (component unless one component dominates).  See
    #: :func:`repro.cluster.partition.partition_graph`.
    partition_strategy: str = "component"
    #: Durable data directory (:mod:`repro.storage`).  Each shard gets
    #: ``<data_dir>/shard<N>`` (WAL + snapshots + RTC store, recovered on
    #: start) and the router keeps ``<data_dir>/router`` (vertex
    #: assignments, label supersets and cut edges accumulated by
    #: updates, replayed on start).  A restart over the same seed graph
    #: and the same data dir comes back with every acked update and
    #: every checkpointed closure.
    data_dir: str | PathLike | None = None
    #: Auto-checkpoint each shard after this many logged updates
    #: (None = checkpoints only via :meth:`GraphCluster.checkpoint`).
    checkpoint_every: int | None = None


class _MergeState:
    """Accumulator for one query's per-shard sub-futures.

    Shard answers are component-disjoint, so the merge is a pair-set
    union -- or, in counts-only mode (``want_pairs=False``), a plain
    sum: disjointness makes the sum of per-shard counts exactly the
    union's cardinality, and process shards can then skip serialising
    pair-sets nobody asked for.
    """

    __slots__ = (
        "lock",
        "expected",
        "done",
        "pairs",
        "count",
        "want_pairs",
        "elapsed",
        "error",
    )

    def __init__(self, expected: int, want_pairs: bool = True) -> None:
        self.lock = threading.Lock()
        self.expected = expected
        self.done = 0
        self.pairs: set = set()
        self.count = 0
        self.want_pairs = want_pairs
        self.elapsed = 0.0
        self.error: BaseException | None = None


class GraphCluster:
    """``shards x replicas`` sessions behind one scheduler-shaped facade.

    Construct over a ready :class:`~repro.cluster.GraphPartition` (or use
    :meth:`open` to load/partition in one step), then plug into a
    :class:`ClusterRouter` -- or drive ``submit`` / ``submit_update``
    directly for in-process use.  The shard transport is picked by
    ``config.backend``; everything above the backends (routing, pruning,
    merging, accounting) is transport-blind.
    """

    def __init__(
        self,
        partition: GraphPartition,
        engine: str = "rtc",
        config: ClusterConfig | None = None,
        start: bool = True,
    ) -> None:
        config = config or ClusterConfig()
        if config.replicas < 1:
            raise ClusterError(
                f"replicas must be >= 1, got {config.replicas}",
                code="cluster.topology",
            )
        if config.backend not in BACKENDS:
            raise ClusterError(
                f"unknown backend {config.backend!r}; expected one of "
                f"{', '.join(BACKENDS)}",
                code="cluster.unsupported",
            )
        self.partition = partition
        self.engine_name = engine.lower()
        self.config = config
        self.replicas = config.replicas
        self.backend_name = config.backend
        self._lock = threading.Lock()  # label sets, edge estimates, join memos
        self._update_lock = threading.Lock()  # replica-consistent ordering
        self._backends: list[ShardBackend] = [
            self._make_backend(shard_id, shard_graph)
            for shard_id, shard_graph in enumerate(partition.shards)
        ]
        # Superset of each shard's label alphabet, used for pruning.
        # Only ever grows (updates add labels, removals leave them), so a
        # pruned shard provably cannot contribute to the query.
        self._labels: list[set] = [
            set(graph.labels()) for graph in partition.shards
        ]
        # Router-side durability: the routing state updates accumulate
        # (vertex assignments, label supersets, the cut relation) lives
        # above the shard WALs, so it gets its own append-only log,
        # replayed here -- before any request routes -- on every start.
        self._router_wal = None
        if config.data_dir is not None:
            self._recover_router_log(Path(config.data_dir) / "router")
        # The cache mode group keys are read in must agree with the
        # backends' cache keying, or body-affine replica picking hashes
        # on different keys than the caches share on.  Thread backends
        # expose their live cache's mode; process workers derive theirs
        # from the same engine_kwargs, so the kwargs fallback matches.
        first = self._backends[0]
        if isinstance(first, InProcessBackend):
            self.cache_mode = first.cache_mode
        else:
            self.cache_mode = config.engine_kwargs.get("cache_mode", "syntactic")
        # Queries answered at the router because every shard was pruned
        # (no label overlap anywhere); folded into the aggregate stats so
        # served traffic never disappears from the books.
        self._answered_without_fanout = 0
        # Boundary-join machinery (edge-cut partitions only): the join
        # blocks on its shard round, so it runs on its own small
        # executor; results are cached by query text and invalidated by
        # the graph version counter every update bumps.  Join plans are
        # kept by query text too (from a text's second sighting), stamped
        # with the cut-relation version they were built from.  The memos
        # are dropped wholesale past PLAN_MEMO_LIMIT texts.
        self._join_executor: ThreadPoolExecutor | None = None
        self._join_cache: dict[str, tuple[int, PairBitmap, float]] = {}
        self._join_plans: dict[str, tuple[int, boundary.BoundaryPlan]] = {}
        self._join_plans_seen: set[str] = set()
        self._graph_version = 0
        # Updates routed but not yet applied by every owning shard.
        # Shard summaries bypass the schedulers' drain barrier, so a
        # join overlapping one may read a pre-update shard graph; such
        # a result is returned but never cached.
        self._updates_in_flight = 0
        self._started = False
        self._stopped = False
        if start:
            self.start()

    def _make_backend(
        self, shard_id: int, shard_graph: LabeledMultigraph
    ) -> ShardBackend:
        config = self.config
        common = dict(
            engine=self.engine_name,
            replicas=config.replicas,
            workers=config.workers,
            max_queue=config.max_queue,
            batch_window=config.batch_window,
            max_batch=config.max_batch,
            engine_kwargs=config.engine_kwargs,
            start=False,
        )
        # Each shard owns <data_dir>/shard<N>; the seed graph is passed
        # alongside and ignored whenever the directory already holds
        # committed state (the backend/worker recovers instead).
        shard_dir = None
        if config.data_dir is not None:
            shard_dir = str(Path(config.data_dir) / f"shard{shard_id}")
        if config.backend == "thread":
            return InProcessBackend(
                shard_id,
                shard_graph,
                storage_dir=shard_dir,
                checkpoint_every=config.checkpoint_every,
                **common,
            )
        log_path = None
        if config.worker_log_dir is not None:
            log_dir = Path(config.worker_log_dir)
            log_dir.mkdir(parents=True, exist_ok=True)
            log_path = str(log_dir / f"shard{shard_id}.log")
        return ProcessBackend(
            shard_id,
            shard_graph,
            pool_size=config.pool_size,
            log_path=log_path,
            data_dir=shard_dir,
            checkpoint_every=config.checkpoint_every,
            **common,
        )

    def _recover_router_log(self, router_dir: Path) -> None:
        """Open (and replay) the router's own durability log.

        Shard WALs make the *graphs* recoverable; what they cannot carry
        is the routing state the router accumulated from updates --
        which shard owns each update-assigned vertex, which labels each
        shard's superset grew, and which cross-shard edges entered (or
        left) the cut relation.  Those are appended here as ``route``
        records, one per committed update batch, and replayed over the
        freshly re-partitioned seed graph before any request routes.
        The log never compacts: route records are tiny, and a compaction
        point would need a consistent cross-shard cut of all WALs.

        Replay leans on the partition's idempotent primitives:
        ``assign`` is first-writer-wins (replay order == commit order),
        label sets only grow, and cut adds are guarded so a record that
        overlaps re-derived seed state cannot raise.
        """
        router_dir.mkdir(parents=True, exist_ok=True)
        self._router_wal = WriteAheadLog(
            router_dir / "routing.jsonl", start_lsn=0
        )
        for record in self._router_wal.records():
            if record.get("op") != "route":
                raise StorageError(
                    f"unknown router log record op {record.get('op')!r} "
                    f"at lsn {record.get('lsn')}"
                )
            for vertex, shard in record.get("assign", ()):
                self.partition.assign(vertex, shard)
            for shard, labels in record.get("labels", ()):
                self._labels[shard] |= set(labels)
            for source, label, target in record.get("cut_add", ()):
                if not self.partition.has_cut(source, label, target):
                    self.partition.record_cut(source, label, target)
            for source, label, target in record.get("cut_discard", ()):
                self.partition.discard_cut(source, label, target)

    # -- construction ----------------------------------------------------
    @classmethod
    def open(
        cls,
        source: LabeledMultigraph | str | PathLike | object,
        engine: str = "rtc",
        config: ClusterConfig | None = None,
        start: bool = True,
    ) -> "GraphCluster":
        """Load a graph (object, edge-list path, or edge triples), partition
        it into ``config.shards`` shards (``config.partition_strategy``
        picks how), and bring the cluster up."""
        config = config or ClusterConfig()
        if isinstance(source, LabeledMultigraph):
            graph = source
        elif isinstance(source, (str, PathLike, Path)):
            graph = load_edge_list(source)
        else:
            graph = LabeledMultigraph.from_edges(source)
        partition = partition_graph(
            graph, config.shards, strategy=config.partition_strategy
        )
        return cls(partition, engine=engine, config=config, start=start)

    @property
    def num_shards(self) -> int:
        return len(self._backends)

    def backend(self, shard: int) -> ShardBackend:
        """Direct access to one shard backend (tests and diagnostics)."""
        return self._backends[shard]

    def replica(self, shard: int, replica: int = 0) -> ShardReplica:
        """Direct access to one in-process replica (tests, diagnostics).

        Only meaningful on the thread backend; process-mode replicas
        live in the worker and are reachable through the protocol only.
        """
        backend = self._backends[shard]
        if not isinstance(backend, InProcessBackend):
            raise ClusterError(
                f"shard {shard} runs on the {self.backend_name!r} backend; "
                "its replicas are not in this process",
                code="cluster.unsupported",
                shards=(shard,),
            )
        return backend.replicas[replica]

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Start every shard backend (idempotent).

        Process workers spawn concurrently (``start`` is non-blocking)
        and are then awaited, so an N-shard cluster boots in roughly one
        worker's start-up time, not N of them.  If any shard fails to
        come up, every already-started backend is closed before the
        error propagates -- a failed constructor must not leave orphan
        worker processes running.
        """
        if self._started or self._stopped:
            return
        self._started = True
        try:
            for backend in self._backends:
                backend.start()
            for backend in self._backends:
                backend.wait_ready()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Drain and close every shard backend."""
        if self._stopped:
            return
        self._stopped = True
        with self._lock:
            executor = self._join_executor
            self._join_executor = None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        for backend in self._backends:
            backend.close()
        if self._router_wal is not None:
            self._router_wal.close()

    def checkpoint(self) -> list[dict]:
        """Commit a checkpoint on every shard backend; per-shard results.

        Each shard drains its replicas, rolls its snapshot + RTC store
        forward to its current LSN and compacts its WAL (see
        :meth:`repro.storage.ShardStorage.checkpoint`).  Shards
        checkpoint independently -- there is no cross-shard barrier, and
        none is needed: each shard's manifest covers exactly its own
        acked updates, and the router log replays against whatever LSN
        each shard recovered to.  Raises
        :class:`~repro.errors.ClusterError` (``cluster.unsupported``)
        when the cluster runs without a data dir.
        """
        if self._stopped:
            raise self._closed_error()
        return [backend.checkpoint() for backend in self._backends]

    # -- routing ---------------------------------------------------------
    def _target_shards(self, labels: frozenset, nullable: bool) -> list[int]:
        """Shards that can contribute to a query (source selection).

        A non-nullable query's every satisfying path uses at least one
        edge, and all its edge labels come from the query alphabet -- so
        a shard sharing no label with the query answers with the empty
        set and is skipped.  Nullable queries contribute ``(v, v)`` for
        every vertex of every shard and are never pruned.
        """
        if nullable:
            return list(range(self.num_shards))
        with self._lock:
            return [
                shard
                for shard in range(self.num_shards)
                if not self._labels[shard].isdisjoint(labels)
            ]

    # -- queries ---------------------------------------------------------
    def submit(
        self,
        text: str,
        plan: Plan | None = None,
        timeout: float | None = None,
        want_pairs: bool = True,
        trace: tuple | None = None,
    ) -> Future:
        """Admit one query cluster-wide; future of ``(pairs, elapsed)``.

        Fans out to every contributing shard backend and unions the
        pair-sets; ``elapsed`` is the slowest shard's engine time.
        With ``want_pairs=False`` the future resolves to
        ``(count, elapsed)`` instead and process shards answer with
        counts only, skipping the pair-set wire serialisation (the
        component-disjoint partition makes per-shard counts sum exactly
        to the union's size).  Admission is all-or-nothing: if any shard
        rejects, the already-admitted sub-queries are cancelled and the
        :class:`~repro.errors.AdmissionError` propagates.  Any shard
        failure (evaluation error, expired deadline) fails the whole
        query with that error.

        When the partition's cut relation holds an edge whose label is
        in the query alphabet, the union is not the answer and the
        boundary-join path runs instead (see the module docstring); it
        builds the full answer at the router as a
        :class:`~repro.bitset.PairBitmap` and resolves to that bitmap --
        the join cache's own object, which callers must not mutate --
        so counts-only requests are answered as its ``count()``:
        per-shard counts may overlap across a cut and must not be summed.

        ``trace`` is the ``(tracer, parent_span_id)`` of this query's
        span when the request is traced: the router opens one ``shard``
        span per fan-out target (finished when that shard answers) and
        propagates the trace into each backend, so remote workers'
        span subtrees come back stitched under the right parent.
        """
        if self._stopped:
            raise self._closed_error()
        plan = plan_for(text if plan is None else plan)
        labels, nullable, nfa = plan.route()

        if self.partition.has_cuts and self._relevant_cuts(text, labels):
            return self._submit_boundary_join(
                text, plan, nfa, labels, nullable,
                timeout=timeout, want_pairs=want_pairs, trace=trace,
            )

        targets = self._target_shards(labels, nullable)

        parent: Future = Future()
        if not targets:
            with self._lock:
                self._answered_without_fanout += 1
            parent.set_running_or_notify_cancel()
            parent.set_result((set() if want_pairs else 0, 0.0))
            return parent

        children: list[Future] = []
        try:
            for shard in targets:
                child_trace = None
                if trace is not None:
                    tracer, parent_id = trace
                    shard_span = tracer.begin(
                        "shard", parent=parent_id, shard=shard
                    )
                    child_trace = (tracer, shard_span.span_id)
                child = self._backends[shard].query(
                    text,
                    plan,
                    timeout=timeout,
                    want_pairs=want_pairs,
                    trace=child_trace,
                )
                if trace is not None:
                    child.add_done_callback(
                        lambda _future, tracer=tracer, span=shard_span: (
                            tracer.finish(span)
                        )
                    )
                children.append(child)
        except BaseException:
            # All-or-nothing admission: roll back what was admitted.
            for child in children:
                child.cancel()
            raise

        state = _MergeState(expected=len(children), want_pairs=want_pairs)
        for child in children:
            child.add_done_callback(
                lambda future, state=state, parent=parent: self._merge_child(
                    state, parent, future
                )
            )
        return parent

    def _merge_child(
        self, state: _MergeState, parent: Future, child: Future
    ) -> None:
        try:
            payload, elapsed = child.result()
        except (CancelledError, Exception) as error:  # noqa: BLE001  # repro: noqa[RPR701] -- fan-in callback: the first failure is stashed and delivered through the join future
            outcome: BaseException | None = error
        else:
            outcome = None
        with state.lock:
            if outcome is not None:
                if state.error is None:
                    state.error = outcome
            elif state.want_pairs:
                state.pairs |= payload
                if elapsed > state.elapsed:
                    state.elapsed = elapsed
            else:
                # Thread shards still hand over sets (free in-process);
                # process shards answer with bare counts.
                state.count += (
                    payload if isinstance(payload, int) else len(payload)
                )
                if elapsed > state.elapsed:
                    state.elapsed = elapsed
            state.done += 1
            finished = state.done == state.expected
        if not finished:
            return
        if not parent.set_running_or_notify_cancel():
            return  # the caller cancelled the aggregate; drop the result
        if state.error is not None:
            parent.set_exception(state.error)
        else:
            result = state.pairs if state.want_pairs else state.count
            parent.set_result((result, state.elapsed))

    # -- boundary join (edge-cut partitions) -----------------------------
    def _submit_boundary_join(
        self,
        text: str,
        plan: Plan,
        nfa,
        labels: frozenset,
        nullable: bool,
        timeout: float | None,
        want_pairs: bool,
        trace: tuple | None = None,
    ) -> Future:
        """Admit one query on the boundary-join path; future of the
        same ``(pairs-or-count, elapsed)`` shape as :meth:`submit`."""
        with self._lock:
            cached = self._join_cache.get(text)
            version = self._graph_version
            if cached is not None and cached[0] == version:
                _version, pairs, elapsed = cached
                _join_cache_hits_total.inc()
                if trace is not None:
                    trace[0].record(
                        "join_cache_hit",
                        trace[1],
                        time.time(),  # repro: noqa[RPR601] -- span start is a wall-clock epoch (trace axis); the hit has zero duration
                        0.0,
                        version=version,
                        pairs=len(pairs),
                    )
                parent: Future = Future()
                parent.set_running_or_notify_cancel()
                parent.set_result((pairs if want_pairs else pairs.count(), elapsed))
                return parent
            if self._join_executor is None:
                self._join_executor = ThreadPoolExecutor(
                    max_workers=8, thread_name_prefix="repro-join"
                )
            executor = self._join_executor
            quiet = self._updates_in_flight == 0

        def run():
            pairs, elapsed = self._run_boundary_join(
                text, plan, nfa, labels, nullable, timeout, trace=trace
            )
            with self._lock:
                # Cache only results that describe the live graph: an
                # update routed mid-join bumped the version, and one
                # still being applied when the join began may not have
                # reached the shard graphs the summaries read.
                if quiet and self._graph_version == version:
                    if len(self._join_cache) >= PLAN_MEMO_LIMIT:
                        self._join_cache.clear()
                    self._join_cache[text] = (version, pairs, elapsed)
            # The cached bitmap itself goes to the reply path: consumers
            # read it (count, membership, wire rows) and never write.
            return (pairs if want_pairs else pairs.count(), elapsed)

        return executor.submit(run)

    def _relevant_cuts(self, text: str, labels: frozenset) -> tuple:
        """The cut edges carrying a label of ``text``; empty routes the
        query around the join.

        Read off the kept plan while the cut version matches, else off
        the partition's per-version snapshot.  No plan is built here:
        :meth:`submit` runs on the router's event loop.
        """
        version, cuts = self.partition.cut_state()
        kept = self._join_plans.get(text)
        if kept is not None and kept[0] == version:
            return kept[1].cuts
        return tuple(edge for edge in cuts if edge[1] in labels)

    def _join_plan(self, text: str, nfa) -> boundary.BoundaryPlan:
        """The boundary plan of ``text`` over the current cut relation.

        A plan depends only on the cut relation (cut endpoints never
        change shards), so it is kept, stamped with the cut version it
        was read with, until that version moves.  Like
        :func:`~repro.core.plan.plan_for`, a text's plan is kept from
        its second sighting: a one-off text leaves only its text behind.
        """
        version, cuts = self.partition.cut_state()
        kept = self._join_plans.get(text)
        if kept is not None and kept[0] == version:
            return kept[1]
        join_plan = boundary.plan(
            nfa,
            [edge for edge in cuts if edge[1] in nfa.labels],
            self.partition.shard_of,
        )
        with self._lock:
            if text in self._join_plans_seen:
                if len(self._join_plans) >= PLAN_MEMO_LIMIT:
                    self._join_plans.clear()
                self._join_plans[text] = (version, join_plan)
            else:
                if len(self._join_plans_seen) >= PLAN_MEMO_LIMIT:
                    self._join_plans_seen.clear()
                self._join_plans_seen.add(text)
        return join_plan

    def _run_boundary_join(
        self,
        text: str,
        plan: Plan,
        nfa,
        labels: frozenset,
        nullable: bool,
        timeout: float | None,
        trace: tuple | None = None,
    ) -> tuple[PairBitmap, float]:
        """One shard round, then a closure over the boundary graph.

        The cut edges and the automaton fix the entry nodes up front
        (:func:`repro.cluster.boundary.plan`), so every contributing
        shard is asked once -- all calls in flight together -- for the
        start-independent summary of its own candidate starts and the
        entries it owns; :func:`repro.cluster.boundary.close` turns the
        summaries into the answer without asking again.  Shards sharing
        no label with a non-nullable query are not called: no local
        segment can run there, and what their entries contribute needs
        no shard.  ``elapsed`` is the slowest shard's evaluation time.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> float | None:
            if deadline is None:
                return None
            left = deadline - time.monotonic()
            if left <= 0:
                raise DeadlineExpiredError(
                    f"boundary join for {text!r} exceeded its {timeout}s "
                    "deadline"
                )
            return left

        # The cut relation is read here, after the caller sampled the
        # graph version: a cut edge routed in between fails the version
        # check instead of being cached under a version it predates.
        join_plan = self._join_plan(text, nfa)
        targets = self._target_shards(labels, nullable)
        budget = remaining()
        round_span = None
        child_trace = None
        if trace is not None:
            round_span = trace[0].begin(
                "join_round",
                parent=trace[1],
                round=0,
                shards=len(targets),
                frontier=len(join_plan.entries),
            )
            child_trace = (trace[0], round_span.span_id)
        started = time.monotonic()
        try:
            children = {
                shard: self._backends[shard].summary(
                    text,
                    plan,
                    boundary=join_plan.boundary_of.get(shard, ()),
                    entries=join_plan.shard_entries(shard),
                    timeout=budget,
                    trace=child_trace,
                )
                for shard in targets
            }
            summaries = {}
            elapsed = 0.0
            for shard, child in children.items():
                summaries[shard], shard_elapsed = child.result(timeout=budget)
                elapsed = max(elapsed, shard_elapsed)
            remaining()  # an overrun shard round must not buy a closure
            pairs = boundary.close(join_plan, summaries)
        except BaseException as error:
            if round_span is not None:
                trace[0].finish(round_span, error=type(error).__name__)
            raise
        finally:
            _join_rounds_total.inc()
            _phase_seconds.inc(time.monotonic() - started, phase="join")
        if round_span is not None:
            trace[0].finish(round_span, rows=len(pairs.rows))
        return pairs, elapsed

    # -- updates ---------------------------------------------------------
    def submit_update(self, add=(), remove=(), trace: tuple | None = None) -> Future:
        """Admit a streaming edge change; future of ``None``.

        Each edge routes to the shard owning its endpoints; the owning
        backend then applies the change through **every** replica
        (drain-then-apply on each; each drops the cached closures whose
        body reads a label the change carried and keeps the rest), so
        all copies converge before the future resolves.  Unaffected
        shards keep serving with hot caches.  Edges with brand-new endpoints
        are assigned to the currently smallest shard.  Edges whose
        endpoints live on two *different* shards belong to no shard
        subgraph: an add records the edge in the partition's cut
        relation (the boundary join serves it from the next query on),
        a remove deletes it from there; a remove of a cross-shard edge
        that was never recorded raises :class:`~repro.errors.ClusterError`
        (``cluster.unknown_edge``), and a duplicate cross-shard add
        raises :class:`~repro.errors.GraphError`, mirroring the
        multigraph's duplicate-edge contract.

        Routing is two-phase: every edge of the request is validated and
        routed *before* any partition state mutates or any backend sees
        the job, so a request rejected at routing time (unknown edges,
        duplicate cuts) leaves no phantom vertex assignments, label-set
        entries or cut-relation rows behind.  A request that routes but
        then fails to *apply* (e.g. a duplicate edge) does keep its
        routing state: assignments must commit before the
        (asynchronous) apply so that concurrent updates naming the same
        new vertices route to the same shard -- releasing them on
        failure could split a component across shards.  Backends admit
        updates with blocking semantics (replica queues never
        half-accept an update, which is what keeps the copies
        identical), so this call can wait for queue slots; drive it
        from a worker thread (the router runs it in an executor), not
        from a latency-sensitive loop.
        """
        if self._stopped:
            raise self._closed_error()
        add = [tuple(edge) for edge in add]
        remove = [tuple(edge) for edge in remove]
        if not add and not remove:
            return merge_futures([])
        if self._router_wal is not None:
            # Durable clusters refuse non-persistable edges up front --
            # the route-record append in phase 2 (and the shard WAL
            # appends behind it) must not be able to fail after the
            # routing state has committed.
            for source, label, target in [*add, *remove]:
                check_persistable_edge(source, label, target)

        with self._update_lock:
            # Phase 1: route and validate against committed + pending
            # state; raises before anything is mutated.
            by_shard: dict[int, tuple[list, list]] = {}
            pending_assign: dict[object, int] = {}
            pending_labels: dict[int, set] = {}
            cut_adds: list[tuple] = []
            cut_removes: list[tuple] = []

            def owners(source: object, target: object) -> tuple:
                source_shard = pending_assign.get(source)
                if source_shard is None:
                    source_shard = self.partition.shard_of(source)
                target_shard = pending_assign.get(target)
                if target_shard is None:
                    target_shard = self.partition.shard_of(target)
                return source_shard, target_shard

            for source, label, target in add:
                source_shard, target_shard = owners(source, target)
                if (
                    source_shard is not None
                    and target_shard is not None
                    and source_shard != target_shard
                ):
                    edge = (source, label, target)
                    if self.partition.has_cut(*edge) or edge in cut_adds:
                        raise GraphError(
                            f"duplicate cross-shard edge {source!r} "
                            f"-{label}-> {target!r}"
                        )
                    cut_adds.append(edge)
                    continue
                shard = (
                    source_shard if source_shard is not None else target_shard
                )
                if shard is None:
                    shard = self._smallest_shard()
                pending_assign.setdefault(source, shard)
                pending_assign.setdefault(target, shard)
                by_shard.setdefault(shard, ([], []))[0].append(
                    (source, label, target)
                )
                pending_labels.setdefault(shard, set()).add(label)
            for source, label, target in remove:
                source_shard, target_shard = owners(source, target)
                if source_shard is None and target_shard is None:
                    raise ClusterError(
                        f"cannot remove edge ({source!r}, {label!r}, "
                        f"{target!r}): neither endpoint is in the cluster",
                        code="cluster.unknown_edge",
                        detail=[source, label, target],
                    )
                if (
                    source_shard is not None
                    and target_shard is not None
                    and source_shard != target_shard
                ):
                    edge = (source, label, target)
                    if not self.partition.has_cut(*edge) or edge in cut_removes:
                        raise ClusterError(
                            f"cannot remove edge ({source!r}, {label!r}, "
                            f"{target!r}): it crosses shards "
                            f"{source_shard} and {target_shard} but is not "
                            "a recorded cross-shard edge",
                            code="cluster.unknown_edge",
                            shards=(source_shard, target_shard),
                            detail=[source, label, target],
                        )
                    cut_removes.append(edge)
                    continue
                shard = (
                    source_shard if source_shard is not None else target_shard
                )
                by_shard.setdefault(shard, ([], []))[1].append(
                    (source, label, target)
                )

            # Phase 2: commit routing state (vertex assignments, label
            # supersets, the cut relation), invalidate the boundary-join
            # cache, then hand each owning backend its slice.  Backends
            # admit with blocking semantics under this lock, so
            # concurrent updates reach every replica of every shard in
            # one global order.
            new_assigns = [
                [vertex, shard]
                for vertex, shard in pending_assign.items()
                if self.partition.shard_of(vertex) is None
            ]
            for vertex, shard in pending_assign.items():
                self.partition.assign(vertex, shard)
            for edge in cut_adds:
                self.partition.record_cut(*edge)
            for edge in cut_removes:
                self.partition.discard_cut(*edge)
            with self._lock:
                for shard, labels in pending_labels.items():
                    self._labels[shard] |= labels
                self._graph_version += 1
                self._updates_in_flight += 1
                self._join_cache.clear()
            children: list[Future] = []
            try:
                if self._router_wal is not None and (
                    new_assigns or pending_labels or cut_adds or cut_removes
                ):
                    # Logged after the in-memory commit but before any shard
                    # sees (and shard-logs) its slice, so a crash can lose
                    # an unacked batch but never leaves a shard-logged edge
                    # without its routing record.
                    self._router_wal.append(
                        {
                            "op": "route",
                            "assign": new_assigns,
                            "labels": [
                                [shard, sorted(labels, key=str)]
                                for shard, labels in sorted(pending_labels.items())
                            ],
                            "cut_add": [list(edge) for edge in cut_adds],
                            "cut_discard": [list(edge) for edge in cut_removes],
                        }
                    )
                for shard, (adds, removes) in sorted(by_shard.items()):
                    child_trace = None
                    if trace is not None:
                        tracer, parent_id = trace
                        shard_span = tracer.begin(
                            "shard_update",
                            parent=parent_id,
                            shard=shard,
                            add=len(adds),
                            remove=len(removes),
                        )
                        child_trace = (tracer, shard_span.span_id)
                    child = self._backends[shard].update(
                        add=adds, remove=removes, trace=child_trace
                    )
                    if trace is not None:
                        child.add_done_callback(
                            lambda _future, tracer=tracer, span=shard_span: (
                                tracer.finish(span)
                            )
                        )
                    children.append(child)
            finally:
                # Whatever was admitted settles the in-flight count when
                # it finishes, through a merge of its own: the caller
                # may cancel the future it is handed (a disconnecting
                # client does) while shards are still applying.
                # Registered first, so the count drops before the
                # caller's future resolves.
                merge_futures(children).add_done_callback(
                    self._update_settled
                )

        return merge_futures(children)

    def _update_settled(self, _future: Future) -> None:
        with self._lock:
            self._updates_in_flight -= 1

    def _smallest_shard(self) -> int:
        sizes = [backend.edge_count() for backend in self._backends]
        return sizes.index(min(sizes))

    @staticmethod
    def _closed_error() -> ServerError:
        error = ServerError("cluster is shutting down")
        error.code = "closed"
        return error

    # -- watchers / reachability -----------------------------------------
    def watch(self, body: str) -> str:
        """Watch (pin the maintained RTC of) ``body`` on every replica."""
        normalised = parse(body).to_string()
        for backend in self._backends:
            backend.watch(body)
        return normalised

    def reaches(self, body: str, source: object, target: object) -> bool:
        """Streaming reachability probe: ``(source, target) in (body+)_G``.

        Over a component-disjoint partition only ``source``'s shard can
        contain a path, so the probe routes there; unknown sources probe
        every shard (and come back False when the vertex exists
        nowhere).  When a cut edge carries one of the body's labels a
        path may cross shards; :meth:`_reaches_with_cuts` answers that
        case with shard-local probes and bitmap prefilters before
        resorting to any fan-out.
        """
        if self.partition.has_cuts:
            closure = f"({body})+"
            labels, _nullable, _nfa = plan_for(closure).route()
            relevant_cuts = self._relevant_cuts(closure, labels)
            if relevant_cuts:
                return self._reaches_with_cuts(
                    body, closure, labels, relevant_cuts, source, target
                )
        shard = self.partition.shard_of(source)
        if shard is not None:
            return self._backends[shard].reaches(body, source, target)
        return any(
            backend.reaches(body, source, target)
            for backend in self._backends
        )

    def _reaches_with_cuts(
        self,
        body: str,
        closure: str,
        labels: frozenset,
        cuts: tuple,
        source: object,
        target: object,
    ) -> bool:
        """The cut-relevant membership probe, cheapest evidence first.

        1. A shard subgraph is a subgraph of ``G``, so ``source``'s own
           shard answering yes settles it without any fan-out.
        2. A cross-shard path must *leave* through a cut edge whose
           source is forward-reachable from ``source`` inside its shard,
           and *arrive* through one whose target reaches ``target``
           inside its shard (re-entries always land on cut targets).
           Both tests are label-union sweeps of the shard graphs'
           bitmap adjacency rows (:func:`alphabet_reachable_mask`) --
           an over-approximation of the RPQ, hence sound to prune on.
           Prefilters need the live shard graph, so process backends
           (``shard_graph`` is None) skip them.
        3. Only when neither side rules the pair out does the probe pay
           for the full ``(body)+`` boundary-join evaluation (served
           from the join cache when warm).
        """
        source_shard = self.partition.shard_of(source)
        target_shard = self.partition.shard_of(target)
        if source_shard is None or target_shard is None:
            # Unknown endpoints: nothing can reach them; stay faithful
            # to the membership semantics via the closure itself.
            pairs, _elapsed = self.submit(closure).result()
            return (source, target) in pairs
        if self._backends[source_shard].reaches(body, source, target):
            return True
        shard_of = self.partition.shard_of
        graph = self._backends[source_shard].shard_graph
        if graph is not None:
            mask = alphabet_reachable_mask(graph, labels, [source])
            id_of = graph.interner.id_of
            if not any(
                cut_id is not None and mask >> cut_id & 1
                for cut_source, _label, _cut_target in cuts
                if shard_of(cut_source) == source_shard
                for cut_id in (id_of(cut_source),)
            ):
                # No relevant cut edge is reachable from ``source``: a
                # satisfying path could never leave the shard, and the
                # shard itself already said no.
                return False
        graph = self._backends[target_shard].shard_graph
        if graph is not None:
            mask = alphabet_reachable_mask(
                graph, labels, [target], reverse=True
            )
            id_of = graph.interner.id_of
            if not any(
                cut_id is not None and mask >> cut_id & 1
                for _cut_source, _label, cut_target in cuts
                if shard_of(cut_target) == target_shard
                for cut_id in (id_of(cut_target),)
            ):
                # No cut-edge arrival can reach ``target`` in-shard: a
                # cross-shard path cannot end at it.
                return (
                    source_shard == target_shard
                    and self._backends[source_shard].reaches(
                        body, source, target
                    )
                )
        pairs, _elapsed = self.submit(closure).result()
        return (source, target) in pairs

    # -- statistics ------------------------------------------------------
    def _shard_docs(self) -> list[dict]:
        """One structured stats document per shard backend.

        Fetch once and pass to :meth:`stats` / :meth:`session_stats` /
        :meth:`describe` when emitting all three -- on the process
        backend every document is a wire round trip.
        """
        return [backend.stats() for backend in self._backends]

    def stats(self, docs: list[dict] | None = None) -> dict:
        """Aggregate scheduler-shaped statistics (QueryServer-compatible).

        Counters sum across all replicas of all shards; latency
        percentiles are computed over the *pooled* reservoirs (not
        averaged per-replica percentiles); QPS is the sum of per-replica
        rates, since the replicas serve concurrently.
        """
        docs = docs if docs is not None else self._shard_docs()
        stats_list = [
            replica["scheduler"] for doc in docs for replica in doc["replicas"]
        ]
        latencies = [
            value for doc in docs for value in doc["latency_values"]
        ]
        aggregate = aggregate_scheduler_stats(stats_list, latencies)
        # Rejections the process backends issued locally (their bound
        # trips before the worker ever sees the request).
        aggregate["rejected"] += sum(
            doc.get("local_rejected", 0) for doc in docs
        )
        with self._lock:
            answered = self._answered_without_fanout
        # Router-answered queries count as admitted *and* completed, so
        # the conservation law (admitted == completed + expired + failed
        # + cancelled + updates) keeps describing what clients observed.
        aggregate["admitted"] += answered
        aggregate["completed"] += answered
        aggregate["answered_without_fanout"] = answered
        return aggregate

    def session_stats(self, docs: list[dict] | None = None) -> dict:
        """Aggregate session statistics (the ``stats`` verb's ``session``)."""
        docs = docs if docs is not None else self._shard_docs()
        engines = [
            replica["session"] for doc in docs for replica in doc["replicas"]
        ]
        watchers: set = set()
        for stats in engines:
            watchers.update(stats["watchers"])
        cuts = self.partition.cut_relation()
        with self._lock:  # _labels mutates under concurrent updates
            all_labels = set().union(*self._labels)
        # Cut edges live in no shard subgraph; fold them (and their
        # labels) back in so the cluster totals match a single session.
        all_labels |= {edge[1] for edge in cuts}
        return {
            "engine": self.engine_name,
            "graph": {
                "vertices": sum(doc["graph"]["vertices"] for doc in docs),
                "edges": sum(doc["graph"]["edges"] for doc in docs) + len(cuts),
                "labels": len(all_labels),
            },
            "queries_evaluated": sum(s["queries_evaluated"] for s in engines),
            "total_time": sum(s["total_time"] for s in engines),
            "shared_pairs": sum(s["shared_pairs"] for s in engines),
            "watchers": sorted(watchers),
        }

    def describe(self, docs: list[dict] | None = None) -> dict:
        """Topology plus per-shard replica summaries (``stats``' cluster doc)."""
        docs = docs if docs is not None else self._shard_docs()
        shards = []
        for doc in docs:
            replicas = []
            for replica_doc in doc["replicas"]:
                scheduler_stats = replica_doc["scheduler"]
                summary = {
                    "replica": replica_doc["replica"],
                    "completed": scheduler_stats["completed"],
                    "updates": scheduler_stats["updates"],
                    "in_flight": scheduler_stats["in_flight"],
                    "queue_depth": scheduler_stats["queue_depth"],
                }
                if "cache" in scheduler_stats:
                    summary["cache_hits"] = scheduler_stats["cache"]["hits"]
                    summary["cache_misses"] = scheduler_stats["cache"]["misses"]
                replicas.append(summary)
            entry = {
                "shard": doc["shard"],
                "vertices": doc["graph"]["vertices"],
                "edges": doc["graph"]["edges"],
                "labels": doc["graph"]["labels"],
                "replicas": replicas,
            }
            if "worker" in doc:
                entry["worker"] = doc["worker"]
            if "storage" in doc:
                entry["storage"] = doc["storage"]
            shards.append(entry)
        document = {
            "shards": self.num_shards,
            "replicas": self.replicas,
            "engine": self.engine_name,
            "backend": self.backend_name,
            "cut_edges": len(self.partition.cut_relation()),
            "per_shard": shards,
        }
        if self.config.data_dir is not None:
            document["storage"] = {
                "data_dir": str(self.config.data_dir),
                "router_lsn": (
                    self._router_wal.last_lsn
                    if self._router_wal is not None
                    else 0
                ),
                "checkpoint_every": self.config.checkpoint_every,
            }
        return document

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else (
            "running" if self._started else "created"
        )
        return (
            f"GraphCluster(shards={self.num_shards}, "
            f"replicas={self.replicas}, engine={self.engine_name!r}, "
            f"backend={self.backend_name!r}, {state})"
        )


class ClusterRouter(QueryServer):
    """The cluster's JSON-lines front end -- a :class:`QueryServer` whose
    scheduler is a whole :class:`GraphCluster`.

    The wire protocol, the :class:`~repro.server.Client`, admission
    errors, per-request deadlines and the whole request path are
    inherited unchanged.  What differs: ``stats`` (cluster-wide
    aggregation plus topology), the plans' routing fields warmed before
    a query is admitted, pairs-or-counts forwarded at admission, and update
    admission taken off the event loop.  ``watch`` (broadcast) and
    ``reaches`` (shard-routed) are the cluster's own methods behind the
    base handlers.
    """

    def __init__(
        self, cluster: GraphCluster, config: ServerConfig | None = None
    ) -> None:
        self.cluster = cluster
        # The cluster plays both roles: the scheduler surface (submit /
        # submit_update / stats) and the session surface the base
        # ``watch`` / ``reaches`` handlers drive through ``self.db``.
        super().__init__(db=cluster, config=config, scheduler=cluster)

    async def _warm(self, plans) -> None:
        # A plan's first group key walks the query's DNF and its first
        # route compiles the NFA -- exactly the work the single-node
        # scheduler defers to its dispatcher thread.  Admission then
        # routes from the plan in O(1).
        await self._warm_off_loop(plans, self.cluster.cache_mode, route=True)

    def _submit_query(self, text, plan, timeout, include_pairs, trace=None):
        # Forward the client's pairs/counts intent: counts-only requests
        # let process shards answer without serialising pair-sets.  The
        # trace rides along so each fan-out target gets a ``shard`` span
        # and remote workers' subtrees stitch back under it.
        return self.cluster.submit(
            text, plan, timeout=timeout, want_pairs=include_pairs, trace=trace
        )

    async def _submit_update(self, add, remove, trace):
        # submit_update admits to every replica with blocking semantics
        # (so the copies never diverge on a full queue) -- keep that
        # potential wait off the event loop.
        return await self._in_executor(
            lambda: self.cluster.submit_update(add=add, remove=remove, trace=trace)
        )

    async def _op_stats(self, request_id, request) -> dict:
        def collect() -> dict:
            # One stats document per shard, fetched once -- on the
            # process backend each document is a wire round trip.
            docs = self.cluster._shard_docs()
            return {
                "scheduler": self.cluster.stats(docs),
                "session": self.cluster.session_stats(docs),
                "cluster": self.cluster.describe(docs),
            }

        stats = await self._in_executor(collect)
        stats["server"] = self._server_stats()
        return protocol.ok_response(request_id, stats=stats)

    # ``watch`` and ``reaches`` are inherited: the base handlers call
    # self.db.watch / self.db.reaches, and GraphCluster implements both
    # with GraphDB's signatures (broadcast / shard-routed).
