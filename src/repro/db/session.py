"""The :class:`GraphDB` session -- the library's database-style facade.

One session owns one graph, one engine instance (chosen by name from the
:mod:`repro.db.registry`), that engine's shared caches -- which every
update repairs rather than drops -- and any number of watched closure
bodies.  The lifecycle mirrors a classical database driver::

    with GraphDB.open("graph.txt", engine="rtc") as db:
        plan = db.prepare("d.(b.c)+.c")
        print(plan.explain().describe())
        rs = plan.execute()                  # ResultSet, not a bare set
        for start, end in rs:
            ...
        db.execute_many(["a.(b.c)+", "(b.c)+.c"])   # caches shared

    # streaming: watch a closure body, then feed edge updates
    db = GraphDB.open(graph)
    follows = db.watch("follows")
    db.update(add=[("ann", "follows", "bob")])
    follows.reaches("ann", "bob")

``open`` accepts a :class:`~repro.graph.LabeledMultigraph`, an edge-list
path, or an iterable of ``(source, label, target)`` triples.  Sharing is
the point: every ``execute`` on a session reuses the engine's shared
structures, which is what the paper means by evaluating *multiple* RPQs.

Durability contract
-------------------
A session is in-memory unless it is opened with ``storage=`` (a data
directory or a :class:`~repro.storage.ShardStorage`).  With storage
attached:

* **After ``update`` returns**, the applied batch is on disk: it was
  appended to the write-ahead log, flushed and fsync'd *before* the call
  returned, so it survives ``kill -9`` and is replayed on the next open.
  If an update raises partway through a batch, exactly the applied
  prefix was logged -- replay reproduces the same partially-updated
  graph the live session kept serving.
* **After ``checkpoint()`` returns**, the full graph snapshot, the warm
  RTC store (every cached closure once, watched ones marked,
  LSN-stamped) and the manifest naming them are committed, and the
  now-covered WAL has been compacted.  Recovery cost is proportional to
  updates since the last checkpoint; warm-start coverage is "whatever
  was cached at the last checkpoint, if no update followed it" -- and
  installed entries are repaired by later updates like any other.
* **Between the two**, the graph is always recoverable (snapshot + WAL
  replay); only the RTC warmth degrades -- entries stamped with an older
  LSN than the recovered log position are discarded, never served
  stale.
* ``close()`` flushes and fsyncs pending WAL state and releases the
  handles; it is idempotent.  It does *not* take an implicit checkpoint
  -- an operator who wants a warm next start calls ``checkpoint()``
  first.

When the data directory already holds state, ``open`` recovers from it
and the ``source`` argument serves only as the seed for a first, empty
start.  See the README's "Durability & warm restarts" section.

Concurrency contract
--------------------
A session may be shared across threads: every stateful operation
(``execute``'s evaluation step, ``update``, ``watch``, ``stats``,
``close``) is serialised by one internal :class:`threading.RLock`, so
concurrent callers see a consistent graph/watcher/cache state but do
**not** evaluate in parallel.  For parallel evaluation, run multiple
engines over the same (thread-safe) shared-data cache -- that is exactly
what :mod:`repro.server` does with its worker pool
(:meth:`~GraphDB.worker_engine`), using the session only for updates,
watchers and statistics.  Lazy result sets capture the
session; forcing them from another thread takes the same lock.
"""

from __future__ import annotations

import threading
from os import PathLike
from pathlib import Path
from collections.abc import Iterable, Sequence
from functools import partial

from repro.core.cache import RTCCache
from repro.core.engines import evaluate_plan
from repro.core.incremental import IncrementalRTC, RTCRepair, build_rtc
from repro.core.plan import Plan, plan_for
from repro.db.prepared import PreparedQuery
from repro.db.registry import create_engine
from repro.db.resultset import ExecutionStats, ResultSet
from repro.errors import ReproError
from repro.graph.io import load_edge_list
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import ambient_span
from repro.regex.ast import RegexNode
from repro.regex.parser import parse

__all__ = ["GraphDB"]


def _coerce_storage(storage):
    """Accept a :class:`ShardStorage` or anything path-like naming one."""
    from repro.storage.recovery import ShardStorage

    if isinstance(storage, ShardStorage):
        return storage
    return ShardStorage(storage)


class GraphDB:
    """A session over one graph with one registered engine and its caches."""

    def __init__(
        self,
        graph: LabeledMultigraph,
        engine: str = "rtc",
        storage: "ShardStorage | str | PathLike | None" = None,
        checkpoint_every: int | None = None,
        **engine_kwargs,
    ) -> None:
        if not isinstance(graph, LabeledMultigraph):
            raise TypeError(
                f"GraphDB binds a LabeledMultigraph, got {type(graph).__name__}; "
                "use GraphDB.open() to load paths or edge iterables"
            )
        if checkpoint_every is not None and (
            not isinstance(checkpoint_every, int) or checkpoint_every < 1
        ):
            raise ValueError(
                f"checkpoint_every must be a positive int or None, got {checkpoint_every!r}"
            )
        self.graph = graph
        self.engine_name = engine.lower()
        self._engine_options = dict(engine_kwargs)
        self.engine = create_engine(self.engine_name, graph, **engine_kwargs)
        self._workers: list = []  # worker_engine()s, counted by stats()
        # The RTC cache every update repairs: the engine's when it keeps
        # one, else a session-owned one for the watched bodies.
        cache = getattr(self.engine, "rtc_cache", None)
        build = getattr(self.engine, "build_rtc", None)
        self._repairs_engine = cache is not None and build is not None
        if not self._repairs_engine:
            cache, build = RTCCache(), partial(build_rtc, graph)
        self._rtc_cache: RTCCache = cache
        self._build_rtc = build
        self._watchers: dict[str, IncrementalRTC] = {}
        self._closed = False
        # Serialises execute/update/watch/stats/close across threads --
        # see the module docstring's concurrency contract.
        self._lock = threading.RLock()
        # -- durability (see the module docstring's durability contract) --
        self._storage = None
        self._checkpoint_every = checkpoint_every
        self._updates_since_checkpoint = 0
        self._warm = {"entries": 0, "watchers": 0, "stale": 0}
        if storage is not None:
            storage = _coerce_storage(storage)
            self._warm = storage.bind(self)
            self._storage = storage

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def open(
        cls,
        source: LabeledMultigraph | str | PathLike | Iterable | None = None,
        engine: str = "rtc",
        storage: "ShardStorage | str | PathLike | None" = None,
        checkpoint_every: int | None = None,
        **engine_kwargs,
    ) -> "GraphDB":
        """Open a session over a graph, an edge-list file, or edge triples.

        With ``storage=`` (a data directory or
        :class:`~repro.storage.ShardStorage`), the session is durable:
        updates are write-ahead logged and :meth:`checkpoint` rolls the
        snapshot forward (every ``checkpoint_every`` logged updates,
        automatically).  When the directory already holds state, the
        session recovers from it -- ``source`` is then only the *seed*
        for a first, empty start and may be ``None`` for recover-only
        opens.
        """
        if storage is not None:
            storage = _coerce_storage(storage)
            if storage.recovered is not None:
                graph = storage.recovered.graph
            elif storage.has_state():
                graph = storage.recover().graph
            else:
                graph = None
            if graph is not None:
                return cls(
                    graph,
                    engine=engine,
                    storage=storage,
                    checkpoint_every=checkpoint_every,
                    **engine_kwargs,
                )
        if source is None:
            raise TypeError(
                "GraphDB.open needs a source graph (the storage directory "
                "holds no recoverable state)"
            )
        if isinstance(source, LabeledMultigraph):
            graph = source
        elif isinstance(source, (str, PathLike, Path)):
            graph = load_edge_list(source)
        else:
            graph = LabeledMultigraph.from_edges(source)
        return cls(
            graph,
            engine=engine,
            storage=storage,
            checkpoint_every=checkpoint_every,
            **engine_kwargs,
        )

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def engine_options(self) -> dict:
        """The keyword options the session's engine was built with."""
        return dict(self._engine_options)

    def worker_engine(self):
        """A new engine built from :attr:`engine_options`, sharing our caches.

        Its timers and counters are its own; :meth:`stats` counts its
        evaluations.  The server's workers are such engines.
        """
        engine = create_engine(self.engine_name, self.graph, **self._engine_options)
        for attribute in ("rtc_cache", "closure_cache"):
            shared = getattr(self.engine, attribute, None)
            if shared is not None and hasattr(engine, attribute):
                setattr(engine, attribute, shared)
        with self._lock:
            self._workers.append(engine)
        return engine

    def close(self) -> None:
        """Drop shared caches and watchers; further queries raise.

        With storage attached, pending WAL state is flushed and fsync'd
        and the handles released first.  Idempotent either way.  No
        implicit checkpoint is taken -- call :meth:`checkpoint` before
        closing when the next start should come back warm.
        """
        with self._lock:
            if self._closed:
                return
            if self._storage is not None:
                self._storage.sync()
                self._storage.close()
            self._rtc_cache.clear()
            self._reset_engine_cache()
            self._watchers.clear()
            self._closed = True

    def _reset_engine_cache(self) -> None:
        # Minimal duck-typed engines (evaluate() only) have no caches.
        reset = getattr(self.engine, "reset_cache", None)
        if reset is not None:
            reset()

    def _invalidate_engine_cache(self, labels: set, vertex_added: bool) -> None:
        # A duck-typed engine knows at most how to drop everything.
        invalidate = getattr(self.engine, "invalidate_cache", None)
        if invalidate is None:
            self._reset_engine_cache()
        else:
            invalidate(labels, vertex_added)

    def __enter__(self) -> "GraphDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("this GraphDB session is closed")

    # -- querying --------------------------------------------------------
    def prepare(self, query: str | RegexNode) -> PreparedQuery:
        """Bind ``query``'s shared plan to this session as a reusable handle."""
        self._check_open()
        return PreparedQuery(self, plan_for(query))

    def execute(
        self, query: str | RegexNode | PreparedQuery, *, lazy: bool = False
    ) -> ResultSet:
        """Evaluate one RPQ; returns a :class:`ResultSet`.

        ``lazy=True`` defers evaluation until the result's pairs (or any
        derived statistic) are first touched.
        """
        self._check_open()
        if isinstance(query, PreparedQuery):
            text, plan = query.text, query.plan
        else:
            plan = plan_for(query)
            text = plan.node.to_string()

        def fetch() -> tuple[set, ExecutionStats]:
            self._check_open()
            return self._run(plan)

        result = ResultSet(text, self.engine_name, fetch=fetch)
        if not lazy:
            result.pairs  # noqa: B018 -- force evaluation now
        return result

    def execute_many(
        self, queries: Sequence, *, lazy: bool = False
    ) -> list[ResultSet]:
        """Evaluate a multiple-RPQ set on the shared session caches."""
        return [self.execute(query, lazy=lazy) for query in queries]

    def explain(self, query: str | RegexNode | PreparedQuery):
        """Static evaluation plan of ``query`` (nothing is evaluated)."""
        self._check_open()
        if not isinstance(query, PreparedQuery):
            query = self.prepare(query)
        return query.explain()

    def _run(self, plan: Plan) -> tuple[set, ExecutionStats]:
        """Evaluate ``plan``; its phase times are this query's own.

        Holds the session lock for the whole evaluation: queries on one
        session are serialised against each other and against updates.
        """
        with self._lock:
            engine = self.engine
            with ambient_span("evaluate") as span:
                pairs, elapsed, phases = evaluate_plan(engine, plan)
                if span is not None:
                    for phase, seconds in phases.items():
                        span.attrs[phase] = round(seconds, 6)
            shared_size = getattr(engine, "shared_data_size", lambda: 0)()
        return pairs, ExecutionStats(
            total_time=elapsed, phase_times=phases, shared_pairs=shared_size
        )

    def summarise(self, nfa, boundary, entries=()):
        """Shard-local boundary-join summary *under the session lock*.

        Runs :func:`repro.rpq.partial.summarise_shard` against this
        session's graph while holding the same lock :meth:`update` takes,
        so the traversal never observes a half-applied edge batch.
        Used by the cluster's boundary-join path; see
        :mod:`repro.cluster.backends`.
        """
        from repro.rpq.partial import summarise_shard

        with self._lock:
            self._check_open()
            with ambient_span("partial") as span:
                if span is not None:
                    span.attrs["boundary"] = len(boundary)
                    span.attrs["entries"] = len(entries)
                return summarise_shard(self.graph, nfa, boundary, entries)

    # -- updates ---------------------------------------------------------
    def watch(self, body: str | RegexNode) -> IncrementalRTC:
        """Build and pin the RTC of closure body ``body``; return its handle.

        The RTC is the entry of :attr:`rtc_cache` -- the very object
        queries on the body join against -- which every :meth:`update`
        repairs; the handle's ``reaches`` / ``snapshot`` / ``plus_pairs``
        read that current entry.  Pinned bodies are rebuilt after a
        failing batch and persisted by :meth:`checkpoint` as watched.
        Idempotent per normalised body.
        """
        node = parse(body)
        with self._lock:
            self._check_open()
            return self._watch_locked(node)

    def _watch_locked(self, node: RegexNode) -> IncrementalRTC:
        name = node.to_string()
        watcher = self._watchers.get(name)
        if watcher is None:
            watcher = IncrementalRTC(self.graph, node, self._rtc_cache, self._build_rtc)
            self._watchers[name] = watcher
        return watcher

    @property
    def watchers(self) -> dict[str, IncrementalRTC]:
        """Watch handles, keyed by normalised closure body."""
        with self._lock:
            return dict(self._watchers)

    @property
    def rtc_cache(self) -> RTCCache:
        """The RTC cache :meth:`update` keeps exact: the engine's own, or,
        for engines that keep none, the session's cache of watched bodies."""
        return self._rtc_cache

    def reaches(self, body: str | RegexNode, source: object, target: object) -> bool:
        """Streaming reachability: ``(source, target) in (body+)_G``.

        Read off the current cached RTC of ``body`` (watched on first
        use) *under the session lock*, so a probe never observes a
        half-applied :meth:`update`.
        """
        watcher = self.watch(body)
        with self._lock:
            return bool(watcher.reaches(source, target))

    def update(
        self,
        add: Iterable[tuple] = (),
        remove: Iterable[tuple] = (),
    ) -> None:
        """Apply streaming edge changes to the graph.

        The shared data of a closure body ``R`` depends only on edges
        whose label occurs in ``R`` (and, for a nullable ``R``, on the
        vertex set), so an update reaches only what it can have changed
        (:func:`~repro.core.cache.update_touches`).  Each cached RTC it
        can have changed -- watched or not -- is repaired where it lives
        (:mod:`repro.core.incremental`): the rows of ``G_R`` the batch
        can have moved are recomputed and, if one did, a new RTC is
        published under the same key; otherwise the entry stays the same
        object.  ``full``'s materialised closures of such bodies are
        dropped instead.  Every other entry survives as the same object,
        so the next query on it is a hit.

        A failing edge (duplicate insertion, removal of an absent edge)
        raises after the earlier edges of the batch were applied; the
        session stays consistent with the partially-updated graph --
        *every* cache entry is dropped and every watched body rebuilt
        from it before the error propagates.

        With storage attached the applied edges are write-ahead logged
        (fsync'd) before this method returns -- including the applied
        prefix of a failing batch, so replay always reproduces the live
        graph.  Edges the storage format cannot persist raise
        :class:`~repro.errors.StorageError` *before* anything mutates.
        """
        with self._lock:
            self._update_locked(add, remove)

    def _update_locked(self, add: Iterable[tuple], remove: Iterable[tuple]) -> None:
        self._check_open()
        add = [tuple(edge) for edge in add]
        remove = [tuple(edge) for edge in remove]
        if self._storage is not None:
            self._storage.validate_edges(add + remove)
        repair = RTCRepair(self._rtc_cache, self.graph, self._build_rtc)
        applied_add: list[tuple] = []
        applied_remove: list[tuple] = []
        vertex_added = False
        try:
            for source, label, target in add:
                new_vertices = [
                    vertex
                    for vertex in (source, target)
                    if not self.graph.has_vertex(vertex)
                ]
                self.graph.add_edge(source, label, target)
                applied_add.append((source, label, target))
                vertex_added = vertex_added or bool(new_vertices)
                repair.edge_added(source, label, target, new_vertices)
            for source, label, target in remove:
                repair.edge_removing(source, label, target)
                self.graph.remove_edge(source, label, target)
                applied_remove.append((source, label, target))
            outcomes = repair.finish()
        except BaseException:
            self._rtc_cache.clear()
            self._reset_engine_cache()
            for watcher in self._watchers.values():
                watcher.snapshot()
                watcher.record("reevaluated")
            # Log exactly the applied prefix: replay must reproduce the
            # partially-updated graph the live session keeps serving.
            self._log_applied(applied_add, applied_remove)
            raise
        for watcher in self._watchers.values():
            watcher.record(outcomes.get(watcher.key))
        if not self._repairs_engine:
            self._invalidate_engine_cache(
                {label for _source, label, _target in applied_add + applied_remove},
                vertex_added,
            )
        self._log_applied(applied_add, applied_remove)
        self._maybe_auto_checkpoint()

    def _log_applied(self, applied_add: list, applied_remove: list) -> None:
        if self._storage is None or (not applied_add and not applied_remove):
            return
        if self._storage.log_update(applied_add, applied_remove) is not None:
            self._updates_since_checkpoint += 1  # repro: noqa[RPR101] -- every caller (update/_update_locked, checkpoint) already holds self._lock

    def _maybe_auto_checkpoint(self) -> None:
        if (
            self._storage is not None
            and self._checkpoint_every is not None
            and self._updates_since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()

    # -- durability ------------------------------------------------------
    @property
    def storage(self):
        """The attached :class:`~repro.storage.ShardStorage`, or ``None``."""
        return self._storage

    @property
    def warm_stats(self) -> dict:
        """What the RTC store installed at open time.

        ``{"entries": n, "watchers": n, "stale": n}`` -- closures
        installed into the engine's RTC cache, watched bodies restored
        without recomputation, and store entries skipped because their
        LSN stamp (or cache mode) no longer matched.  All zeros for cold
        starts and storage-less sessions.
        """
        return dict(self._warm)

    def checkpoint(self, extra_sessions: Sequence["GraphDB"] = ()) -> dict:
        """Commit a snapshot + warm RTC store covering the current LSN.

        After this returns, recovery replays *no* WAL records and comes
        back hot for every closure body cached right now (in this session
        or any of the ``extra_sessions`` -- replica siblings that saw the
        same update stream).  Raises
        :class:`~repro.errors.StorageError` without storage attached.
        """
        from repro.errors import StorageError

        with self._lock:
            self._check_open()
            if self._storage is None:
                raise StorageError(
                    "this session has no storage attached; open it with storage="
                )
            info = self._storage.checkpoint(self, tuple(extra_sessions))
            self._updates_since_checkpoint = 0
            return info

    def install_rtc(
        self, key: str, rtc, body: str | None = None, watched: Iterable[str] = ()
    ) -> None:
        """Install a persisted RTC under ``key`` of :attr:`rtc_cache`.

        The warm-start entry point used by :mod:`repro.storage.rtc_store`:
        ``rtc`` comes from a store entry whose LSN stamp matches the
        recovered log position, so it is exact for the current graph.
        ``body`` names the closure body (so updates can repair the entry
        whatever the cache mode); each of ``watched`` is then watched --
        a handle on the installed entry, nothing recomputed.
        """
        with self._lock:
            self._check_open()
            self._rtc_cache.store(key, rtc, body=None if body is None else parse(body))
            for name in watched:
                self._watch_locked(parse(name))

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict:
        """Session statistics: the graph, the engine, and its sharing state."""
        with self._lock:
            self._check_open()
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        engine = self.engine
        evaluators = [engine, *self._workers]  # the workers' reads are ours
        document = {
            "engine": self.engine_name,
            "graph": {
                "vertices": self.graph.num_vertices,
                "edges": self.graph.num_edges,
                "labels": self.graph.num_labels,
            },
            "queries_evaluated": sum(
                getattr(each, "queries_evaluated", 0) for each in evaluators
            ),
            "total_time": sum(getattr(each, "total_time", 0.0) for each in evaluators),
            "shared_pairs": getattr(engine, "shared_data_size", lambda: 0)(),
            "watchers": sorted(self._watchers),
        }
        if self._storage is not None:
            document["storage"] = dict(self._storage.stats())
            document["storage"]["warm"] = dict(self._warm)
            document["storage"]["updates_since_checkpoint"] = self._updates_since_checkpoint
            document["storage"]["checkpoint_every"] = self._checkpoint_every
        return document

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"GraphDB(engine={self.engine_name!r}, |V|={self.graph.num_vertices}, "
            f"|E|={self.graph.num_edges}, {state})"
        )
