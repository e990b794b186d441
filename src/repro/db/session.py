"""The :class:`GraphDB` session -- the library's database-style facade.

One session owns one graph, one engine instance (chosen by name from the
:mod:`repro.db.registry`), that engine's shared caches, and any number of
incremental watchers.  The lifecycle mirrors a classical database
driver::

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
  RTC store (every cached closure and watcher, LSN-stamped) and the
  manifest naming them are committed, and the now-covered WAL has been
  compacted.  Recovery cost is proportional to updates since the last
  checkpoint; warm-start coverage is "whatever was cached at the last
  checkpoint, if no update followed it".
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
what :mod:`repro.server` does with its worker pool, using the session
only for updates, watchers and statistics.  Lazy result sets capture the
session; forcing them from another thread takes the same lock.
"""

from __future__ import annotations

import threading
import time
from os import PathLike
from pathlib import Path
from collections.abc import Iterable, Sequence

from repro.core.cache import update_touches
from repro.core.incremental import IncrementalRTC
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
        self.engine = create_engine(self.engine_name, graph, **engine_kwargs)
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
        """Parse and decompose ``query`` into a reusable handle."""
        self._check_open()
        max_clauses = getattr(self.engine, "max_clauses", 4096)
        return PreparedQuery(self, parse(query), max_clauses=max_clauses)

    def execute(
        self, query: str | RegexNode | PreparedQuery, *, lazy: bool = False
    ) -> ResultSet:
        """Evaluate one RPQ; returns a :class:`ResultSet`.

        ``lazy=True`` defers evaluation until the result's pairs (or any
        derived statistic) are first touched.
        """
        self._check_open()
        if isinstance(query, PreparedQuery):
            text, node = query.text, query.node
        else:
            node = parse(query)
            text, node = node.to_string(), node

        def fetch() -> tuple[set, ExecutionStats]:
            self._check_open()
            return self._run(node)

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

    def _run(self, node: RegexNode) -> tuple[set, ExecutionStats]:
        """Evaluate ``node`` and attribute timer deltas to this query.

        Holds the session lock for the whole evaluation: queries on one
        session are serialised against each other and against updates.
        """
        with self._lock:
            engine = self.engine
            timer = getattr(engine, "timer", None)
            before = timer.snapshot() if timer is not None else {}
            with ambient_span("evaluate") as span:
                started = time.perf_counter()
                pairs = engine.evaluate(node)
                elapsed = time.perf_counter() - started
                after = timer.snapshot() if timer is not None else {}
                phases = {
                    phase: after[phase] - before.get(phase, 0.0) for phase in after
                }
                if span is not None:
                    for phase, seconds in phases.items():
                        if seconds > 0:
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
        """Maintain the RTC of closure body ``body`` across :meth:`update`.

        Returns the (idempotently created) incremental maintainer; its
        ``reaches``/``snapshot`` answer streaming reachability without
        re-running the batch pipeline.
        """
        key = parse(body).to_string()
        with self._lock:
            self._check_open()
            watcher = self._watchers.get(key)
            if watcher is None:
                watcher = IncrementalRTC(self.graph, key)
                self._watchers[key] = watcher
        return watcher

    @property
    def watchers(self) -> dict[str, IncrementalRTC]:
        """Active incremental watchers, keyed by normalised closure body."""
        with self._lock:
            return dict(self._watchers)

    def reaches(self, body: str | RegexNode, source: object, target: object) -> bool:
        """Streaming reachability: ``(source, target) in (body+)_G``.

        Answered from the (idempotently created) incremental watcher of
        ``body`` *under the session lock*, so a probe never observes the
        torn intermediate state of a concurrent :meth:`update` rebuild.
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
        (:func:`~repro.core.cache.update_touches`): watchers whose body
        reads an inserted edge's label are repaired incrementally
        (:mod:`repro.core.incremental`), watchers whose body reads a
        removed edge's label are recomputed from the updated graph, and
        the engine drops the cached closures of such bodies.  Every
        other watcher is left alone and every other cache entry survives
        as the same object, so the next query on it is a hit.

        A failing edge (duplicate insertion, removal of an absent edge)
        raises after the earlier edges of the batch were applied; the
        session stays consistent with the partially-updated graph --
        *all* watchers are rebuilt from it and the *whole* engine cache
        dropped before the error propagates.

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
        watchers = list(self._watchers.values())
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
                for watcher in watchers:
                    if update_touches(
                        watcher.alphabet, watcher.nullable, (label,), bool(new_vertices)
                    ):
                        watcher.notify_edge_added(source, label, target, new_vertices)
            for source, label, target in remove:
                self.graph.remove_edge(source, label, target)
                applied_remove.append((source, label, target))
            # Removal keeps the endpoints, so only the labels matter.
            removed_labels = {label for _source, label, _target in applied_remove}
            for watcher in watchers:
                if update_touches(watcher.alphabet, watcher.nullable, removed_labels, False):
                    watcher.notify_graph_replaced()
        except BaseException:
            if applied_add or applied_remove:
                for watcher in watchers:
                    watcher.notify_graph_replaced()
            self._reset_engine_cache()
            # Log exactly the applied prefix: replay must reproduce the
            # partially-updated graph the live session keeps serving.
            self._log_applied(applied_add, applied_remove)
            raise
        self._invalidate_engine_cache(
            {label for _source, label, _target in applied_add} | removed_labels,
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

        ``{"entries": n, "watchers": n, "stale": n}`` -- cached closures
        installed, watchers restored without recomputation, and store
        entries skipped because their LSN stamp (or cache mode) no
        longer matched.  All zeros for cold starts and storage-less
        sessions.
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

    def restore_watcher(
        self, body: str | RegexNode, gr_edges: Iterable[tuple], rtc
    ) -> IncrementalRTC:
        """Install a persisted watcher without re-running ``eval_rpq``.

        The warm-start entry point used by :mod:`repro.storage.rtc_store`;
        ``gr_edges``/``rtc`` come from a store entry whose LSN stamp
        matches the recovered log position, so the state is exact for the
        current graph.
        """
        key = parse(body).to_string()
        with self._lock:
            self._check_open()
            watcher = IncrementalRTC.from_state(self.graph, key, gr_edges, rtc)
            self._watchers[key] = watcher
        return watcher

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict:
        """Session statistics: the graph, the engine, and its sharing state."""
        with self._lock:
            self._check_open()
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        engine = self.engine
        document = {
            "engine": self.engine_name,
            "graph": {
                "vertices": self.graph.num_vertices,
                "edges": self.graph.num_edges,
                "labels": self.graph.num_labels,
            },
            "queries_evaluated": getattr(engine, "queries_evaluated", 0),
            "total_time": getattr(engine, "total_time", 0.0),
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
