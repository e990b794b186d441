"""The process-mode shard worker: one shard served from its own process.

:func:`worker_main` is the ``spawn`` entry point
:class:`~repro.cluster.backends.ProcessBackend` launches.  It

1. loads the shard graph from the :mod:`repro.storage.snapshot`
   document the backend wrote -- the vertex table (isolated vertices
   included, so nullable queries keep their reflexive pairs; ``"123"``
   and ``123`` stay distinct) plus per-label id rows, ids as the router
   assigned them -- or, when its data directory holds committed state,
   recovers instead;
2. builds an :class:`~repro.cluster.backends.InProcessBackend` over it
   (the same replica group, body-affine picking and drain-then-apply
   update broadcast as thread mode -- process mode changes the
   transport, never the semantics);
3. serves it over the ordinary JSON-lines protocol with
   :class:`ShardWorkerServer`, reports the bound ephemeral address back
   through the ready pipe, and runs until ``SIGTERM`` shuts it down
   gracefully (listener closed, schedulers drained, sessions closed).

Workers optionally log to a per-shard file (``log_path``); CI captures
those files as an artifact when a process-backend job fails.

Queries arrive as text: the worker plans them through its own
process's plan cache (:func:`~repro.core.plan.plan_for`), so a repeated
text costs one lookup there too, and warms a new plan's group key off
the event loop before admission.

The worker speaks the unchanged wire protocol -- any
:class:`~repro.server.Client` can talk to a shard worker directly --
plus two extensions: ``{"op": "stats", "shard": true}`` adds the
structured per-replica shard document the router's stats aggregation
pools (raw latency reservoirs included, so cluster-wide percentiles
stay percentiles of the pooled values, not averages of averages); and
``{"op": "query", "query": ..., "mode": "summary", "boundary": [...],
"entries": [[vertex, state], ...]}`` answers the shard's one call of a
boundary join (see :func:`repro.rpq.partial.summarise_shard`) with a
``summary`` response object instead of ``results``: vertices verbatim,
tag masks as hex strings
(:func:`repro.cluster.boundary.summary_to_wire`).
"""

from __future__ import annotations

import asyncio
import logging
import sys
import time
from dataclasses import dataclass, field

from repro.cluster.backends import InProcessBackend, aggregate_scheduler_stats
from repro.cluster.boundary import summary_to_wire
from repro.server import protocol
from repro.server.service import QueryServer, ServerConfig

__all__ = ["WorkerSpec", "ShardWorkerServer", "worker_main"]


@dataclass
class WorkerSpec:
    """Everything a spawned worker needs (must stay picklable)."""

    shard_id: int
    #: The shard graph as a :func:`repro.storage.snapshot.dump_graph`
    #: document.
    graph_path: str | None = None
    engine: str = "rtc"
    replicas: int = 1
    workers: int = 2
    max_queue: int = 256
    #: Collection bounds of each replica scheduler while all its workers
    #: are busy (seconds / jobs); unused when a worker is free.
    batch_window: float = 0.005
    max_batch: int = 64
    engine_kwargs: dict = field(default_factory=dict)
    host: str = "127.0.0.1"
    log_path: str | None = None
    #: Durable data directory (WAL + snapshots + RTC store).  When it
    #: holds committed state the worker *recovers* from it -- replaying
    #: snapshot + WAL before reporting ready -- and the graph handoff
    #: fields above are ignored.
    data_dir: str | None = None
    #: Auto-checkpoint after this many logged updates (None = manual).
    checkpoint_every: int | None = None


class ShardWorkerServer(QueryServer):
    """A :class:`QueryServer` whose scheduler *and* session surface is
    one :class:`~repro.cluster.backends.InProcessBackend`.

    The base handlers drive the backend directly (``submit`` /
    ``watch`` / ``reaches`` / ``checkpoint``).  What differs: ``stats``
    (shard-document extension), the ``mode: "summary"`` query, the
    plans' group keys warmed before a query is admitted, and update
    admission taken off the event loop.
    """

    def __init__(
        self, backend: InProcessBackend, config: ServerConfig | None = None
    ) -> None:
        self.backend = backend
        super().__init__(db=backend, config=config, scheduler=backend)
        # The base ``checkpoint`` verb routes to self.db.checkpoint --
        # here that *is* the backend's drain-then-commit, no override
        # needed.

    async def _op_query(self, request_id, request) -> dict:
        if request.get("mode") == "summary":
            return await self._op_summary(request_id, request)
        return await super()._op_query(request_id, request)

    async def _warm(self, plans) -> None:
        # A plan's first group key walks its DNF, which must not stall
        # the socket multiplexer; replica picking reads it at admission.
        await self._warm_off_loop(plans, self.backend.cache_mode)

    async def _op_summary(self, request_id, request) -> dict:
        """The ``mode: "summary"`` query extension (boundary-join path)."""
        text = request.get("query")
        if not isinstance(text, str):
            raise protocol.ProtocolError(
                "summary-mode 'query' op needs a single 'query' string"
            )
        boundary = request.get("boundary", [])
        if not isinstance(boundary, list):
            raise protocol.ProtocolError("'boundary' must be a vertex list")
        entries = request.get("entries", [])
        if not isinstance(entries, list) or not all(
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[1], int)
            for entry in entries
        ):
            raise protocol.ProtocolError(
                "'entries' must be a list of [vertex, state] pairs"
            )
        entries = [tuple(entry) for entry in entries]
        # A propagated router trace joins here: the backend activates it
        # around the evaluation, the session records its ``partial``
        # span into it, and the subtree ships back for the router's
        # join-round span to adopt.
        tracer, parent, root_span, echo = self._begin_trace(request)
        started = time.monotonic()
        trace = (tracer, parent) if tracer is not None else None
        # Admission + planning happen off the loop (first contact with
        # a text parses it and compiles its automaton), like the warm-up.
        future = await self._in_executor(
            lambda: self.backend.summary(
                text,
                boundary=boundary,
                entries=entries,
                timeout=request.get("timeout"),
                trace=trace,
            )
        )
        summary, elapsed = await asyncio.wrap_future(future)
        payload = summary_to_wire(summary)
        payload["time"] = elapsed
        return await self._reply(
            request_id, (tracer, root_span, echo), [text], started, summary=payload
        )

    async def _submit_update(self, add, remove, trace):
        # Blocking admission to every replica queue -- off the loop.
        return await self._in_executor(
            lambda: self.backend.update(add=add, remove=remove, trace=trace)
        )

    async def _op_stats(self, request_id, request) -> dict:
        def collect() -> tuple[dict, dict]:
            document = self.backend.stats()
            scheduler = aggregate_scheduler_stats(
                [replica["scheduler"] for replica in document["replicas"]],
                document["latency_values"],
            )
            return document, scheduler

        document, scheduler = await self._in_executor(collect)
        stats = {
            "server": self._server_stats(),
            "scheduler": scheduler,
            "session": document["replicas"][0]["session"],
        }
        if request.get("shard"):
            stats["shard"] = document
        return protocol.ok_response(request_id, stats=stats)


def _configure_logging(spec: WorkerSpec) -> logging.Logger:
    logger = logging.getLogger(f"repro.cluster.worker.shard{spec.shard_id}")
    logger.setLevel(logging.INFO)
    if spec.log_path:
        handler = logging.FileHandler(spec.log_path, encoding="utf-8")
        handler.setFormatter(
            logging.Formatter(
                "%(asctime)s shard{} %(levelname)s %(message)s".format(
                    spec.shard_id
                )
            )
        )
        logger.addHandler(handler)
    return logger


def worker_main(spec: WorkerSpec, ready_conn) -> None:
    """Process entry point: serve one shard until SIGTERM.

    Reports ``("ready", host, port)`` or ``("error", message)`` through
    ``ready_conn`` exactly once, then serves until terminated.  Exits
    non-zero on startup failure or crash so the parent's ``exitcode``
    is meaningful.
    """
    logger = _configure_logging(spec)
    try:
        recovering = False
        if spec.data_dir is not None:
            from repro.storage.recovery import has_state

            recovering = has_state(spec.data_dir)
        if recovering:
            # Recovery happens inside InProcessBackend (snapshot + WAL
            # replay + warm RTC install) -- strictly before the ready
            # message, so a parent that saw "ready" talks to a shard
            # already caught up with its own log.
            graph = None
            logger.info(
                "shard %d recovering from %s", spec.shard_id, spec.data_dir
            )
        elif spec.graph_path is not None:
            from repro.storage.snapshot import load_graph

            graph = load_graph(spec.graph_path)
        else:
            raise ValueError(
                f"shard {spec.shard_id}: no graph source and no recoverable "
                f"state in {spec.data_dir!r}"
            )
        backend = InProcessBackend(
            spec.shard_id,
            graph,
            engine=spec.engine,
            replicas=spec.replicas,
            workers=spec.workers,
            max_queue=spec.max_queue,
            batch_window=spec.batch_window,
            max_batch=spec.max_batch,
            engine_kwargs=spec.engine_kwargs,
            storage_dir=spec.data_dir,
            checkpoint_every=spec.checkpoint_every,
            start=False,
        )
        server = ShardWorkerServer(
            backend,
            ServerConfig(host=spec.host, port=0, default_timeout=None),
        )
    except BaseException as error:  # noqa: BLE001  # repro: noqa[RPR701] -- worker-process boundary: the failure is serialised to the parent over the ready pipe, then the process exits
        logger.exception("shard %d failed to start", spec.shard_id)
        ready_conn.send(("error", f"{type(error).__name__}: {error}"))
        ready_conn.close()
        sys.exit(1)

    def announce(address) -> None:
        host, port = address
        served = backend.replicas[0].db.graph
        logger.info(
            "serving shard %d (|V|=%d, |E|=%d, %d replicas x %d workers, "
            "engine=%s%s) on %s:%d",
            spec.shard_id,
            served.num_vertices,
            served.num_edges,
            spec.replicas,
            spec.workers,
            spec.engine,
            ", recovered" if recovering else "",
            host,
            port,
        )
        ready_conn.send(("ready", host, port))
        ready_conn.close()

    try:
        server.run(ready_callback=announce)
    except BaseException:  # noqa: BLE001  # repro: noqa[RPR701] -- worker-process boundary: the crash log is the artifact; the process exits 1 and the parent sees the dead socket
        logger.exception("shard %d crashed", spec.shard_id)
        sys.exit(1)
    logger.info("shard %d shut down cleanly", spec.shard_id)
