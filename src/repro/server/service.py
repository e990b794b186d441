"""The asyncio JSON-lines TCP server fronting one :class:`GraphDB`.

The event loop owns the sockets: requests are decoded, validated and
handed to the :class:`~repro.server.scheduler.SharingScheduler`.  A
warm read -- its closure bodies cached, the scheduler idle, its last
evaluation shorter than one interpreter switch interval -- is evaluated
right there on the loop and answered without a thread hop; cold reads,
slow ones and updates go to the scheduler's worker threads, and the
loop stays free to accept and multiplex clients while they grind.
Responses are written back on the connection the request arrived on,
tagged with the request ``id``.

A query's text is planned on the loop through the process-wide plan
cache (:func:`~repro.core.plan.plan_for`): a repeated text -- the
steady state of a serving workload -- is one dict lookup, a new one is
parsed there and nothing more.  Its DNF, group key and batch units are
derived from the plan later, on the scheduler's threads.  ``timeout``
must be a finite, non-negative number and ``pairs`` a bool; anything
else is a ``bad_request``.

Three entry points:

* :class:`QueryServer` -- the async server proper (``await start()`` /
  ``serve_forever()`` / ``stop()``);
* :meth:`QueryServer.run` -- blocking convenience for the CLI
  (``repro serve``);
* :class:`ServerThread` -- runs the whole server on a background
  daemon thread; the handle tests, benchmarks and examples use
  (``with ServerThread(db) as handle: Client(*handle.address)``).
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time

from dataclasses import dataclass

from repro.core.plan import plan_for
from repro.db.session import GraphDB
from repro.errors import (
    AdmissionError,
    ProtocolError,
    ReproError,
    RPQSyntaxError,
    ServerError,
)
from repro.obs import SlowQueryLog, Tracer, get_registry
from repro.regex.parser import parse
from repro.server import protocol
from repro.server.scheduler import SharingScheduler

__all__ = ["ServerConfig", "QueryServer", "ServerThread"]


@dataclass
class ServerConfig:
    """Tunables of one :class:`QueryServer` (defaults suit tests/dev).

    Engine options are the served session's own: every read evaluates
    on the session's engine.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is in server.address
    workers: int = 4
    max_queue: int = 256
    #: While every worker is busy: how long (seconds) the dispatcher
    #: collects into one batch (at most ``scheduler.MAX_BATCH`` jobs).
    #: With a worker free a read is dispatched on arrival and the window
    #: is not consulted (:mod:`repro.server.scheduler`).
    batch_window: float = 0.005
    #: Per-request deadline in seconds when the client sends none.
    default_timeout: float | None = 30.0
    #: Slow-query forensics: JSONL path for completed trace trees of
    #: requests slower than the threshold (None = off).  Enabling it
    #: traces *every* request server-side (the tree must already exist
    #: when the request turns out slow); responses stay unchanged.
    slow_query_log: str | None = None
    slow_query_threshold: float = 1.0


class QueryServer:
    """Concurrent, sharing-aware RPQ server over one session.

    ``scheduler`` defaults to a :class:`SharingScheduler` over ``db``;
    passing another object with the scheduler surface (``start`` /
    ``stop`` / ``submit`` / ``submit_update`` / ``stats``) re-targets the
    same protocol front end -- that is how
    :class:`~repro.cluster.ClusterRouter` serves a sharded deployment.
    There is one request path; front ends differ only in the two
    admission hooks :meth:`_warm` and :meth:`_submit_update`, and every
    scheduler's ``submit`` resolves to ``(pairs, elapsed)``.
    """

    def __init__(
        self,
        db: GraphDB,
        config: ServerConfig | None = None,
        scheduler=None,
    ) -> None:
        self.db = db
        self.config = config or ServerConfig()
        self.scheduler = scheduler if scheduler is not None else SharingScheduler(
            db,
            workers=self.config.workers,
            max_queue=self.config.max_queue,
            batch_window=self.config.batch_window,
            start=False,
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections = 0
        self._slow_log = (
            SlowQueryLog(
                self.config.slow_query_log, self.config.slow_query_threshold
            )
            if self.config.slow_query_log
            else None
        )
        self._handlers = {
            "query": self._op_query,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "update": self._op_update,
            "watch": self._op_watch,
            "reaches": self._op_reaches,
            "checkpoint": self._op_checkpoint,
            "ping": self._op_ping,
        }

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ServerError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        """Bind the listener and start the scheduler."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, then drain and stop the scheduler."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # stop() joins worker threads -- keep it off the event loop.
        await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.stop
        )

    def run(self, ready_callback=None, handle_signals: bool = True) -> None:
        """Blocking entry point (``repro serve``).

        Serves until interrupted.  When ``handle_signals`` is true and we
        are on the main thread, ``SIGTERM`` and ``SIGINT`` trigger a
        *graceful* shutdown: the listener closes, the scheduler drains
        its in-flight work, and the call returns.
        """

        async def main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            stop_requested = asyncio.Event()
            installed: list[signal.Signals] = []
            if (
                handle_signals
                and threading.current_thread() is threading.main_thread()
            ):
                for signum in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(signum, stop_requested.set)
                    except (NotImplementedError, RuntimeError, ValueError):
                        continue  # platform/loop without signal support
                    installed.append(signum)
            # Announce only once the graceful-shutdown handlers are in
            # place: a supervisor may SIGTERM the instant it learns the
            # address.
            if ready_callback is not None:
                ready_callback(self.address)
            serve_task = asyncio.ensure_future(self._server.serve_forever())
            stop_task = asyncio.ensure_future(stop_requested.wait())
            try:
                await asyncio.wait(
                    {serve_task, stop_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                for task in (serve_task, stop_task):
                    task.cancel()
                outcomes = await asyncio.gather(
                    serve_task, stop_task, return_exceptions=True
                )
                for signum in installed:
                    loop.remove_signal_handler(signum)
                await self.stop()
            # A listener crash is a crash, not a shutdown: re-raise it
            # (after cleanup) so callers -- the CLI --
            # exit loudly instead of reporting a clean stop.
            serve_outcome = outcomes[0]
            if isinstance(serve_outcome, BaseException) and not isinstance(
                serve_outcome, asyncio.CancelledError
            ):
                raise serve_outcome

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass

    # -- connection handling ---------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # line longer than the read limit
                    response = protocol.error_response(
                        None, ProtocolError("request line too long")
                    )
                    writer.write(protocol.encode(response))
                    await writer.drain()
                    break
                except asyncio.CancelledError:
                    # Only loop teardown cancels a handler, and only
                    # while it idles here between requests: a stop with
                    # the client still connected is a normal close, not
                    # an error for the stream callback to log.
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                data = protocol.encode(response)
                if len(data) > protocol.MAX_LINE_BYTES:
                    # The peer would reject the line and lose the stream.
                    data = protocol.encode(
                        protocol.too_large_response(response, len(data))
                    )
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(self, line: bytes) -> dict:
        request_id = None
        try:
            request = protocol.decode_line(line)
            request_id = request.get("id")
            op = request.get("op")
            handler = self._handlers.get(op)
            if handler is None:
                raise ProtocolError(
                    f"unknown op {op!r}; expected one of {', '.join(protocol.VERBS)}"
                )
            return await handler(request_id, request)
        except Exception as error:  # noqa: BLE001  # repro: noqa[RPR701] -- connection loop: every failure must become an error response, never a dead socket
            return protocol.error_response(request_id, error)

    # -- tracing ---------------------------------------------------------
    def _begin_trace(self, request):
        """Start this request's trace.

        Returns ``(tracer, root_span, echo)``:

        * no ``trace`` field and no slow-query log -> all ``None``/False
          -- the zero-cost path; nothing below allocates a span.
        * ``"trace": true`` -- a client-originated trace: fresh tracer,
          a ``request`` root span, and ``echo=True`` (the assembled tree
          goes back in the response).
        * slow-query log configured, client silent -> trace server-side
          only (``echo=False``): the tree feeds forensics, the response
          stays byte-identical.
        """
        wire = request.get("trace")
        if wire is None and self._slow_log is None:
            return None, None, False
        if wire is not None and wire is not True:
            raise ProtocolError("'trace' must be true")
        tracer = Tracer()
        return tracer, tracer.begin("request"), wire is True

    async def _finish_trace(self, tracer, root_span, queries, started) -> None:
        """Close the root span and feed the slow-query log (off-loop)."""
        tracer.finish(root_span)
        slow_log = self._slow_log
        if slow_log is None:
            return
        elapsed = time.monotonic() - started
        if elapsed < slow_log.threshold:
            return
        trace_wire = tracer.to_wire()

        def record() -> None:
            plans: dict = {}
            explain = getattr(self.db, "explain", None)
            if explain is not None:
                for text in queries:
                    try:
                        plan = explain(text)
                        describe = getattr(plan, "describe", None)
                        plans[text] = (
                            describe() if callable(describe) else str(plan)
                        )
                    except ReproError:
                        # Forensics only: a query that cannot be planned
                        # (syntax/evaluation errors) just has no plan in
                        # the slow-log entry.  Genuine bugs propagate.
                        continue
            slow_log.maybe_record(queries, elapsed, trace_wire, plans)

        await self._in_executor(record)

    # -- verbs -----------------------------------------------------------
    async def _op_query(self, request_id, request) -> dict:
        queries = request.get("queries")
        if queries is None and "query" in request:
            queries = [request["query"]]
        if (
            not isinstance(queries, list)
            or not queries
            or not all(isinstance(q, str) for q in queries)
        ):
            raise ProtocolError(
                "'query' op needs 'queries' (a non-empty list of strings) "
                "or 'query' (a string)"
            )
        timeout = request.get("timeout", self.config.default_timeout)
        # json.loads accepts NaN and Infinity, and a bool is an int: a
        # NaN deadline would never expire, ``true`` would mean 1 s.
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not math.isfinite(timeout)
            or timeout < 0
        ):
            raise ProtocolError(
                "'timeout' must be a finite, non-negative number of seconds"
            )
        include_pairs = request.get("pairs", True)
        if not isinstance(include_pairs, bool):
            raise ProtocolError("'pairs' must be true or false")
        enc = request.get("enc")
        if enc not in (None, "packed", "list"):
            raise ProtocolError("'enc' must be \"list\" or \"packed\" when present")

        # Plan everything before admitting anything: a syntax error
        # rejects the request without consuming queue slots.  A plan-cache
        # hit parses nothing; a miss parses here and leaves the DNF to
        # the scheduler's threads.
        try:
            plans = [plan_for(text) for text in queries]
        except RPQSyntaxError as error:
            return protocol.error_response(request_id, error)
        await self._warm(plans)

        tracer, root_span, echo = self._begin_trace(request)
        started = time.monotonic()

        futures = []
        try:
            for text, plan in zip(queries, plans):
                trace = None
                if tracer is not None:
                    query_span = tracer.begin(
                        "query", parent=root_span.span_id, query=text
                    )
                    trace = (tracer, query_span.span_id)
                future = self.scheduler.submit(
                    text, plan, timeout=timeout, trace=trace
                )
                if tracer is not None:
                    future.add_done_callback(
                        lambda _future, span=query_span: tracer.finish(span)
                    )
                futures.append(future)
        except AdmissionError as error:
            # All-or-nothing admission: cancel what we already queued.
            for future in futures:
                future.cancel()
            return protocol.error_response(request_id, error)

        results = []
        answers = []  # (entry, pairs) still to be encoded
        for text, future in zip(queries, futures):
            entry: dict = {"query": text}
            try:
                # A read evaluated inline is resolved already: take its
                # result without a trip through the loop.
                payload, elapsed = (
                    future.result()
                    if future.done()
                    else await asyncio.wrap_future(future)
                )
            except Exception as error:  # noqa: BLE001  # repro: noqa[RPR701] -- per-query outcome: each query's failure is its own response entry; the batch must not die
                entry["error"] = protocol.error_payload(error)
            else:
                entry["count"] = len(payload)
                entry["time"] = elapsed
                if include_pairs:
                    if enc != "list":  # a tuple set is interned once, here
                        payload = protocol.as_bitmap(payload)
                    answers.append((entry, payload))
            results.append(entry)
        if answers:
            # Refuse an answer that cannot fit before paying for it; the
            # floor is that of the encoding each answer will go out in.
            forms = [protocol.wire_encoding(pairs, enc) for _, pairs in answers]
            floor = sum(form_floor for _, form_floor in forms)
            if floor > protocol.MAX_LINE_BYTES:
                if tracer is not None:  # oversized reads belong in the slow log
                    await self._finish_trace(tracer, root_span, queries, started)
                return protocol.too_large_response(
                    {"id": request_id, "results": results}, floor
                )
            span = (
                None
                if tracer is None
                else tracer.begin("encode", parent=root_span.span_id)
            )
            for (entry, pairs), (form, _) in zip(answers, forms):
                entry["pairs"] = protocol.pairs_to_wire(pairs, enc=form)
            if span is not None:
                # Start rows; a listed answer counts its pairs.
                wires = [entry["pairs"] for entry, _ in answers]
                rows = sum(
                    len(w) if isinstance(w, list) else sum(map(len, w["rows"].values()))
                    for w in wires
                )
                tracer.finish(span, floor_bytes=floor, rows=rows)
        return await self._reply(
            request_id, (tracer, root_span, echo), queries, started, results=results
        )

    async def _reply(self, request_id, trace, queries, started, **payload) -> dict:
        """The success response of a traceable verb.

        ``trace`` is ``(tracer, root_span, echo)`` from
        :meth:`_begin_trace`: untraced requests answer with the payload
        alone, server-side-only traces (slow-query log) finish silently,
        and echoing ones append the span list.
        """
        tracer, root_span, echo = trace
        if tracer is not None:
            await self._finish_trace(tracer, root_span, queries, started)
            if echo:
                payload["trace"] = tracer.to_wire()
        return protocol.ok_response(request_id, **payload)

    async def _warm(self, plans) -> None:
        """Hook run between planning a query request and admitting it.

        Front ends whose admission reads a plan's lazy parts on the
        event loop fill them here first (:meth:`_warm_off_loop`); the
        single-node scheduler reads them on its dispatcher thread and
        needs nothing.
        """

    async def _warm_off_loop(self, plans, mode: str, route: bool = False) -> None:
        """Fill the group key of ``mode`` (and the route) off the loop.

        Plans already warm -- the steady state of a serving workload,
        where every text repeats -- skip the executor hop.  A plan is
        immutable in all but these lazy fields, and filling one races
        with nobody it could hurt (:mod:`repro.core.plan`).
        """
        cold = [plan for plan in plans if not plan.is_warm(mode, route)]
        if not cold:
            return

        def warm() -> None:
            for plan in cold:
                plan.group_key(mode)
                if route:
                    plan.route()

        await self._in_executor(warm)

    async def _op_stats(self, request_id, request) -> dict:
        # db.stats() takes the session lock; keep the wait off the loop.
        session_stats = await self._in_executor(self.db.stats)
        stats = {
            "server": self._server_stats(),
            "scheduler": self.scheduler.stats(),
            "session": session_stats,
        }
        return protocol.ok_response(request_id, stats=stats)

    def _server_stats(self) -> dict:
        """The ``server`` section every front end's ``stats`` carries."""
        return {
            "address": list(self.address),
            "connections": self._connections,
            "version": protocol.PROTOCOL_VERSION,
        }

    @staticmethod
    async def _in_executor(function, *args):
        return await asyncio.get_running_loop().run_in_executor(
            None, function, *args
        )

    async def _op_metrics(self, request_id, request) -> dict:
        """The process-wide metrics registry as Prometheus text."""
        text = await self._in_executor(get_registry().render_prometheus)
        return protocol.ok_response(
            request_id, metrics=text, format="prometheus"
        )

    async def _op_update(self, request_id, request) -> dict:
        add = self._edge_list(request.get("add", ()), "add")
        remove = self._edge_list(request.get("remove", ()), "remove")
        if not add and not remove:
            raise ProtocolError("'update' op needs 'add' and/or 'remove' edges")
        tracer, root_span, echo = self._begin_trace(request)
        started = time.monotonic()
        trace = (tracer, root_span.span_id) if tracer is not None else None
        future = await self._submit_update(add, remove, trace)
        await asyncio.wrap_future(future)
        return await self._reply(
            request_id,
            (tracer, root_span, echo),
            [f"update(+{len(add)},-{len(remove)})"],
            started,
            added=len(add),
            removed=len(remove),
        )

    async def _submit_update(self, add, remove, trace):
        """Admission hook for updates; returns the apply future.

        The single-node scheduler admits without blocking; front ends
        whose admission can wait (the cluster router's, for a full
        shard queue) override this to take that wait off the event
        loop.
        """
        return self.scheduler.submit_update(add=add, remove=remove, trace=trace)

    @staticmethod
    def _edge_list(raw, which: str) -> list[tuple]:
        if not isinstance(raw, (list, tuple)):
            raise ProtocolError(f"'{which}' must be a list of [source, label, target]")
        edges = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ProtocolError(
                    f"'{which}' entries must be [source, label, target], got {entry!r}"
                )
            edges.append(tuple(entry))
        return edges

    async def _op_checkpoint(self, request_id, request) -> dict:
        """Commit a durable checkpoint (``{"op": "checkpoint"}``).

        Routed to ``self.db.checkpoint`` -- a storage-backed
        :class:`~repro.db.GraphDB` (or a whole
        :class:`~repro.cluster.GraphCluster`, which fans out per shard).
        Deployments without a data dir answer with the structured error
        the session/cluster raises.  Snapshot writes block, so the
        commit runs off the event loop.
        """
        info = await self._in_executor(self.db.checkpoint)
        return protocol.ok_response(request_id, checkpoint=info)

    async def _op_watch(self, request_id, request) -> dict:
        body = request.get("body")
        if not isinstance(body, str) or not body:
            raise ProtocolError("'watch' op needs 'body' (a closure-body string)")
        # Creating a watcher computes its initial RTC -- off the loop.
        await self._in_executor(self.db.watch, body)
        return protocol.ok_response(request_id, body=parse(body).to_string())

    async def _op_reaches(self, request_id, request) -> dict:
        body = request.get("body")
        if not isinstance(body, str) or not body:
            raise ProtocolError("'reaches' op needs 'body' (a closure-body string)")
        if "source" not in request or "target" not in request:
            raise ProtocolError("'reaches' op needs 'source' and 'target'")
        for field in ("source", "target"):  # the vertex types a stored graph holds
            if not isinstance(request[field], (str, int)) or isinstance(request[field], bool):
                raise ProtocolError(f"'reaches' {field!r} must be a string or an integer")

        def probe() -> bool:
            # db.reaches holds the session lock, so the probe cannot see
            # a concurrent update half applied.
            return self.db.reaches(body, request["source"], request["target"])

        return protocol.ok_response(
            request_id, reaches=await self._in_executor(probe)
        )

    async def _op_ping(self, request_id, request) -> dict:
        return protocol.ok_response(
            request_id, pong=True, version=protocol.PROTOCOL_VERSION
        )


class ServerThread:
    """A :class:`QueryServer` on a background daemon thread.

    The in-process deployment used by tests, the benchmark and the
    streaming example::

        with ServerThread(db) as handle:
            client = Client(*handle.address)
            ...

    ``start`` blocks until the listener is bound (so ``address`` is
    immediately usable) and re-raises any startup failure.

    Accepts either a :class:`~repro.db.GraphDB` (wrapped in a fresh
    :class:`QueryServer`) or an already-configured :class:`QueryServer`
    subclass instance, e.g. a :class:`~repro.cluster.ClusterRouter`.
    """

    def __init__(
        self, db: "GraphDB | QueryServer", config: ServerConfig | None = None
    ) -> None:
        if isinstance(db, QueryServer):
            if config is not None:
                raise ValueError(
                    "pass the ServerConfig to the QueryServer itself; "
                    "ServerThread(server, config) would silently ignore it"
                )
            self.server = db
        else:
            self.server = QueryServer(db, config)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def start(self) -> "ServerThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServerError("server thread failed to start in time")
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # noqa: BLE001  # repro: noqa[RPR701] -- thread main: the startup error is stashed and re-raised by start() on the caller's thread
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
