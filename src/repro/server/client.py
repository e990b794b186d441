"""A small blocking client for the JSON-lines query server.

One socket, one request/response in flight at a time (the instance is
internally locked, so sharing one ``Client`` between threads serialises
their requests -- give each thread its own client for parallelism).
Server-side failures are re-raised locally as the same
:class:`~repro.errors.ReproError` subclasses the library throws, so code
is portable between embedding :class:`~repro.db.GraphDB` directly and
talking to a server::

    with Client.connect("127.0.0.1:7687") as client:
        result = client.query("a.(b.c)+")
        print(result.count, result.time, sorted(result.pairs))
        client.update(add=[("ann", "follows", "bob")])
        print(client.stats()["scheduler"]["qps"])

Answers stay packed: a :class:`QueryResult` holds the decoded
:class:`~repro.bitset.PairBitmap` and reads ``count`` / ``len`` / ``in``
/ ``ends_of`` / ``starts`` off it; tuples are built only for the caller
who touches ``.pairs`` or iterates.
"""

from __future__ import annotations

import socket
import threading

from repro.bitset.pairbitmap import PairBitmap
from repro.errors import ProtocolError, ServerError
from repro.server import protocol

__all__ = ["Client", "QueryResult"]


class QueryResult:
    """One query's answer as it came over the wire.

    ``pairs`` (the tuple set, built on first touch and kept) and
    iteration are the explicit "decode everything" calls; the rest
    reads the bitmap.  A result fetched with ``pairs=False`` knows only
    its ``count``: ``pairs`` is ``None`` and row access raises.
    """

    def __init__(
        self, query: str, count: int, time: float, bitmap: PairBitmap | None = None
    ) -> None:
        self.query = query
        self.count = count
        self.time = time
        self._bitmap = bitmap
        self._pairs: set | None = None

    def _rows(self) -> PairBitmap:
        if self._bitmap is None:
            raise ServerError(
                "this result was fetched with pairs=False; only .count is known"
            )
        return self._bitmap

    @property
    def pairs(self) -> set | None:
        """The ``(start, end)`` tuples; ``None`` for a counts-only result."""
        if self._pairs is None and self._bitmap is not None:
            self._pairs = self._bitmap.to_pairs()
        return self._pairs

    def ends_of(self, vertex: object) -> tuple:
        """The ends paired with start ``vertex`` (decodes one row)."""
        return self._rows().ends_of(vertex)

    def starts(self) -> list:
        """The vertices that start at least one pair."""
        return self._rows().starts()

    def __iter__(self):
        return iter(sorted(self._rows(), key=lambda p: (str(p[0]), str(p[1]))))

    def __contains__(self, pair: object) -> bool:
        return pair in self._rows()

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"QueryResult(query={self.query!r}, count={self.count})"


class Client:
    """Blocking JSON-lines client; safe to share (requests serialise)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7687,
        connect_timeout: float = 10.0,
        socket_timeout: float | None = 120.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self._lock = threading.Lock()
        self._next_id = 0
        try:
            self._socket = socket.create_connection(
                (self.host, self.port), timeout=connect_timeout
            )
        except OSError as error:
            raise ServerError(
                f"cannot connect to {self.host}:{self.port}: {error}"
            ) from error
        self._socket.settimeout(socket_timeout)
        self._file = self._socket.makefile("rwb")
        self._closed = False
        #: Set to the failure reason after a transport/protocol error.
        #: A poisoned client's stream position is unknown (a half-read
        #: response, or a response still in flight after a timeout), so
        #: every later call fails fast instead of desyncing.
        self._broken: str | None = None

    @classmethod
    def connect(cls, address: str | tuple, **kwargs) -> "Client":
        """Open a client from ``"host:port"`` or a ``(host, port)`` pair."""
        if isinstance(address, str):
            host, separator, port = address.rpartition(":")
            if not separator or not port.isdigit():
                raise ServerError(
                    f"address must look like host:port, got {address!r}"
                )
            return cls(host or "127.0.0.1", int(port), **kwargs)
        host, port = address
        return cls(host, port, **kwargs)

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        """True once a transport/protocol error poisoned this connection."""
        return self._broken is not None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -------------------------------------------------------
    def _poison(self, reason: str) -> None:
        """Mark the connection unusable and release the socket.

        Called (under the lock) after any failure that leaves the stream
        in an unknown state.  Server-*reported* errors (an ``ok: false``
        response) do not poison: the stream is still framed correctly.
        """
        self._broken = reason
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            try:
                self._socket.close()
            except OSError:
                pass

    def _call(self, payload: dict) -> dict:
        """One request/response round trip; raises on error responses.

        Transport failures (``OSError``, a closed stream) and protocol
        violations (unparseable response, id mismatch) poison the client:
        the next call raises :class:`~repro.errors.ServerError`
        immediately instead of writing onto a desynchronised stream.
        """
        with self._lock:
            if self._closed:
                raise ServerError("client is closed")
            if self._broken is not None:
                error = ServerError(
                    f"client is poisoned after a transport error "
                    f"({self._broken}); open a new Client"
                )
                error.code = "poisoned"
                raise error
            self._next_id += 1
            request_id = self._next_id
            payload = {"id": request_id, **payload}
            try:
                self._file.write(protocol.encode(payload))
                self._file.flush()
                line = self._file.readline()
            except OSError as error:
                self._poison(f"connection lost: {error}")
                raise ServerError(f"connection lost: {error}") from error
            if not line:
                self._poison("server closed the connection")
                raise ServerError("server closed the connection")
            try:
                response = protocol.decode_line(line)
            except ProtocolError as error:
                self._poison(f"unparseable response: {error}")
                raise
            if response.get("id") not in (None, request_id):
                self._poison(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {request_id!r}"
                )
                raise ProtocolError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {request_id!r}"
                )
        if not response.get("ok"):
            raise protocol.exception_from_payload(response.get("error", {}))
        return response

    # -- verbs -----------------------------------------------------------
    def call(self, op: str, **fields) -> dict:
        """One generic protocol round trip; returns the raw response.

        The escape hatch for request fields the typed helpers below do
        not cover.
        Server-reported failures raise like every other verb.
        """
        return self._call({"op": op, **fields})

    def ping(self) -> int:
        """Liveness check; returns the server's protocol version."""
        return self._call({"op": "ping"})["version"]

    def query(
        self,
        query: str,
        timeout: float | None = None,
        pairs: bool = True,
    ) -> QueryResult:
        """Evaluate one RPQ; raises the server-side error if it failed."""
        return self.query_many([query], timeout=timeout, pairs=pairs)[0]

    def query_traced(
        self,
        query: str,
        timeout: float | None = None,
        pairs: bool = True,
    ) -> tuple[QueryResult, dict | None]:
        """Evaluate one RPQ with distributed tracing turned on.

        Returns ``(result, trace)`` where ``trace`` is the assembled
        span tree (``{"id": ..., "spans": [...]}``; render
        it with :func:`repro.obs.render_trace`).
        """
        results, response = self.query_call(
            [query], timeout=timeout, pairs=pairs, trace=True
        )
        return results[0], response.get("trace")

    def query_many(
        self,
        queries: list[str],
        timeout: float | None = None,
        pairs: bool = True,
    ) -> list[QueryResult]:
        """Evaluate a multiple-RPQ set in one request.

        The server batches the set (and any concurrently in-flight
        queries sharing the same closure bodies) through its scheduler.
        Raises on the first per-query error.
        """
        results, _response = self.query_call(queries, timeout=timeout, pairs=pairs)
        return results

    def query_call(
        self,
        queries: list[str],
        timeout: float | None = None,
        pairs: bool = True,
        trace: object = None,
        enc: str | None = None,
    ) -> tuple[list[QueryResult], dict]:
        """The raw query round trip: ``(results, full_response)``.

        ``trace=True`` asks the server to trace the request; the caller
        reads the assembled span tree off
        ``response.get("trace")``.  ``enc="list"`` / ``"packed"`` force
        one pair encoding (unset, the server picks the smaller).  A
        pairs payload that does not parse, or
        disagrees with its ``count``, is a
        :class:`~repro.errors.ProtocolError` here, never a lazy one.
        """
        payload: dict = {"op": "query", "queries": list(queries), "pairs": pairs}
        if timeout is not None:
            payload["timeout"] = timeout
        if trace is not None:
            payload["trace"] = trace
        if enc is not None:
            payload["enc"] = enc
        response = self._call(payload)
        results = []
        for entry in response["results"]:
            if "error" in entry:
                raise protocol.exception_from_payload(entry["error"])
            bitmap = None
            if "pairs" in entry:
                bitmap = protocol.wire_to_pairs(entry["pairs"])
                if bitmap.count() != entry["count"]:
                    raise ProtocolError(
                        f"pairs payload of {entry['query']!r} holds "
                        f"{bitmap.count()} pairs, its count says {entry['count']}"
                    )
            results.append(
                QueryResult(
                    entry["query"], entry["count"], entry.get("time", 0.0), bitmap
                )
            )
        return results, response

    def stats(self) -> dict:
        """The server's live ``stats`` document."""
        return self._call({"op": "stats"})["stats"]

    def metrics(self) -> str:
        """The server's metrics registry in Prometheus exposition format."""
        return self._call({"op": "metrics"})["metrics"]

    def update(self, add=(), remove=(), trace: object = None) -> dict:
        """Apply streaming edge changes on the server's session."""
        payload: dict = {
            "op": "update",
            "add": [list(edge) for edge in add],
            "remove": [list(edge) for edge in remove],
        }
        if trace is not None:
            payload["trace"] = trace
        return self._call(payload)

    def checkpoint(self):
        """Commit the server's durable checkpoint; returns its info.

        One ``{"lsn", "snapshot", "rtc_store"}`` document from a single
        server, a list of them (one per shard) from a cluster router.
        """
        return self._call({"op": "checkpoint"})["checkpoint"]

    def watch(self, body: str) -> str:
        """Pin a closure body's maintained RTC; returns the normalised body."""
        return self._call({"op": "watch", "body": body})["body"]

    def reaches(self, body: str, source, target) -> bool:
        """One reachability probe against the maintained RTC of ``body``."""
        return self._call(
            {"op": "reaches", "body": body, "source": source, "target": target}
        )["reaches"]

    def __repr__(self) -> str:
        if self._closed:
            state = "closed"
        elif self._broken is not None:
            state = "poisoned"
        else:
            state = "open"
        return f"Client({self.host}:{self.port}, {state})"
