"""The JSON-lines wire protocol of the query server.

One request per line, one response per line, both UTF-8 JSON objects.
Requests carry an ``op`` (the protocol verb) and an optional ``id`` the
server echoes back, so clients can pipeline.  Responses always carry
``ok``; failures add an ``error`` object with a machine-readable
``code`` (mirrored by the :class:`~repro.errors.ServerError` hierarchy)
and a human-readable ``message``.

Verbs
-----
``query``
    ``{"op": "query", "queries": ["a.(b.c)+"], "timeout": 5.0,
    "pairs": true}`` -- evaluate one or more RPQs.  ``query`` (a single
    string) is accepted as shorthand for a one-element ``queries``.
    ``pairs: false`` returns only counts (cheaper on the wire).  The
    response carries one entry per query, each either a result
    (``count``/``pairs``/``time``) or a per-query ``error``.

    Shard workers additionally accept ``mode: "summary"`` with a
    ``boundary`` vertex list and the ``entries`` (``[vertex, state]``
    pairs) the router planned for them: the worker summarises its shard
    subgraph for the boundary join and responds with a ``summary``
    object (``starts``, ``exits``, ``ends``, ``reflexive``, ``time``;
    tag masks as hex strings, see :mod:`repro.cluster.boundary`)
    instead of ``results``.  Router-facing servers do not expose this
    mode.

    Requests may opt into the **packed-rows encoding** with
    ``"enc": "packed"``: pair payloads in the response are then JSON
    objects ``{"enc": "packed", "vertices": [...], "rows": {...}}``
    instead of lists.  ``vertices`` is a local interner table (vertex
    of index ``i`` at position ``i``); each ``rows`` entry maps a
    source index to a hex-encoded bitmap over target indexes.  The
    decoder (:func:`wire_to_pairs`) is polymorphic, so packed payloads
    are transparent to callers; servers that predate the encoding
    simply keep answering with lists.  Packing shrinks closure-heavy
    responses by an order of magnitude (one hex digit carries four
    pairs) and is what the cluster router requests from its shard
    workers for counts-only fan-out.
``stats``
    Live server metrics (QPS, latency percentiles, batch sizes, queue
    depth, shared-cache hits) merged with the session's graph/engine
    statistics.
``metrics``
    ``{"op": "metrics"}`` -- the process-wide metrics registry rendered
    in Prometheus text exposition format; the response is
    ``{"ok": true, "metrics": "<text>", "format": "prometheus"}``.
    Scrape-friendly and append-only: counters are monotonic across
    requests.
``update``
    ``{"op": "update", "add": [["v", "label", "w"], ...],
    "remove": [...]}`` -- streaming edge changes, applied exclusively
    (the scheduler drains in-flight batches first).
``watch`` / ``reaches``
    Attach an incremental watcher to a closure body / answer one
    reachability probe from it.
``ping``
    Liveness check; echoes the protocol version.

Tracing
-------
``query`` and ``update`` requests accept an optional ``trace`` field.
``"trace": true`` (client-originated) asks the server to record a
distributed trace for this request; the response then carries
``"trace": {"id": ..., "spans": [...]}`` -- the flat span list of the
assembled tree (see :mod:`repro.obs.trace`).  Routers propagate by
sending ``"trace": {"id": trace_id, "parent": span_id}`` to shard
workers, whose response spans are absorbed into the router's tree with
parent links intact (span ids are pid-prefixed, hence unique across
the cluster's processes).  Requests without a ``trace`` field are
served exactly as before -- no span objects are allocated and the
response is unchanged.

Line limit
----------
No line in either direction exceeds :data:`MAX_LINE_BYTES`.  A request
over the limit is answered with ``bad_request`` and the connection is
closed (the rest of the line cannot be skipped reliably).  The server
enforces the limit on its own responses *before* sending: a response
whose encoding would pass it -- in practice a list-encoded answer of a
few hundred thousand pairs -- is replaced by a ``too_large`` error
whose payload carries ``counts``, each query's pair count in request
order (:func:`too_large_response`).  The connection stays usable; the
same query fits with ``"enc": "packed"`` (an order of magnitude
smaller) or ``"pairs": false``.

Error codes
-----------
``bad_request`` (malformed JSON / unknown verb / bad fields),
``too_large`` (the response would pass the line limit, see above),
``syntax`` (RPQ parse error), ``rejected`` (admission control: queue
full), ``deadline`` (request expired before evaluation), ``cluster``
and its namespaced sub-codes (``cluster.topology``,
``cluster.worker_start``, ``cluster.unknown_edge``,
``cluster.unsupported`` -- any code with the ``cluster`` prefix
rehydrates to :class:`~repro.errors.ClusterError`), ``closed`` (server
shutting down), ``evaluation`` and ``internal``.  Cluster errors may
carry ``shards`` and ``detail`` fields alongside ``code``/``message``.
"""

from __future__ import annotations

import json

from repro.bitset.interner import VertexInterner, bit_indexes
from repro.bitset.pairbitmap import PairBitmap
from repro.errors import (
    AdmissionError,
    ClusterError,
    DeadlineExpiredError,
    ProtocolError,
    ReproError,
    ResultTooLargeError,
    RPQSyntaxError,
    ServerError,
    StorageError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "VERBS",
    "encode",
    "decode_line",
    "ok_response",
    "error_response",
    "error_payload",
    "too_large_response",
    "pairs_to_wire",
    "wire_to_pairs",
    "exception_from_payload",
]

#: Bumped on incompatible wire changes; echoed by ``ping``.
PROTOCOL_VERSION = 1

#: Hard cap on one request/response line (also the asyncio read limit).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: The protocol verbs the server dispatches on.  ``checkpoint`` is
#: answered only by storage-backed deployments (``--data-dir``); others
#: respond with a structured ``storage.unsupported``-style error.
VERBS = (
    "query",
    "stats",
    "metrics",
    "update",
    "watch",
    "reaches",
    "checkpoint",
    "ping",
)

_CODE_TO_ERROR = {
    "rejected": AdmissionError,
    "deadline": DeadlineExpiredError,
    "bad_request": ProtocolError,
    "cluster": ClusterError,
    "syntax": RPQSyntaxError,
    "storage": StorageError,
}


def encode(message: dict) -> bytes:
    """Serialise one protocol message to a newline-terminated line."""
    return (
        json.dumps(message, separators=(",", ":"), default=str) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Parse one wire line into a request/response object.

    Raises :class:`~repro.errors.ProtocolError` for oversized lines,
    invalid JSON and non-object payloads.
    """
    if isinstance(line, str):
        line = line.encode("utf-8")
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"line exceeds {MAX_LINE_BYTES} bytes ({len(line)} received)"
        )
    try:
        message = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"invalid JSON line: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol messages are JSON objects, got {type(message).__name__}"
        )
    return message


def ok_response(request_id: object = None, **payload) -> dict:
    """A success response echoing the request ``id``."""
    response = {"ok": True, **payload}
    if request_id is not None:
        response["id"] = request_id
    return response


def error_payload(error: BaseException) -> dict:
    """The ``{"code", "message"}`` wire form of an exception.

    Cluster errors additionally ship their structured ``shards`` and
    ``detail`` fields (when set), so remote callers can dispatch on
    the same data as local ones.
    """
    if isinstance(error, RPQSyntaxError):
        code = "syntax"
    elif isinstance(error, ServerError):
        code = error.code
    elif isinstance(error, StorageError):
        code = "storage"
    elif isinstance(error, ReproError):
        code = "evaluation"
    else:
        code = "internal"
    payload = {"code": code, "message": str(error)}
    if isinstance(error, ClusterError):
        if error.shards:
            payload["shards"] = list(error.shards)
        if error.detail is not None:
            payload["detail"] = error.detail
    elif isinstance(error, ResultTooLargeError):
        payload["counts"] = error.counts
    return payload


def error_response(request_id: object, error: BaseException | dict) -> dict:
    """A failure response; ``error`` is an exception or a ready payload."""
    if isinstance(error, BaseException):
        error = error_payload(error)
    response = {"ok": False, "error": error}
    if request_id is not None:
        response["id"] = request_id
    return response


def too_large_response(response: dict, size: int) -> dict:
    """What the server sends instead of a ``size``-byte response line."""
    error = ResultTooLargeError(
        f"response line of {size} bytes exceeds {MAX_LINE_BYTES}; "
        'ask for "enc": "packed" or "pairs": false',
        counts=[entry.get("count") for entry in response.get("results", ())],
    )
    return error_response(response.get("id"), error)


def exception_from_payload(payload: dict) -> ServerError | RPQSyntaxError:
    """Rehydrate a client-side exception from a wire error payload.

    The inverse of :func:`error_payload`, used by
    :class:`repro.server.Client` so callers catch the same
    :class:`~repro.errors.ReproError` subclasses locally and remotely.
    """
    code = payload.get("code", "internal")
    message = payload.get("message", "server error")
    if code == "cluster" or code.startswith("cluster."):
        return ClusterError(
            message,
            code=code,
            shards=tuple(payload.get("shards", ())),
            detail=payload.get("detail"),
        )
    if code == ResultTooLargeError.code:
        return ResultTooLargeError(message, counts=payload.get("counts", ()))
    error_class = _CODE_TO_ERROR.get(code)
    if error_class is RPQSyntaxError:
        return RPQSyntaxError(message)
    if error_class is not None:
        return error_class(message)
    error = ServerError(message)
    error.code = code
    return error


def pairs_to_wire(pairs, enc: str | None = None) -> list | dict:
    """Result pairs for the wire; ``enc="packed"`` emits bitmap rows.

    The default (list) encoding is 2-lists in deterministic string
    order.  The packed encoding is self-describing: a local ``vertices``
    interner table plus hex dst bitmaps keyed by source index -- no
    shared id space with the peer is assumed.  Vertices may be ints or
    strings; ordering is by string form purely for wire determinism
    (clients compare as sets).  ``pairs`` may be a set of tuples or a
    :class:`~repro.bitset.PairBitmap`.
    """
    if isinstance(pairs, PairBitmap):
        pairs = pairs.pairs
    ordered = sorted(pairs, key=lambda p: (str(p[0]), str(p[1])))
    if enc != "packed":
        return [list(pair) for pair in ordered]
    table = VertexInterner()
    rows: dict[str, int] = {}
    for source, target in ordered:
        key = str(table.intern(source))
        rows[key] = rows.get(key, 0) | (1 << table.intern(target))
    return {
        "enc": "packed",
        "vertices": table.vertices(),
        "rows": {key: format(mask, "x") for key, mask in rows.items()},
    }


def wire_to_pairs(wire: list | dict) -> set:
    """The client-side inverse of :func:`pairs_to_wire` (both encodings)."""
    if isinstance(wire, dict):
        vertices = wire["vertices"]
        pairs = set()
        for key, hex_mask in wire["rows"].items():
            source = vertices[int(key)]
            for index in bit_indexes(int(hex_mask, 16)):
                pairs.add((source, vertices[index]))
        return pairs
    return {(source, target) for source, target in wire}
