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
    ``pairs: false`` returns only counts (cheaper on the wire).
    ``timeout`` (seconds) must be a finite, non-negative number and
    ``pairs`` a JSON bool; anything else is a ``bad_request``.  The
    response carries one entry per query, each either a result
    (``count``/``pairs``/``time``) or a per-query ``error``.

    Pair payloads travel as **packed rows** (protocol version 3; version 2
    sent one hex mask per source):
    ``{"enc": "packed", "support": "<hex>", "vertices": [...], "rows":
    {"<mask hex>": [<source id>, ...], ...}}`` -- the answer's bitmap
    as it is, in the *server's* id space, never decoded to tuples.
    ``rows`` maps each distinct row -- the bitmap of a source's target
    ids -- to the ascending ids of the sources that carry it, groups in
    the order of their lowest source id; the closure answers of the
    paper repeat one row for every start behind one SCC (Theorem 1:
    R+ is a union of SCC-member products), so a row is formatted, sent
    and parsed once however many starts share it.  ``support`` is the
    bitmap of every id named (sources and set bits) and ``vertices``
    their vertices in ascending id order, so the table covers what the
    answer touches, not the graph.  One hex digit carries four pairs,
    but a row costs a quarter of its highest target id in bytes however
    few bits it sets; so a relation that is sparse over a big id space
    -- its pairs listed (sorted 2-lists, about 12 bytes each) would be
    smaller than its rows -- travels as that list instead.  The server
    decides per answer from the bitmap (:func:`wire_encoding`);
    ``"enc": "list"`` (the debug form) or ``"enc": "packed"`` in the
    request forces one encoding.  :func:`wire_to_pairs` decodes both and
    validates what it parses.
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
    Pin a closure body's cached RTC (repaired by every update) / answer
    one reachability probe from it.
``ping``
    Liveness check; echoes the protocol version.

Tracing
-------
``query`` and ``update`` requests accept an optional ``trace`` field.
``"trace": true`` (client-originated) asks the server to record a
distributed trace for this request; the response then carries
``"trace": {"id": ..., "spans": [...]}`` -- the flat span list of the
assembled tree (see :mod:`repro.obs.trace`); on a cluster router the
shards' spans nest under the router's per-shard ``shard`` spans.  Any
other ``trace`` value is a ``bad_request``.  Requests without a
``trace`` field are served exactly as before -- no span objects are
allocated and the response is unchanged.

Line limit
----------
No line in either direction exceeds :data:`MAX_LINE_BYTES`.  A request
over the limit is answered with ``bad_request`` and the connection is
closed (the rest of the line cannot be skipped reliably).  The server
enforces the limit on its own responses *before* sending: a response
whose encoding would pass it is replaced by a ``too_large`` error whose
payload carries ``counts``, each query's pair count in request order
(:func:`too_large_response`).  The decision is made from a lower bound
read off the bitmaps (:func:`wire_floor`) before any payload is built,
and again, exactly, on the encoded line.  The connection stays usable;
the same query fits with ``"pairs": false``.  With ``enc`` unset the
bound is that of the encoding the server will pick; a forced ``enc`` is
held to its own.

Error codes
-----------
``bad_request`` (malformed JSON / unknown verb / bad fields),
``too_large`` (the response would pass the line limit, see above),
``syntax`` (RPQ parse error), ``rejected`` (admission control: queue
full), ``deadline`` (request expired before evaluation), ``cluster``
and its namespaced sub-codes (``cluster.topology``,
``cluster.unknown_edge``,
``cluster.unsupported`` -- any code with the ``cluster`` prefix
rehydrates to :class:`~repro.errors.ClusterError`), ``closed`` (server
shutting down), ``evaluation`` and ``internal``.  Cluster errors may
carry ``shards`` and ``detail`` fields alongside ``code``/``message``.
"""

from __future__ import annotations

import json
from itertools import chain

from repro.bitset.interner import VertexInterner
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
    "wire_encoding",
    "wire_floor",
    "as_bitmap",
    "pairs_to_wire",
    "wire_to_pairs",
    "exception_from_payload",
]

#: Bumped on incompatible wire changes; echoed by ``ping``.
PROTOCOL_VERSION = 3

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
    """What the server sends instead of a response line of ``size`` bytes
    or more (``response`` needs only its ``id`` and the ``count`` of
    each ``results`` entry)."""
    error = ResultTooLargeError(
        f"response line of at least {size} bytes exceeds {MAX_LINE_BYTES}; "
        'ask for "pairs": false (an unset "enc" already gets the smaller '
        "encoding)",
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


def _vertex_order(vertex: object) -> tuple[str, str]:
    return (str(vertex), type(vertex).__name__)


def _intern_pairs(pairs) -> PairBitmap:
    """A tuple set as a bitmap over a fresh table (sorted, hence
    deterministic, vertex order) -- one dict lookup and one OR per pair."""
    interner = VertexInterner(
        sorted(set(chain.from_iterable(pairs)), key=_vertex_order)
    )
    bit = {vertex: 1 << index for index, vertex in enumerate(interner)}
    masks: dict = {}
    for source, target in pairs:
        masks[source] = masks.get(source, 0) | bit[target]
    id_of = interner.id_of
    return PairBitmap({id_of(s): mask for s, mask in masks.items()}, interner)


def _packed_floor(bitmap: PairBitmap) -> int:
    """A lower bound on a bitmap's packed ``rows``: each distinct mask
    once (its hex digits plus ``"":[``), each source id at least one
    digit and a separator."""
    masks = [mask for mask in bitmap.rows.values() if mask]
    return sum((mask.bit_length() + 3) // 4 + 4 for mask in set(masks)) + 2 * len(masks)


def wire_encoding(pairs, enc: str | None = None) -> tuple[str, int]:
    """``(encoding, floor)``: the form ``pairs_to_wire(pairs, enc)`` puts
    on the line and a cheap lower bound on its bytes.

    A list's floor is 6 bytes (``[0,1],``) per pair; a packed answer's
    is :func:`_packed_floor` of its bitmap (a tuple set is interned
    first).  With ``enc`` unset the pick compares the packed floor with
    what a list really costs -- about twice its floor (``[12,200],``,
    ``["ann","bob"],``) -- and the floor returned is the picked form's,
    so the ``too_large`` check and the pick read the same estimate: an
    answer that passes the check is not then listed past the limit
    while its packed form would fit.
    """
    listed = 6 * len(pairs)
    if enc == "list":
        return "list", listed
    packed = _packed_floor(as_bitmap(pairs))
    if enc == "packed" or packed <= 2 * listed:
        return "packed", packed
    return "list", listed


def wire_floor(pairs, enc: str | None = None) -> int:
    """The floor of :func:`wire_encoding`: what ``too_large`` is decided
    from before any payload is built."""
    return wire_encoding(pairs, enc)[1]


def as_bitmap(pairs) -> PairBitmap:
    """``pairs`` as a :class:`~repro.bitset.PairBitmap` (a tuple set is
    interned over a fresh, sorted table)."""
    return pairs if isinstance(pairs, PairBitmap) else _intern_pairs(pairs)


def pairs_to_wire(pairs, enc: str | None = None) -> dict | list:
    """Result pairs for the wire: packed rows, or sorted 2-lists.

    A :class:`~repro.bitset.PairBitmap` is shipped as it is, grouped by
    row: ``rows`` maps each distinct target mask (hex) to the ascending
    source ids that carry it, so a mask shared by every start of one
    SCC -- the common case, R+ being a union of SCC-member products --
    is formatted, sent and parsed once.  No tuple, no sort of pairs, no
    re-interning; a tuple set is interned once and takes the same path.
    Groups go out in the order of their lowest source id, so one
    relation over one table is one byte string.  ``enc`` unset picks
    the form by :func:`wire_encoding`; ``enc="packed"`` / ``"list"``
    force one.
    """
    if enc != "list":
        pairs = as_bitmap(pairs)
        if enc is None:
            enc = wire_encoding(pairs)[0]
    if enc == "list":
        ordered = sorted(pairs, key=lambda p: (str(p[0]), str(p[1])))
        return [list(pair) for pair in ordered]
    rows = pairs.rows
    groups: dict[int, list[int]] = {}
    support = 0
    for source_id in sorted(rows):
        mask = rows[source_id]
        if not mask:
            continue
        support |= 1 << source_id
        sources = groups.get(mask)
        if sources is None:
            groups[mask] = [source_id]
            support |= mask
        else:
            sources.append(source_id)
    return {
        "enc": "packed",
        "support": format(support, "x"),
        "vertices": list(pairs.require_interner().vertices_of(support)),
        "rows": {format(mask, "x"): sources for mask, sources in groups.items()},
    }


def wire_to_pairs(wire: dict | list) -> PairBitmap:
    """The client-side inverse of :func:`pairs_to_wire` (both encodings).

    A :class:`~repro.bitset.PairBitmap` over the payload's vertex table
    (one ``int(hex, 16)`` per distinct row, no tuple); it compares equal
    to the tuple set it denotes.  Validated here in full, so nothing
    read off it later can fail: :class:`~repro.errors.ProtocolError` for
    a missing field, a mask that is not positive hex or has a bit
    outside the support, a source id that is not an int, lies outside
    the support or appears twice, or a table that does not match the
    support's bit count.
    """
    try:
        if isinstance(wire, list):
            return PairBitmap.from_pairs(map(tuple, wire), VertexInterner())
        support = int(wire["support"], 16)
        if support < 0:
            raise ValueError("negative support")
        rows: dict[int, int] = {}
        named = 0
        for key, sources in wire["rows"].items():
            mask = int(key, 16)
            # Zero is no row; a negative mask fails the AND.
            if mask <= 0 or mask & ~support:
                raise ValueError(f"row mask {key!r} leaves the vertex table")
            if type(sources) is not list or not sources:
                raise ValueError(f"row {key!r} names no list of sources")
            for source_id in sources:
                # Not a bool or a float; a negative id fails the shift.
                if type(source_id) is not int or not support >> source_id & 1:
                    raise ValueError(f"source {source_id!r} leaves the vertex table")
                rows[source_id] = mask
            named += len(sources)
        if len(rows) != named:
            raise ValueError("a source id is named twice")
        interner = VertexInterner.from_support(support, wire["vertices"])
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed pairs payload: {error!r}") from None
    return PairBitmap(rows, interner)
