"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch one base class.  The
sub-classes are split along the package boundaries: graph-model violations,
RPQ syntax problems, and evaluation-time failures.
"""

from __future__ import annotations

#: The canonical registry of wire-protocol error codes.
#:
#: Every ``code`` attached to an exception anywhere in the library --
#: class attributes below, ``code=`` constructor keywords, post-hoc
#: ``error.code = ...`` tags, and the classification locals in
#: :func:`repro.server.protocol.error_payload` -- must be a key here;
#: ``repro lint`` (rule ``RPR302``) enforces it statically, and the
#: round-trip test drives every key through ``error_payload`` ->
#: ``exception_from_payload`` to prove clients can rehydrate it.
ERROR_CODES = {
    # server/protocol.py classification of evaluation failures
    "syntax": "the query text failed to parse (RPQSyntaxError)",
    "storage": "a durability operation failed (StorageError)",
    "evaluation": "the query could not be evaluated (EvaluationError)",
    "internal": "unclassified server-side failure (ServerError base)",
    # admission control and lifecycle
    "rejected": "admission queue full; back off and retry (AdmissionError)",
    "deadline": "deadline passed before evaluation (DeadlineExpiredError)",
    "closed": "the server/scheduler/backend is shut down",
    "poisoned": "the client connection is in an unrecoverable state",
    "bad_request": "the wire message violated the protocol (ProtocolError)",
    "too_large": "the response would not fit one protocol line (ResultTooLargeError)",
    # cluster routing (any `cluster`-prefixed code rehydrates to
    # ClusterError, preserving the sub-code)
    "cluster": "unclassified cluster routing failure (ClusterError base)",
    "cluster.topology": "the shard topology cannot satisfy the request",
    "cluster.unsupported": "a sharded deployment cannot express this op",
    "cluster.unknown_edge": "edge removal references no known shard/cut",
    "cluster.worker_start": "a shard worker process failed to start",
}


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Violation of the graph data model (Section II-A of the paper).

    Raised, for example, when adding a duplicate ``(source, label, target)``
    edge to a :class:`~repro.graph.LabeledMultigraph` -- the paper's data
    model allows parallel edges between two vertices only when their labels
    differ.
    """


class VertexNotFoundError(GraphError):
    """An operation referenced a vertex that is not part of the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class GraphFormatError(GraphError):
    """A serialized graph (edge list / adjacency file) could not be parsed."""


class StorageError(ReproError):
    """A durability operation of :mod:`repro.storage` failed.

    Raised for unusable data directories, manifests that do not match the
    on-disk write-ahead log, vertices/labels the JSON record format cannot
    persist, and operations on closed storage handles.  Corrupt WAL
    *tails* do **not** raise -- the reader truncates them (crash-during-
    append is an expected state, not an error).
    """

    #: Wire-protocol error code (see :data:`ERROR_CODES`).
    code = "storage"


class RPQSyntaxError(ReproError):
    """The textual form of a regular path query could not be parsed.

    Carries the offending ``position`` (character offset into the query
    string) when it is known, so callers can point at the error.
    """

    #: Wire-protocol error code (see :data:`ERROR_CODES`).
    code = "syntax"

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EvaluationError(ReproError):
    """An RPQ could not be evaluated against the given graph."""

    #: Wire-protocol error code (see :data:`ERROR_CODES`).
    code = "evaluation"


class UnknownEngineError(ReproError, ValueError):
    """An engine name is not present in the engine registry.

    Also derives from :class:`ValueError` (a bad argument value is what
    it is, and callers catching ``ValueError`` keep working).  Carries
    the offending ``name`` and the ``available`` engine names at raise
    time.
    """

    def __init__(self, name: object, available: tuple = ()) -> None:
        available = tuple(sorted(available))
        message = f"unknown engine {name!r}"
        if available:
            message += f"; registered engines: {', '.join(available)}"
        super().__init__(message)
        self.name = name
        self.available = available


class UnknownLabelError(EvaluationError):
    """The query references an edge label absent from the graph's alphabet.

    Evaluating such a query is still well defined (the label simply matches
    no edge); this error is raised only when the caller explicitly requests
    strict alphabet checking.
    """

    def __init__(self, label: str) -> None:
        super().__init__(f"label {label!r} does not occur in the graph")
        self.label = label


class WorkloadError(ReproError):
    """A synthetic workload could not be generated with the given settings."""


class ServerError(ReproError):
    """Base class for errors raised by the :mod:`repro.server` subsystem.

    Raised on the server for scheduling/lifecycle failures and re-raised
    on the client when a response carries an error payload.  Carries the
    wire-protocol error ``code`` so callers can dispatch without string
    matching.
    """

    #: Wire-protocol error code (see :mod:`repro.server.protocol`).
    code = "internal"


class AdmissionError(ServerError):
    """The server refused a request because its queue is full.

    The backpressure signal of the server's admission control: the
    bounded scheduler queue is at capacity, so the request was rejected
    *before* consuming any evaluation resources.  Clients should back
    off and retry.
    """

    code = "rejected"

    def __init__(self, message: str | None = None, queue_depth: int | None = None) -> None:
        if message is None:
            message = "server queue is full; retry later"
            if queue_depth is not None:
                message = f"server queue is full ({queue_depth} queued); retry later"
        super().__init__(message)
        self.queue_depth = queue_depth


class DeadlineExpiredError(ServerError):
    """A request's deadline passed before (or while) it was evaluated.

    Admission control attaches a deadline to every request (client
    ``timeout`` or the server default); workers drop expired requests
    instead of evaluating them, so an overloaded server sheds exactly the
    work nobody is waiting for any more.
    """

    code = "deadline"


class ClusterError(ServerError):
    """A request could not be routed by the :mod:`repro.cluster` layer.

    Raised for topology violations, worker lifecycle failures and
    operations a sharded deployment cannot express.  Carries structured
    fields so routers and tests can dispatch without string matching:

    ``code``
        ``"cluster"`` or a namespaced sub-code (``"cluster.topology"``,
        ``"cluster.worker_start"``, ``"cluster.unknown_edge"``,
        ``"cluster.unsupported"``).  The wire protocol rehydrates any
        ``cluster``-prefixed code back into this class.
    ``shards``
        The shard ids involved (empty when not shard-specific).
    ``detail``
        An optional machine-readable payload (e.g. the offending edge).
    """

    code = "cluster"

    def __init__(
        self,
        message: str,
        *,
        code: str | None = None,
        shards: tuple = (),
        detail: object = None,
    ) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        self.shards = tuple(shards)
        self.detail = detail


class ResultTooLargeError(ServerError):
    """A response would not fit in one protocol line.

    Sent in place of a response whose encoding passes
    ``protocol.MAX_LINE_BYTES`` -- in practice a list-encoded pair
    result.  ``counts`` holds each query's pair count in request order
    (``None`` for one that failed on its own); the connection stays
    usable, and the same request with ``enc="packed"`` or
    ``pairs=False`` fits.
    """

    code = "too_large"

    def __init__(self, message: str, counts=()) -> None:
        super().__init__(message)
        self.counts = list(counts)


class ProtocolError(ServerError):
    """A wire message violated the JSON-lines protocol.

    Raised for unparseable JSON, non-object payloads, oversized lines,
    unknown operations and missing required fields.
    """

    code = "bad_request"
