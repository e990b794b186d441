"""Distributed tracing: spans, trace trees, and the ambient tracer.

One :class:`Tracer` collects the spans of one request.  A span is cheap
on purpose -- ``__slots__``, a wall-clock start, a duration, a parent
link and a small attribute dict -- because a traced request on a busy
cluster records dozens of them.

Wire shape
----------
Span ids are unique across processes (``<pid hex>-<counter hex>``), so
traces written by different servers into one slow-query log never
collide, and a flat span list assembles into one tree by its parent
links (:func:`build_tree`).  The wire form of a whole trace is
``{"id": trace_id, "spans": [{"id", "parent", "name", "start", "dur",
"attrs"?}, ...]}``.

Ambient activation
------------------
Deep layers (the WAL's fsync'd append, the checkpointer) cannot take a
tracer parameter without threading it through every signature between
the socket and the disk.  Instead the instrumented call sites use
:func:`ambient_span`, which consults a thread-local: when a request
handler has :func:`activate`\\ d a tracer on this thread, a span is
recorded under the current parent; otherwise the context manager yields
``None`` without allocating a single object -- the zero-cost-when-off
contract.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager

__all__ = [
    "Span",
    "Tracer",
    "new_span_id",
    "new_trace_id",
    "activate",
    "current",
    "ambient_span",
    "build_tree",
    "render_trace",
]

_SPAN_SEQUENCE = itertools.count(1)


def new_span_id() -> str:
    """A span id unique across processes.

    The pid prefix separates servers; the counter separates spans
    within one.
    """
    return f"{os.getpid():x}-{next(_SPAN_SEQUENCE):x}"


def new_trace_id() -> str:
    return os.urandom(8).hex()


class Span:
    """One timed phase of a request; part of exactly one trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "duration", "attrs", "_t0")

    def __init__(
        self,
        name: str,
        parent_id: str | None = None,
        span_id: str | None = None,
        start: float | None = None,
        duration: float | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.start = start if start is not None else time.time()  # repro: noqa[RPR601] -- span starts are wall-clock epochs so cross-process traces share one axis; durations use the monotonic anchor below
        self.duration = duration
        self.attrs = attrs if attrs is not None else {}
        # Monotonic anchor for finish(); wall clocks can step backwards.
        self._t0 = time.perf_counter()

    def to_wire(self) -> dict:
        span = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "dur": self.duration if self.duration is not None else 0.0,
        }
        if self.attrs:
            span["attrs"] = self.attrs
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"dur={self.duration})"
        )


class Tracer:
    """Collects the (flat) span list of one trace; thread-safe.

    One tracer may be fed from several threads at once -- the router's
    merge callbacks, scheduler workers, and the boundary-join executor
    all record into the same request trace -- so every mutation takes
    the lock.  Spans are appended on *finish*, which keeps the list
    insertion-ordered by completion and never exposes a half-built span.
    """

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id if trace_id else new_trace_id()
        self._lock = threading.Lock()
        self._spans: list[dict] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str, parent: str | None = None, **attrs) -> Span:
        """Start a live span; pair with :meth:`finish`."""
        return Span(name, parent_id=parent, attrs=dict(attrs) if attrs else None)

    def finish(self, span: Span, **attrs) -> Span:
        """Close a live span (duration from its monotonic anchor) and keep it."""
        if span.duration is None:
            span.duration = time.perf_counter() - span._t0
        if attrs:
            span.attrs.update(attrs)
        with self._lock:
            self._spans.append(span.to_wire())
        return span

    def record(
        self,
        name: str,
        parent: str | None,
        start: float,
        duration: float,
        **attrs,
    ) -> Span:
        """Add an already-measured span (retroactive phases like queue wait)."""
        span = Span(
            name,
            parent_id=parent,
            start=start,
            duration=max(0.0, duration),
            attrs=dict(attrs) if attrs else None,
        )
        with self._lock:
            self._spans.append(span.to_wire())
        return span

    @contextmanager
    def span(self, name: str, parent: str | None = None, **attrs):
        """``with tracer.span("evaluate", parent) as span: ...``"""
        live = self.begin(name, parent=parent, **attrs)
        try:
            yield live
        finally:
            self.finish(live)

    # -- reading ---------------------------------------------------------
    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def to_wire(self) -> dict:
        """The whole trace as one wire/JSON object."""
        return {"id": self.trace_id, "spans": self.spans()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# -- ambient (thread-local) activation ----------------------------------

_AMBIENT = threading.local()


def current() -> tuple[Tracer, str | None] | None:
    """The thread's active ``(tracer, parent_span_id)``, or ``None``."""
    return getattr(_AMBIENT, "context", None)


@contextmanager
def activate(tracer: Tracer, parent: str | None):
    """Make ``tracer`` ambient on this thread for the ``with`` body."""
    previous = getattr(_AMBIENT, "context", None)
    _AMBIENT.context = (tracer, parent)
    try:
        yield
    finally:
        _AMBIENT.context = previous


@contextmanager
def ambient_span(name: str, **attrs):
    """A span under the thread's ambient tracer -- or nothing at all.

    The zero-cost path is the first two lines: no active tracer means no
    allocation, no lock, no timestamps.  With one active, the span nests
    (it becomes the ambient parent for the body, so e.g. ``checkpoint``
    -> ``snapshot`` parent correctly without plumbing).
    """
    context = current()
    if context is None:
        yield None
        return
    tracer, parent = context
    span = tracer.begin(name, parent=parent, **attrs)
    _AMBIENT.context = (tracer, span.span_id)
    try:
        yield span
    finally:
        _AMBIENT.context = context
        tracer.finish(span)


# -- tree assembly and rendering -----------------------------------------


def build_tree(trace: dict) -> list[dict]:
    """Nest a trace's flat span list into root trees by parent links.

    Returns the list of roots (spans whose parent is ``None`` or refers
    outside the trace -- a worker fragment viewed on its own), each with
    a ``children`` list, children ordered by start time.
    """
    spans = [dict(span) for span in trace.get("spans", ())]
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        span["children"] = []
    roots: list[dict] = []
    for span in spans:
        parent = by_id.get(span.get("parent"))
        if parent is None:
            roots.append(span)
        else:
            parent["children"].append(span)
    for span in spans:
        span["children"].sort(key=lambda child: child.get("start", 0.0))
    roots.sort(key=lambda span: span.get("start", 0.0))
    return roots


def _format_duration(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def render_trace(trace: dict) -> str:
    """An indented phase breakdown of one trace (the ``repro trace`` view)."""
    lines = [f"trace {trace.get('id', '?')}"]

    def walk(span: dict, depth: int) -> None:
        attrs = span.get("attrs") or {}
        detail = " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
        lines.append(
            "  " * depth
            + f"- {span['name']}  {_format_duration(span.get('dur', 0.0))}"
            + (f"  [{detail}]" if detail else "")
        )
        for child in span["children"]:
            walk(child, depth + 1)

    for root in build_tree(trace):
        walk(root, 1)
    return "\n".join(lines)
