"""Serialisation of labeled multigraphs to and from edge-list text files.

The on-disk format is one edge per line::

    <source> <label> <target>

Fields are whitespace-separated; lines starting with ``#`` and blank lines
are ignored.

**The int-vs-string coercion rule.**  The format is untyped, so vertex
tokens are coerced on load: a token that parses as a Python ``int``
*becomes* an ``int``, everything else stays a string.  Both the synthetic
datasets (int VIDs) and RDF-ish datasets (string IRIs) round-trip under
this rule -- but a *string* vertex that looks like an integer (``"123"``)
would silently come back as ``int`` ``123``, and tokens containing
whitespace would shatter into extra fields.  Rather than corrupt data,
:func:`format_edge_lines` / :func:`dump_edge_list` refuse to serialise
such graphs: they raise :class:`~repro.errors.GraphFormatError` for

* vertices that are neither ``int`` nor ``str`` (including ``bool``);
* string vertices that are empty, contain whitespace, start with ``#``
  (the comment marker), or parse as an integer;
* labels that are not ``str``, are empty, or contain whitespace.

Labels are *never* coerced (``"123"`` is a fine label and loads back as
the string ``"123"``).

This mirrors the plain edge-list dumps the paper's real datasets (Robots,
Advogato, Youtube) ship as.  It is the CLI's text format; storage uses the typed
:mod:`repro.storage.snapshot` document.
"""

from __future__ import annotations

import io
from pathlib import Path
from collections.abc import Iterable, Iterator

from repro.errors import GraphFormatError
from repro.graph.multigraph import LabeledMultigraph

__all__ = ["load_edge_list", "dump_edge_list", "parse_edge_lines", "format_edge_lines"]


def _parse_vertex(token: str) -> object:
    """Integers stay integers; everything else stays a string."""
    try:
        return int(token)
    except ValueError:
        return token


def parse_edge_lines(lines: Iterable[str]) -> Iterator[tuple[object, str, object]]:
    """Yield ``(source, label, target)`` triples from edge-list lines."""
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise GraphFormatError(
                f"line {line_number}: expected 'source label target', got {raw!r}"
            )
        source, label, target = fields
        yield (_parse_vertex(source), label, _parse_vertex(target))


def load_edge_list(path: str | Path) -> LabeledMultigraph:
    """Read a labeled multigraph from an edge-list file."""
    graph = LabeledMultigraph()
    with open(path, "r", encoding="utf-8") as handle:
        for source, label, target in parse_edge_lines(handle):
            graph.add_edge_if_absent(source, label, target)
    return graph


def _vertex_token(vertex: object) -> str:
    """The wire token of a vertex, or raise if it cannot round-trip."""
    if isinstance(vertex, bool) or not isinstance(vertex, (int, str)):
        raise GraphFormatError(
            f"vertex {vertex!r} ({type(vertex).__name__}) is not "
            "serialisable as an edge-list token; only int and str vertices "
            "round-trip"
        )
    if isinstance(vertex, int):
        return str(vertex)
    if not vertex or any(ch.isspace() for ch in vertex):
        raise GraphFormatError(
            f"string vertex {vertex!r} is empty or contains whitespace and "
            "cannot be written as a whitespace-separated edge-list token"
        )
    if vertex.startswith("#"):
        raise GraphFormatError(
            f"string vertex {vertex!r} starts with '#' (the comment marker) "
            "and would be skipped on load"
        )
    try:
        int(vertex)
    except ValueError:
        return vertex
    raise GraphFormatError(
        f"string vertex {vertex!r} looks like an integer and would load "
        "back as int (see the module's int-vs-string coercion rule)"
    )


def _label_token(label: object) -> str:
    """The wire token of a label, or raise if it cannot round-trip."""
    if not isinstance(label, str):
        raise GraphFormatError(
            f"label {label!r} ({type(label).__name__}) is not serialisable; "
            "edge-list labels are strings"
        )
    if not label or any(ch.isspace() for ch in label):
        raise GraphFormatError(
            f"label {label!r} is empty or contains whitespace and cannot be "
            "written as a whitespace-separated edge-list token"
        )
    return label


def format_edge_lines(graph: LabeledMultigraph) -> Iterator[str]:
    """Yield the edge-list lines for ``graph`` in deterministic order.

    Raises :class:`~repro.errors.GraphFormatError` for any vertex or
    label the format cannot round-trip (see the module docstring).
    """
    triples = sorted(graph.edges(), key=lambda edge: (str(edge[0]), str(edge[1]), str(edge[2])))
    for source, label, target in triples:
        yield (
            f"{_vertex_token(source)} {_label_token(label)} "
            f"{_vertex_token(target)}\n"
        )


def dump_edge_list(graph: LabeledMultigraph, path: str | Path) -> None:
    """Write ``graph`` to an edge-list file (deterministic line order).

    The lines are buffered first, so an unserialisable token
    (:class:`~repro.errors.GraphFormatError`) leaves the target file
    untouched.
    """
    buffer = io.StringIO()
    for line in format_edge_lines(graph):
        buffer.write(line)
    Path(path).write_text(buffer.getvalue(), encoding="utf-8")
