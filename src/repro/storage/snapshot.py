"""The one id-space graph format: snapshots and RTC-store rows.

A graph at rest is one self-describing JSON document::

    {"format": "repro-graph", "version": 1,
     "vertices": [0, "v", "123", 7],          # the interner table, id order
     "rows": {"a": [[0, [1, 3]], [3, [0]]],   # label -> [[src_id, [dst_ids]]]
              "two words": [[2, [2]]]}}

``vertices`` is :meth:`VertexInterner.vertices
<repro.bitset.VertexInterner.vertices>` verbatim, so it lists every vertex
-- isolated ones included -- with its JSON type (``"123"`` stays a
string, ``123`` an int), and a reader that seeds its interner from it
before adding an edge gets the writer's ids back.  ``rows`` is each
label's forward bitmap adjacency with every mask spelled as its set ids
(a list costs its population, not its highest id, and R-MAT rows are
sparse).  The same row shape, :func:`rows_to_json` /
:func:`rows_from_json`, carries a cached RTC's ``G_R`` rows in
:mod:`repro.storage.rtc_store` -- in the id space of the snapshot
written beside it.

Two users share this codec:

``snapshot-<lsn>.edges``
    The checkpoint's graph (:func:`write_snapshot` / :func:`read_snapshot`);
    the name predates the format and is kept.
:mod:`repro.storage.rtc_store`
    ``G_R`` rows as ids (store version 3).

Only ``int`` (not ``bool``) and ``str`` vertices and ``str`` labels can be
written; anything else raises :class:`~repro.errors.StorageError` before
a file is touched.  Every decode is validated -- repeated or non-JSON
vertices, ids outside the table, wrong shapes -- and fails with
:class:`~repro.errors.StorageError`.

Data directories written before this format (an edge-list or
JSON-triples ``.edges`` file plus ``isolated`` / ``interner`` sidecars)
still load through :func:`read_snapshot`; their first checkpoint
rewrites them in this format.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bitset.interner import bit_indexes
from repro.errors import GraphError, StorageError
from repro.graph.io import parse_edge_lines
from repro.graph.multigraph import LabeledMultigraph
from repro.storage.manifest import atomic_write_text

__all__ = [
    "check_persistable_edge",
    "check_persistable_vertex",
    "graph_from_json",
    "graph_to_json",
    "read_snapshot",
    "rows_from_json",
    "rows_to_json",
    "write_snapshot",
]

_FORMAT = "repro-graph"
_VERSION = 1
_COMPACT = (",", ":")
#: Every document this module writes starts with these bytes; a
#: snapshot file that does not is a pre-format (legacy) snapshot.
_HEADER = json.dumps({"format": _FORMAT}, separators=_COMPACT)[:-1]


def check_persistable_vertex(vertex: object) -> None:
    """Raise :class:`StorageError` unless ``vertex`` survives a JSON trip."""
    if isinstance(vertex, bool) or not isinstance(vertex, (int, str)):
        raise StorageError(
            f"vertex {vertex!r} ({type(vertex).__name__}) cannot be "
            "persisted; storage records only int and str vertices"
        )


def check_persistable_edge(source: object, label: object, target: object) -> None:
    """Raise :class:`StorageError` unless the edge survives a JSON trip."""
    check_persistable_vertex(source)
    check_persistable_vertex(target)
    if not isinstance(label, str):
        raise StorageError(
            f"label {label!r} ({type(label).__name__}) cannot be persisted; "
            "storage records only str labels"
        )


def rows_to_json(rows: dict[int, int]) -> list:
    """Bitmap rows ``src_id -> dst mask`` as ``[[src_id, [dst_ids]], ...]``."""
    return [[source, bit_indexes(mask)] for source, mask in sorted(rows.items())]


_INT = {int}
_BIT = (1).__lshift__


def _checked_rows(data: object, size: int):
    """Yield ``(src_id, dst_ids, dst_mask)`` per row, every id validated."""
    if not isinstance(data, list):
        raise StorageError(f"rows must be a list, got {type(data).__name__}")
    seen: set[int] = set()
    try:
        for source, targets in data:
            # TypeError/ValueError on a non-int or negative target; a
            # sum of distinct bits has one bit per target, and the exact
            # type check refuses a JSON ``true`` (an ``int`` subclass).
            mask = sum(map(_BIT, targets))
            if (
                type(source) is not int
                or not 0 <= source < size
                or source in seen
                or mask >> size
                or mask.bit_count() != len(targets)
                or not _INT.issuperset(map(type, targets))
            ):
                raise StorageError(
                    f"row {[source, targets]!r} repeats an id or names one "
                    f"outside 0..{size - 1}"
                )
            seen.add(source)
            yield source, targets, mask
    except (TypeError, ValueError) as error:
        raise StorageError(f"malformed row: {error}") from error


def rows_from_json(data: object, size: int) -> dict[int, int]:
    """Decode :func:`rows_to_json` output over an id space of ``size`` ids.

    :class:`StorageError` on any shape error, any id outside
    ``range(size)``, or an id repeated.
    """
    return {source: mask for source, _targets, mask in _checked_rows(data, size) if mask}


def graph_to_json(graph: LabeledMultigraph) -> dict:
    """The graph as one document; validates every token first."""
    vertices = graph.interner.vertices()
    for vertex in vertices:
        check_persistable_vertex(vertex)
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "vertices": vertices,
        "rows": {label: rows_to_json(graph.bit_rows(label)) for label in sorted(graph.labels())},
    }


def graph_from_json(document: object) -> LabeledMultigraph:
    """Rebuild a graph from :func:`graph_to_json` output, ids included."""
    if not isinstance(document, dict) or document.get("format") != _FORMAT:
        raise StorageError(f"not a {_FORMAT} document")
    if document.get("version") != _VERSION:
        raise StorageError(f"unsupported {_FORMAT} version {document.get('version')!r}")
    vertices, by_label = document.get("vertices"), document.get("rows")
    if not isinstance(vertices, list) or not isinstance(by_label, dict):
        raise StorageError(f"{_FORMAT} document needs a 'vertices' list and a 'rows' object")
    for vertex in vertices:
        check_persistable_vertex(vertex)
    graph = LabeledMultigraph()
    # Seeded before any edge, so every vertex gets the id it was written at.
    graph.seed_interner(vertices)
    if len(graph.interner) != len(vertices):
        raise StorageError(f"{_FORMAT} vertex table repeats a vertex")
    add_edge = graph.add_edge
    for label, data in by_label.items():
        for source_id, targets, _mask in _checked_rows(data, len(vertices)):
            source = vertices[source_id]
            for target_id in targets:
                add_edge(source, label, vertices[target_id])
    return graph


def _decode(text: str, path) -> LabeledMultigraph:
    try:
        document = json.loads(text)
    except ValueError as error:
        raise StorageError(f"corrupt graph document {path}: {error}") from error
    return graph_from_json(document)


def write_snapshot(graph: LabeledMultigraph, directory: str | Path, lsn: int) -> dict:
    """Write the snapshot of ``graph`` at ``lsn``; returns the manifest entry.

    The write is atomic, and nothing is written when ``graph`` holds a
    vertex or label the format refuses.
    """
    name = f"snapshot-{int(lsn)}.edges"
    text = json.dumps(graph_to_json(graph), separators=_COMPACT)
    atomic_write_text(Path(directory) / name, text + "\n")
    return {"edges": name}


def read_snapshot(directory: str | Path, entry: dict) -> LabeledMultigraph:
    """Rebuild the graph a manifest ``snapshot`` entry describes.

    The file's first bytes decide the reader, not the entry: a migrating
    checkpoint at an unchanged LSN overwrites the legacy file under the
    same name before its manifest commits.
    """
    directory = Path(directory)
    path = directory / entry["edges"]
    if not path.exists():
        raise StorageError(f"manifest names missing snapshot file {path}")
    text = path.read_text(encoding="utf-8")
    if text.startswith(_HEADER):
        return _decode(text, path)
    return _read_legacy(directory, entry, text, path)


def _read_sidecar(directory: Path, name: str) -> list:
    path = directory / name
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise StorageError(f"unreadable snapshot sidecar {path}: {error}") from error


def _read_legacy(directory: Path, entry: dict, text: str, path: Path) -> LabeledMultigraph:
    """A pre-format snapshot: edge-list or JSON-triples lines plus sidecars."""
    graph = LabeledMultigraph()
    if entry.get("interner"):
        graph.seed_interner(_read_sidecar(directory, entry["interner"]))
    lines = text.splitlines()
    try:
        if entry.get("edge_format", "edge-list") == "edge-list":
            triples = list(parse_edge_lines(lines))
        else:
            triples = [json.loads(line) for line in lines if line.strip()]
        for source, label, target in triples:
            graph.add_edge(source, label, target)
    except (ValueError, TypeError, GraphError) as error:
        raise StorageError(f"corrupt legacy snapshot {path}: {error}") from error
    if entry.get("isolated"):
        for vertex in _read_sidecar(directory, entry["isolated"]):
            graph.add_vertex(vertex)
    return graph
