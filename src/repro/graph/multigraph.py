"""Edge-labeled directed multigraph -- the paper's data model (Section II-A).

The paper defines the RPQ data model as a 5-tuple ``G = (V, E, f, Sigma, l)``:
a set of vertices, a set of directed edges, an incidence function mapping each
edge to an ordered vertex pair, a label alphabet, and a labeling function.
Parallel edges between the same ordered vertex pair are allowed **only when
their labels differ**, so an edge is fully identified by the triple
``(source, label, target)``.

:class:`LabeledMultigraph` stores the graph once, in the id space of the
bit-parallel kernel:

* ``V`` is a :class:`~repro.bitset.VertexInterner`, which gives every
  vertex a dense, never-reused int id (an isolated vertex is an id no
  row names);
* ``E`` is the forward and reverse **bitmap adjacency rows**
  (``label -> src_id -> dst bitmap`` and ``label -> dst_id -> src
  bitmap``, one Python big-int per row), updated in place by
  :meth:`add_edge` / :meth:`remove_edge` so :mod:`repro.bitset.kernel`,
  ``Compute_RTC``, the RTC repair and snapshots read them with no
  rebuild step;
* per-label edge counts (the selectivity statistic) and ``|E|``.

A duplicate or absent edge is one bit test and a degree is a popcount.
The vertex-keyed accessors (:meth:`targets`, :meth:`sources`,
:meth:`edges_with_label`, :meth:`out_edges`, :meth:`edges`, ...) decode
rows.  The tuple-set evaluators (the counted reference and the test
oracles) re-read :meth:`targets`, :meth:`sources` and
:meth:`edges_with_label` at every step, so those three are memoised in
one read-side dict that every edge mutation drops; the production paths
read rows and leave it empty.

Vertices may be any hashable object; the library and the paper use small
integers throughout.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.bitset.interner import VertexInterner
from repro.errors import GraphError, VertexNotFoundError

__all__ = ["LabeledMultigraph", "Edge"]

Edge = tuple  # (source, label, target); alias for documentation purposes

_EMPTY_ROWS: dict = {}
#: Memo key tags of the decoded views (a label alone keys its pairs).
_TARGETS, _SOURCES = "targets", "sources"


class LabeledMultigraph:
    """An edge-labeled directed multigraph ``G = (V, E, f, Sigma, l)``.

    >>> g = LabeledMultigraph()
    >>> g.add_edge(0, "a", 1)
    >>> g.add_edge(0, "b", 1)      # parallel edge, different label: allowed
    >>> g.add_edge(1, "a", 0)
    >>> sorted(g.targets(0, "a"))
    [1]
    >>> g.num_edges
    3
    """

    __slots__ = ("_interner", "_fwd", "_rev", "_label_counts", "_num_edges", "_decoded")

    def __init__(self) -> None:
        self._interner = VertexInterner()
        # label -> src_id -> dst bitmap / label -> dst_id -> src bitmap
        self._fwd: dict[str, dict[int, int]] = {}
        self._rev: dict[str, dict[int, int]] = {}
        self._label_counts: dict[str, int] = {}
        self._num_edges = 0
        # (tag, label, vertex) -> frozenset of targets / sources, and
        # label -> frozenset of pairs; cleared by every edge mutation.
        # Concurrent readers may race to fill one key with equal values.
        self._decoded: dict = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: object) -> None:
        """Add an isolated vertex (a no-op if it already exists).

        No decoded view changes: a new vertex has no edges yet.
        """
        self._interner.intern(vertex)

    def add_edge(self, source: object, label: str, target: object) -> None:
        """Add the edge ``e(source, label, target)``.

        Raises :class:`~repro.errors.GraphError` if the identical labeled
        edge already exists: the data model forbids two parallel edges with
        the same label.  A refused edge interns no vertex.
        """
        if not isinstance(label, str):
            raise GraphError(f"edge labels must be strings, got {label!r}")
        if self.has_edge(source, label, target):
            raise GraphError(
                f"duplicate edge ({source!r}, {label!r}, {target!r}); the data "
                "model allows parallel edges only with distinct labels"
            )
        source_id = self._interner.intern(source)
        target_id = self._interner.intern(target)
        fwd = self._fwd.setdefault(label, {})
        fwd[source_id] = fwd.get(source_id, 0) | (1 << target_id)
        rev = self._rev.setdefault(label, {})
        rev[target_id] = rev.get(target_id, 0) | (1 << source_id)
        self._label_counts[label] = self._label_counts.get(label, 0) + 1
        self._num_edges += 1
        self._decoded.clear()

    def add_edges(self, edges: Iterable[tuple[object, str, object]]) -> None:
        """Add many ``(source, label, target)`` triples."""
        for source, label, target in edges:
            self.add_edge(source, label, target)

    def add_edge_if_absent(self, source: object, label: str, target: object) -> bool:
        """Add the edge unless it already exists; return True when added.

        Random generators (R-MAT) produce duplicate triples; this is the
        tolerant insertion they use.
        """
        if self.has_edge(source, label, target):
            return False
        self.add_edge(source, label, target)
        return True

    def remove_edge(self, source: object, label: str, target: object) -> None:
        """Remove the edge ``e(source, label, target)``.

        Endpoint vertices stay in the graph even when they become
        isolated (``|V|`` is unchanged, matching the data model where
        ``V`` is independent of ``E``).  Raises
        :class:`~repro.errors.GraphError` when the edge is absent.
        """
        if not self.has_edge(source, label, target):
            raise GraphError(
                f"edge ({source!r}, {label!r}, {target!r}) is not in the graph"
            )
        source_id = self._interner.id_of(source)
        target_id = self._interner.id_of(target)
        _clear_bit(self._fwd, label, source_id, target_id)
        _clear_bit(self._rev, label, target_id, source_id)
        remaining = self._label_counts[label] - 1
        if remaining:
            self._label_counts[label] = remaining
        else:
            del self._label_counts[label]
        self._num_edges -= 1
        self._decoded.clear()

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[object, str, object]]
    ) -> "LabeledMultigraph":
        """Build a graph from an iterable of ``(source, label, target)``."""
        graph = cls()
        graph.add_edges(edges)
        return graph

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``|V|`` -- number of vertices, including isolated ones."""
        return len(self._interner)

    @property
    def num_edges(self) -> int:
        """``|E|`` -- number of labeled edges."""
        return self._num_edges

    @property
    def num_labels(self) -> int:
        """``|Sigma|`` -- size of the label alphabet actually used."""
        return len(self._label_counts)

    def vertices(self) -> Iterator[object]:
        """Iterate over all vertices, in id order."""
        return iter(self._interner)

    def labels(self) -> Iterator[str]:
        """Iterate over the label alphabet Sigma."""
        return iter(self._label_counts)

    def edges(self) -> Iterator[tuple[object, str, object]]:
        """Iterate over all edges as ``(source, label, target)`` triples."""
        vertex_of = self._interner.vertex_of
        vertices_of = self._interner.vertices_of
        for label, rows in self._fwd.items():
            for source_id, mask in rows.items():
                source = vertex_of(source_id)
                for target in vertices_of(mask):
                    yield (source, label, target)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._interner

    def __len__(self) -> int:
        return len(self._interner)

    def has_edge(self, source: object, label: str, target: object) -> bool:
        """True when the exact labeled edge exists."""
        source_id = self._interner.id_of(source)
        target_id = self._interner.id_of(target)
        if source_id is None or target_id is None:
            return False
        row = self._fwd.get(label, _EMPTY_ROWS).get(source_id, 0)
        return bool(row >> target_id & 1)

    def has_vertex(self, vertex: object) -> bool:
        """True when the vertex exists (possibly isolated)."""
        return vertex in self._interner

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def out_edges(self, vertex: object) -> Iterator[tuple[str, object]]:
        """Iterate ``(label, target)`` over the out-edges of ``vertex``."""
        return self._incident(self._fwd, vertex)

    def in_edges(self, vertex: object) -> Iterator[tuple[str, object]]:
        """Iterate ``(label, source)`` over the in-edges of ``vertex``."""
        return self._incident(self._rev, vertex)

    def _incident(self, by_label: dict, vertex: object) -> Iterator[tuple[str, object]]:
        vertex_id = self._interner.id_of(vertex)
        if vertex_id is None:
            return
        for label, rows in by_label.items():
            mask = rows.get(vertex_id)
            if mask:
                for other in self._interner.vertices_of(mask):
                    yield (label, other)

    def targets(self, vertex: object, label: str) -> frozenset:
        """Set of targets reachable from ``vertex`` via one ``label`` edge."""
        key = (_TARGETS, label, vertex)
        found = self._decoded.get(key)
        return self._decode_row(key, self._fwd) if found is None else found

    def sources(self, vertex: object, label: str) -> frozenset:
        """Set of sources with a ``label`` edge into ``vertex``."""
        key = (_SOURCES, label, vertex)
        found = self._decoded.get(key)
        return self._decode_row(key, self._rev) if found is None else found

    def _decode_row(self, key: tuple, by_label: dict) -> frozenset:
        _tag, label, vertex = key
        vertex_id = self._interner.id_of(vertex)
        mask = 0 if vertex_id is None else by_label.get(label, _EMPTY_ROWS).get(vertex_id, 0)
        decoded = self._decoded[key] = frozenset(self._interner.vertices_of(mask))
        return decoded

    def edges_with_label(self, label: str) -> frozenset:
        """All ``(source, target)`` pairs connected by an edge labeled ``label``."""
        found = self._decoded.get(label)
        if found is None:
            vertex_of = self._interner.vertex_of
            vertices_of = self._interner.vertices_of
            found = self._decoded[label] = frozenset(
                (vertex_of(source_id), target)
                for source_id, mask in self._fwd.get(label, _EMPTY_ROWS).items()
                for target in vertices_of(mask)
            )
        return found

    def label_count(self, label: str) -> int:
        """Number of edges carrying ``label`` (selectivity statistic)."""
        return self._label_counts.get(label, 0)

    def out_degree(self, vertex: object) -> int:
        """Total number of out-edges of ``vertex`` across all labels."""
        return self._degree(self._fwd, vertex)

    def in_degree(self, vertex: object) -> int:
        """Total number of in-edges of ``vertex`` across all labels."""
        return self._degree(self._rev, vertex)

    def _degree(self, by_label: dict, vertex: object) -> int:
        vertex_id = self._interner.id_of(vertex)
        if vertex_id is None:
            raise VertexNotFoundError(vertex)
        return sum(rows.get(vertex_id, 0).bit_count() for rows in by_label.values())

    def average_degree_per_label(self) -> float:
        """The paper's x-axis statistic ``|E| / (|V| * |Sigma|)``.

        Returns 0.0 for a graph with no vertices or no labels.
        """
        if not self._label_counts:
            return 0.0
        return self._num_edges / (len(self._interner) * len(self._label_counts))

    # ------------------------------------------------------------------
    # bit-parallel kernel view
    # ------------------------------------------------------------------
    @property
    def interner(self) -> VertexInterner:
        """The graph's dense vertex-id space (ids stable across updates)."""
        return self._interner

    def seed_interner(self, vertices: Iterable[object]) -> None:
        """Pre-assign ids in the given order (snapshot and copy path).

        Must run before edges are loaded so restored bitmaps and caches
        keyed on ids stay meaningful; vertices are added to ``V`` as a
        side effect, which is how a snapshot's table carries isolated
        vertices.
        """
        for vertex in vertices:
            self._interner.intern(vertex)

    def bit_rows(self, label: str) -> dict[int, int]:
        """Read-only ``src_id -> dst bitmap`` rows for one label.

        Hot-path accessor for :mod:`repro.bitset.kernel`; callers must
        not mutate the returned mapping.
        """
        return self._fwd.get(label, _EMPTY_ROWS)

    def rev_bit_rows(self, label: str) -> dict[int, int]:
        """Read-only ``dst_id -> src bitmap`` reverse rows for one label."""
        return self._rev.get(label, _EMPTY_ROWS)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "LabeledMultigraph":
        """A new graph with every edge direction flipped (labels kept).

        Same id space: the copy's forward rows are this graph's reverse
        rows and vice versa.
        """
        flipped = self.copy()
        flipped._fwd, flipped._rev = flipped._rev, flipped._fwd
        return flipped

    def subgraph(self, vertices: Iterable[object]) -> "LabeledMultigraph":
        """The induced subgraph on ``vertices`` (edges with both ends kept)."""
        keep = set(vertices)
        sub = LabeledMultigraph()
        sub.seed_interner(vertex for vertex in self._interner if vertex in keep)
        sub.add_edges(
            (source, label, target)
            for source, label, target in self.edges()
            if source in keep and target in keep
        )
        return sub

    def copy(self) -> "LabeledMultigraph":
        """An independent deep copy of the graph, in the same id space.

        Every vertex keeps its interner id, so id-space rows (bitmaps,
        RTC-store rows) read the same on the copy.  The copy starts
        with no decoded views.
        """
        duplicate = LabeledMultigraph()
        duplicate.seed_interner(self._interner)
        duplicate._fwd = {label: dict(rows) for label, rows in self._fwd.items()}
        duplicate._rev = {label: dict(rows) for label, rows in self._rev.items()}
        duplicate._label_counts = dict(self._label_counts)
        duplicate._num_edges = self._num_edges
        return duplicate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledMultigraph):
            return NotImplemented
        return set(self.vertices()) == set(other.vertices()) and set(
            self.edges()
        ) == set(other.edges())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabeledMultigraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|Sigma|={self.num_labels})"
        )


def _clear_bit(by_label: dict, label: str, row_id: int, bit: int) -> None:
    """Clear one bit of a row, dropping the row and label once empty."""
    rows = by_label[label]
    remaining = rows[row_id] & ~(1 << bit)
    if remaining:
        rows[row_id] = remaining
    else:
        del rows[row_id]
        if not rows:
            del by_label[label]
