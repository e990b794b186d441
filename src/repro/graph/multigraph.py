"""Edge-labeled directed multigraph -- the paper's data model (Section II-A).

The paper defines the RPQ data model as a 5-tuple ``G = (V, E, f, Sigma, l)``:
a set of vertices, a set of directed edges, an incidence function mapping each
edge to an ordered vertex pair, a label alphabet, and a labeling function.
Parallel edges between the same ordered vertex pair are allowed **only when
their labels differ**, so an edge is fully identified by the triple
``(source, label, target)``.

:class:`LabeledMultigraph` stores three indexes so that every access pattern
used by the RPQ evaluators is O(1)-ish:

* ``_out``:  ``source -> label -> set(targets)`` -- forward traversal during
  automaton evaluation;
* ``_in``:   ``target -> label -> set(sources)`` -- backward traversal (used
  by the rare-label join evaluator and by reverse reachability);
* ``_by_label``: ``label -> set((source, target))`` -- whole-label scans used
  by the label-join evaluator and by workload statistics.

Alongside the set indexes the graph maintains the bit-parallel kernel's
view of the same adjacency: a :class:`~repro.bitset.VertexInterner`
assigning every vertex a dense, never-reused int id, plus forward and
reverse **bitmap adjacency rows** (``label -> src_id -> dst bitmap`` and
``label -> dst_id -> src bitmap``, one Python big-int per row).  The
rows are updated incrementally by :meth:`add_edge` / :meth:`remove_edge`
so :mod:`repro.bitset.kernel` can sweep them without any rebuild step.

Vertices may be any hashable object; the library and the paper use small
integers throughout, which keeps the indexes compact.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import TypeVar

from repro.bitset.interner import VertexInterner
from repro.errors import GraphError, VertexNotFoundError

Vertex = TypeVar("Vertex", bound=Hashable)

__all__ = ["LabeledMultigraph", "Edge"]

Edge = tuple  # (source, label, target); alias for documentation purposes


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

    __slots__ = (
        "_out",
        "_in",
        "_by_label",
        "_vertices",
        "_num_edges",
        "_interner",
        "_fwd",
        "_rev",
    )

    def __init__(self) -> None:
        self._out: dict[object, dict[str, set[object]]] = {}
        self._in: dict[object, dict[str, set[object]]] = {}
        self._by_label: dict[str, set[tuple[object, object]]] = {}
        self._vertices: set[object] = set()
        self._num_edges = 0
        self._interner = VertexInterner()
        # label -> src_id -> dst bitmap / label -> dst_id -> src bitmap
        self._fwd: dict[str, dict[int, int]] = {}
        self._rev: dict[str, dict[int, int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: object) -> None:
        """Add an isolated vertex (a no-op if it already exists)."""
        self._vertices.add(vertex)
        self._interner.intern(vertex)

    def add_edge(self, source: object, label: str, target: object) -> None:
        """Add the edge ``e(source, label, target)``.

        Raises :class:`~repro.errors.GraphError` if the identical labeled
        edge already exists: the data model forbids two parallel edges with
        the same label.
        """
        if not isinstance(label, str):
            raise GraphError(f"edge labels must be strings, got {label!r}")
        targets = self._out.setdefault(source, {}).setdefault(label, set())
        if target in targets:
            raise GraphError(
                f"duplicate edge ({source!r}, {label!r}, {target!r}); the data "
                "model allows parallel edges only with distinct labels"
            )
        targets.add(target)
        self._in.setdefault(target, {}).setdefault(label, set()).add(source)
        self._by_label.setdefault(label, set()).add((source, target))
        self._vertices.add(source)
        self._vertices.add(target)
        source_id = self._interner.intern(source)
        target_id = self._interner.intern(target)
        fwd = self._fwd.setdefault(label, {})
        fwd[source_id] = fwd.get(source_id, 0) | (1 << target_id)
        rev = self._rev.setdefault(label, {})
        rev[target_id] = rev.get(target_id, 0) | (1 << source_id)
        self._num_edges += 1

    def add_edges(self, edges: Iterable[tuple[object, str, object]]) -> None:
        """Add many ``(source, label, target)`` triples."""
        for source, label, target in edges:
            self.add_edge(source, label, target)

    def add_edge_if_absent(self, source: object, label: str, target: object) -> bool:
        """Add the edge unless it already exists; return True when added.

        Random generators (R-MAT) produce duplicate triples; this is the
        tolerant insertion they use.
        """
        targets = self._out.get(source, {}).get(label)
        if targets is not None and target in targets:
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
        targets = self._out.get(source, {}).get(label)
        if targets is None or target not in targets:
            raise GraphError(
                f"edge ({source!r}, {label!r}, {target!r}) is not in the graph"
            )
        targets.discard(target)
        if not targets:
            del self._out[source][label]
            if not self._out[source]:
                del self._out[source]
        sources = self._in[target][label]
        sources.discard(source)
        if not sources:
            del self._in[target][label]
            if not self._in[target]:
                del self._in[target]
        by_label = self._by_label[label]
        by_label.discard((source, target))
        if not by_label:
            del self._by_label[label]
        source_id = self._interner.id_of(source)
        target_id = self._interner.id_of(target)
        fwd = self._fwd[label]
        remaining = fwd[source_id] & ~(1 << target_id)
        if remaining:
            fwd[source_id] = remaining
        else:
            del fwd[source_id]
            if not fwd:
                del self._fwd[label]
        rev = self._rev[label]
        remaining = rev[target_id] & ~(1 << source_id)
        if remaining:
            rev[target_id] = remaining
        else:
            del rev[target_id]
            if not rev:
                del self._rev[label]
        self._num_edges -= 1

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
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """``|E|`` -- number of labeled edges."""
        return self._num_edges

    @property
    def num_labels(self) -> int:
        """``|Sigma|`` -- size of the label alphabet actually used."""
        return len(self._by_label)

    def vertices(self) -> Iterator[object]:
        """Iterate over all vertices."""
        return iter(self._vertices)

    def labels(self) -> Iterator[str]:
        """Iterate over the label alphabet Sigma."""
        return iter(self._by_label)

    def edges(self) -> Iterator[tuple[object, str, object]]:
        """Iterate over all edges as ``(source, label, target)`` triples."""
        for source, by_label in self._out.items():
            for label, targets in by_label.items():
                for target in targets:
                    yield (source, label, target)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def has_edge(self, source: object, label: str, target: object) -> bool:
        """True when the exact labeled edge exists."""
        return target in self._out.get(source, {}).get(label, ())

    def has_vertex(self, vertex: object) -> bool:
        """True when the vertex exists (possibly isolated)."""
        return vertex in self._vertices

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def out_edges(self, vertex: object) -> Iterator[tuple[str, object]]:
        """Iterate ``(label, target)`` over the out-edges of ``vertex``."""
        for label, targets in self._out.get(vertex, {}).items():
            for target in targets:
                yield (label, target)

    def in_edges(self, vertex: object) -> Iterator[tuple[str, object]]:
        """Iterate ``(label, source)`` over the in-edges of ``vertex``."""
        for label, sources in self._in.get(vertex, {}).items():
            for source in sources:
                yield (label, source)

    def out_labels(self, vertex: object) -> Iterator[str]:
        """Labels that appear on at least one out-edge of ``vertex``."""
        return iter(self._out.get(vertex, {}))

    _EMPTY_OUT: dict = {}

    def out_map(self, vertex: object) -> dict:
        """Read-only view ``label -> set(targets)`` of ``vertex``'s out-edges.

        Hot-path accessor for the automaton evaluators; callers must not
        mutate the returned mapping.
        """
        return self._out.get(vertex, self._EMPTY_OUT)

    def targets(self, vertex: object, label: str) -> frozenset:
        """Set of targets reachable from ``vertex`` via one ``label`` edge."""
        targets = self._out.get(vertex, {}).get(label)
        return frozenset(targets) if targets else frozenset()

    def sources(self, vertex: object, label: str) -> frozenset:
        """Set of sources with a ``label`` edge into ``vertex``."""
        sources = self._in.get(vertex, {}).get(label)
        return frozenset(sources) if sources else frozenset()

    def edges_with_label(self, label: str) -> frozenset:
        """All ``(source, target)`` pairs connected by an edge labeled ``label``."""
        pairs = self._by_label.get(label)
        return frozenset(pairs) if pairs else frozenset()

    def label_count(self, label: str) -> int:
        """Number of edges carrying ``label`` (selectivity statistic)."""
        return len(self._by_label.get(label, ()))

    def out_degree(self, vertex: object) -> int:
        """Total number of out-edges of ``vertex`` across all labels."""
        if vertex not in self._vertices:
            raise VertexNotFoundError(vertex)
        return sum(len(t) for t in self._out.get(vertex, {}).values())

    def in_degree(self, vertex: object) -> int:
        """Total number of in-edges of ``vertex`` across all labels."""
        if vertex not in self._vertices:
            raise VertexNotFoundError(vertex)
        return sum(len(s) for s in self._in.get(vertex, {}).values())

    def average_degree_per_label(self) -> float:
        """The paper's x-axis statistic ``|E| / (|V| * |Sigma|)``.

        Returns 0.0 for a graph with no vertices or no labels.
        """
        if not self._vertices or not self._by_label:
            return 0.0
        return self._num_edges / (len(self._vertices) * len(self._by_label))

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
            self.add_vertex(vertex)

    _EMPTY_ROWS: dict = {}

    def bit_rows(self, label: str) -> dict[int, int]:
        """Read-only ``src_id -> dst bitmap`` rows for one label.

        Hot-path accessor for :mod:`repro.bitset.kernel`; callers must
        not mutate the returned mapping.
        """
        return self._fwd.get(label, self._EMPTY_ROWS)

    def rev_bit_rows(self, label: str) -> dict[int, int]:
        """Read-only ``dst_id -> src bitmap`` reverse rows for one label."""
        return self._rev.get(label, self._EMPTY_ROWS)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "LabeledMultigraph":
        """A new graph with every edge direction flipped (labels kept)."""
        reversed_graph = LabeledMultigraph()
        for vertex in self._vertices:
            reversed_graph.add_vertex(vertex)
        for source, label, target in self.edges():
            reversed_graph.add_edge(target, label, source)
        return reversed_graph

    def subgraph(self, vertices: Iterable[object]) -> "LabeledMultigraph":
        """The induced subgraph on ``vertices`` (edges with both ends kept)."""
        keep = set(vertices)
        sub = LabeledMultigraph()
        for vertex in keep:
            if vertex in self._vertices:
                sub.add_vertex(vertex)
        for source, label, target in self.edges():
            if source in keep and target in keep:
                sub.add_edge(source, label, target)
        return sub

    def copy(self) -> "LabeledMultigraph":
        """An independent deep copy of the graph, in the same id space.

        Every vertex keeps its interner id, so replicas copied from one
        graph can exchange id-space rows (the RTC store relies on it).
        """
        duplicate = LabeledMultigraph()
        duplicate.seed_interner(self._interner)
        duplicate.add_edges(self.edges())
        return duplicate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledMultigraph):
            return NotImplemented
        return self._vertices == other._vertices and set(self.edges()) == set(
            other.edges()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabeledMultigraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|Sigma|={self.num_labels})"
        )
