"""The reduced transitive closure (RTC) -- paper Section III-C.

The RTC is the paper's lightweight shareable structure: instead of
materialising the full closure result ``R+_G`` (up to ``|V_R|^2`` vertex
pairs), share

* the SCC membership of the edge-level reduced graph ``G_R`` (the relation
  ``SCC(V, S)`` of Section IV-B), and
* the transitive closure of the condensation ``Ḡ_R`` (the relation
  ``R̄+_G(START_S, END_S)``).

Theorem 1 reconstructs ``R+_G`` as the union of Cartesian products
``s_k x s_l`` over closed SCC pairs ``(v̄_k, v̄_l)``;
:meth:`ReducedTransitiveClosure.expand` implements it verbatim and the test
suite checks it against four independent closure algorithms.

:func:`compute_rtc` is ``Compute_RTC`` of Algorithm 1 (line 11): build
``G_R`` from the evaluation result ``R_G`` (which *is* the edge set
``E_R``), run Tarjan, and close the condensation with the bitset DP.
Handed ``R_G`` as a :class:`~repro.bitset.PairBitmap` it does all three
on interned ids and bitmasks, only names vertices in its output, and
keeps the rows on the result (``gr_rows``) for the update repair.

:class:`RTCMasks` is the same structure as bitmaps over a graph's
interner -- what the bit-parallel Algorithm 2 joins against.  It is
derived lazily and kept on the RTC, so it is shared exactly as widely
as the RTC itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

from repro.bitset.interner import VertexInterner, bit_indexes
from repro.bitset.pairbitmap import PairBitmap
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation, condense
from repro.graph.transitive_closure import scc_closure

__all__ = ["RTCMasks", "ReducedTransitiveClosure", "compute_rtc"]


class RTCMasks:
    """One RTC's SCC structure as bitmaps over an interner's id space.

    ``scc_of_id`` is ``SCC(V, S)`` keyed by vertex id, ``vertices`` the
    bitmap of ``V_R``, ``members[s]`` the member bitmap of ``s`` and
    :meth:`reach` the closure row every vertex of ``s`` shares: the
    union of the member bitmaps of ``closure[s]`` (Theorem 1, one row
    per SCC instead of one per vertex).  Reach rows are built on first
    use, so SCCs no query starts from cost nothing.
    """

    __slots__ = ("interner", "scc_of_id", "vertices", "members", "_closure", "_reach")

    def __init__(self, rtc: "ReducedTransitiveClosure", interner: VertexInterner) -> None:
        self.interner = interner
        self.scc_of_id: dict[int, int] = {}
        self.members: dict[int, int] = {}
        self.vertices = 0
        intern = interner.intern
        for scc_id, vertices in rtc.condensation.members.items():
            mask = 0
            for vertex in vertices:
                vertex_id = intern(vertex)
                mask |= 1 << vertex_id
                self.scc_of_id[vertex_id] = scc_id
            self.members[scc_id] = mask
            self.vertices |= mask
        self._closure = rtc.closure
        self._reach: dict[int, int] = {}

    def reach(self, scc_id: int) -> int:
        """Bitmap of every vertex ``R+``-reachable from the SCC ``scc_id``."""
        mask = self._reach.get(scc_id)
        if mask is None:
            mask = 0
            members = self.members
            for target_id in self._closure[scc_id]:
                mask |= members[target_id]
            self._reach[scc_id] = mask
        return mask


@dataclass(frozen=True)
class ReducedTransitiveClosure:
    """``R̄+_G`` plus the SCC bookkeeping needed to interpret it.

    Attributes
    ----------
    condensation:
        The vertex-level reduction of ``G_R`` (SCC map + condensed DAG).
    closure:
        ``scc_id -> frozenset(scc_id)``: the transitive closure of
        ``Ḡ_R``.  ``s`` appears in ``closure[s]`` iff the SCC is cyclic.
    num_gr_vertices / num_gr_edges:
        ``|V_R|`` and ``|E_R|`` of the edge-level reduced graph, kept for
        the statistics of Figs. 12-13 and Table III.
    gr_rows:
        ``G_R`` itself as ``source id -> target bitmap`` rows over the
        graph's interner, when the RTC was computed from rows (``None``
        otherwise).  Never mutated: the update repair of
        :mod:`repro.core.incremental` reads them and publishes a new RTC.
    """

    condensation: Condensation
    closure: dict[int, frozenset[int]]
    num_gr_vertices: int
    num_gr_edges: int
    gr_rows: dict[int, int] | None = field(default=None, repr=False, compare=False)
    _masks: RTCMasks | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def masks(self, interner: VertexInterner) -> RTCMasks:
        """This RTC as bitmaps over ``interner`` (built once, then shared).

        Every engine that reads the RTC from a shared cache gets the
        same object.  Unsynchronised on purpose: see the benign-race
        rule in :mod:`repro.core.cache`.
        """
        masks = self._masks
        if masks is None or masks.interner is not interner:
            masks = RTCMasks(self, interner)
            object.__setattr__(self, "_masks", masks)
        return masks

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    @property
    def scc_of(self) -> dict:
        """Vertex of ``G_R`` -> SCC id (the relation ``SCC(V, S)``)."""
        return self.condensation.scc_of

    def members(self, scc_id: int) -> tuple:
        """Vertices of the SCC ``s_i`` (the set the paper also calls s_i)."""
        return self.condensation.members[scc_id]

    @property
    def num_sccs(self) -> int:
        """``|V̄_R|`` -- vertex count of the two-level reduced graph."""
        return self.condensation.num_sccs

    @property
    def num_pairs(self) -> int:
        """Size of the shared data: number of pairs in ``TC(Ḡ_R)``.

        This is the quantity Fig. 12 plots for RTCSharing.
        """
        return sum(len(targets) for targets in self.closure.values())

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate the SCC-id pairs of ``TC(Ḡ_R)``."""
        for source_id, targets in self.closure.items():
            for target_id in targets:
                yield (source_id, target_id)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def reaches(self, source: object, target: object) -> bool:
        """Membership test ``(source, target) in R+_G`` without expansion.

        Two dictionary lookups and one set test -- the RTC doubling as a
        reachability index over ``G_R`` (related-work Section VI).
        """
        scc_of = self.condensation.scc_of
        source_id = scc_of.get(source)
        target_id = scc_of.get(target)
        if source_id is None or target_id is None:
            return False
        return target_id in self.closure[source_id]

    def ends_from(self, vertex: object) -> Iterator[object]:
        """All ``w`` with ``(vertex, w) in R+_G``, lazily (Theorem 1 row)."""
        scc_id = self.condensation.scc_of.get(vertex)
        if scc_id is None:
            return
        members = self.condensation.members
        for target_id in self.closure[scc_id]:
            yield from members[target_id]

    def expand(self) -> set[tuple[object, object]]:
        """Theorem 1: materialise ``R+_G`` from the RTC.

        ``R+_G = {(v_i, v_j) | (v̄_k, v̄_l) in TC(Ḡ_R), (v_i, v_j) in
        s_k x s_l}``.
        """
        result: set[tuple[object, object]] = set()
        members = self.condensation.members
        for source_id, targets in self.closure.items():
            source_members = members[source_id]
            for target_id in targets:
                target_members = members[target_id]
                for source in source_members:
                    for target in target_members:
                        result.add((source, target))
        return result

    def expand_bits(self, interner: VertexInterner | None = None) -> PairBitmap:
        """Theorem 1 as a :class:`~repro.bitset.PairBitmap`.

        Same relation as :meth:`expand` but every member of an SCC gets
        the SCC's shared reach row, never a pair-by-pair product --
        tuples materialise only if someone iterates the bitmap (the
        lazy path :class:`repro.db.ResultSet` rides).  ``interner``
        defaults to a private id space over ``V_R``; pass the graph's
        to keep the rows composable with its adjacency bitmaps.
        """
        if interner is None:
            masks = RTCMasks(self, VertexInterner())
        else:
            masks = self.masks(interner)
        rows: dict[int, int] = {}
        for vertex_id, scc_id in masks.scc_of_id.items():
            row = masks.reach(scc_id)
            if row:
                rows[vertex_id] = row
        return PairBitmap(rows, interner=masks.interner)

    @property
    def num_expanded_pairs(self) -> int:
        """``|R+_G|`` computed without materialising it (sum of products)."""
        members = self.condensation.members
        total = 0
        for source_id, targets in self.closure.items():
            source_size = len(members[source_id])
            for target_id in targets:
                total += source_size * len(members[target_id])
        return total


def compute_rtc(
    rg: Iterable[tuple[object, object]] | DiGraph | PairBitmap,
) -> ReducedTransitiveClosure:
    """``Compute_RTC(R_G)`` of Algorithm 1: ``R_G -> G_R -> Ḡ_R -> TC(Ḡ_R)``.

    ``rg`` is the evaluation result of ``R`` on ``G`` -- by definition the
    edge set of the edge-level reduced graph ``G_R`` (Lemma 1's setup) --
    as an iterable of vertex pairs, an already-built :class:`DiGraph`, or
    a :class:`~repro.bitset.PairBitmap` carrying its interner (the
    bit-parallel engine's ``R_G``, reduced without leaving id space; the
    result keeps its rows as ``gr_rows``, so the caller hands them over).
    """
    if isinstance(rg, PairBitmap):
        return _compute_rtc_from_rows(rg.rows, rg.require_interner())
    if isinstance(rg, DiGraph):
        graph = rg
    else:
        graph = DiGraph.from_pairs(rg)
    condensation = condense(graph)
    return ReducedTransitiveClosure(
        condensation=condensation,
        closure=scc_closure(condensation),
        num_gr_vertices=graph.num_vertices,
        num_gr_edges=graph.num_edges,
    )


def _compute_rtc_from_rows(
    rows: dict[int, int], interner: VertexInterner
) -> ReducedTransitiveClosure:
    """``Compute_RTC`` over ``source_id -> target bitmap`` rows of ``G_R``.

    Tarjan on int ids with the closure DP interleaved (Nuutila): a
    component is emitted after everything it reaches, so its closure row
    is the OR of its successors' finished rows.  Successor components
    are found by peeling whole member bitmaps off the component's
    out-neighbourhood -- one step per condensation edge, not per edge of
    ``G_R``.  SCC ids follow emission order like
    :func:`~repro.graph.scc.condense`; vertices are named only when the
    result is assembled.
    """
    vertex_mask = 0
    successors: dict[int, list[int]] = {}
    for source_id, row in rows.items():
        if row:
            vertex_mask |= row | (1 << source_id)
            successors[source_id] = bit_indexes(row)
    size = vertex_mask.bit_length()
    index_of = [0] * size  # 0 = unvisited; discovery indexes start at 1
    lowlink = [0] * size
    scc_of = [-1] * size  # -1 while on the Tarjan stack
    member_masks: list[int] = []
    closure_masks: list[int] = []  # scc id -> bitmap of reachable scc ids
    components: list[list[int]] = []
    dag = DiGraph()
    stack: list[int] = []
    counter = 0

    for root in bit_indexes(vertex_mask):
        if index_of[root]:
            continue
        counter += 1
        index_of[root] = lowlink[root] = counter
        stack.append(root)
        work = [(root, iter(successors.get(root, ())))]
        while work:
            vertex, pending = work[-1]
            advanced = False
            for successor in pending:
                if not index_of[successor]:
                    counter += 1
                    index_of[successor] = lowlink[successor] = counter
                    stack.append(successor)
                    work.append((successor, iter(successors.get(successor, ()))))
                    advanced = True
                    break
                if scc_of[successor] < 0 and index_of[successor] < lowlink[vertex]:
                    lowlink[vertex] = index_of[successor]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[vertex] < lowlink[parent]:
                    lowlink[parent] = lowlink[vertex]
            if lowlink[vertex] != index_of[vertex]:
                continue
            scc_id = len(components)
            component: list[int] = []
            members = neighbours = 0
            while True:
                member = stack.pop()
                scc_of[member] = scc_id
                component.append(member)
                members |= 1 << member
                neighbours |= rows.get(member, 0)
                if member == vertex:
                    break
            dag.add_vertex(scc_id)
            reached = 0
            if neighbours & members:
                # An edge inside the component: it is cyclic (more than
                # one member, or a self-loop in G_R) and reaches itself.
                reached = 1 << scc_id
                dag.add_edge(scc_id, scc_id)
            outside = neighbours & ~members
            while outside:
                target_id = scc_of[(outside & -outside).bit_length() - 1]
                dag.add_edge(scc_id, target_id)
                reached |= (1 << target_id) | closure_masks[target_id]
                outside &= ~member_masks[target_id]
            components.append(component)
            member_masks.append(members)
            closure_masks.append(reached)

    vertex_of = interner.vertex_of
    scc_of_vertex: dict = {}
    members_of: dict = {}
    for scc_id, component in enumerate(components):
        vertices = [vertex_of(vertex_id) for vertex_id in component]
        if len(vertices) > 1:
            try:
                vertices.sort()
            except TypeError:  # mixed/unorderable vertex types
                pass
        members_of[scc_id] = tuple(vertices)
        for vertex in vertices:
            scc_of_vertex[vertex] = scc_id
    return ReducedTransitiveClosure(
        condensation=Condensation(scc_of=scc_of_vertex, members=members_of, dag=dag),
        closure={
            scc_id: frozenset(bit_indexes(mask))
            for scc_id, mask in enumerate(closure_masks)
        },
        num_gr_vertices=vertex_mask.bit_count(),
        num_gr_edges=sum(map(len, successors.values())),
        gr_rows=rows,
    )
