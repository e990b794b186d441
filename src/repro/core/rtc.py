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
:meth:`ReducedTransitiveClosure.expand` implements it and the test
suite checks it against four independent closure algorithms.

An RTC has one representation: both relations as bitmaps over a
:class:`~repro.bitset.VertexInterner` -- a vertex-id -> SCC-id table and
one member bitmap per SCC, one bitmap of SCC ids per SCC -- which is all
the bit-parallel Algorithm 2, the reachability probe and the update
repair read.  The vertex-keyed ``condensation``, ``closure``, ``scc_of``
and ``members`` are views derived on first use, for stats, the CLI, the
relational algebra and the counted set join.

:func:`compute_rtc` is ``Compute_RTC`` of Algorithm 1 (line 11): build
``G_R`` from ``R_G`` (which *is* the edge set ``E_R``), run Tarjan, and
close the condensation with the bitset DP -- all on interned ids when
``R_G`` is a :class:`~repro.bitset.PairBitmap`, keeping its rows
(``gr_rows``) for the update repair.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property, reduce
from operator import or_

from repro.bitset.interner import VertexInterner, bit_indexes
from repro.bitset.pairbitmap import PairBitmap
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation, condense
from repro.graph.transitive_closure import dag_closure_bitsets

__all__ = ["ReducedTransitiveClosure", "compute_rtc"]


class ReducedTransitiveClosure:
    """``R̄+_G`` plus the SCC bookkeeping needed to interpret it, in id space.

    ``scc_of_id[i]`` is the SCC of the vertex with id ``i`` in
    ``interner`` (``-1``, or past the end, outside ``V_R``);
    ``vertex_mask`` and ``member_masks[s]`` are the bitmaps of ``V_R``
    and of the SCC ``s``; ``closure_masks[s]`` holds the SCC ids ``s``
    reaches in ``TC(Ḡ_R)``, bit ``s`` iff the SCC is cyclic (SCC ids
    ascend in reverse topological order, as :func:`condense` promises).
    ``gr_rows`` is ``G_R`` as ``source id -> target bitmap`` rows when
    the RTC was computed or stored with them (else ``None``): what the
    update repair of :mod:`repro.core.incremental` reads.
    ``num_gr_vertices`` / ``num_gr_edges`` are ``|V_R|`` / ``|E_R|``
    (Figs. 12-13, Table III); ``num_pairs`` counts ``TC(Ḡ_R)``, the
    shared-data size Fig. 12 plots.

    Never mutated.  Reach rows, the rebase and the vertex-keyed views are
    filled in lazily and without a lock: the benign race of
    :mod:`repro.core.cache`.
    """

    def __init__(
        self,
        interner: VertexInterner,
        scc_of_id: list[int],
        vertex_mask: int,
        member_masks: list[int],
        closure_masks: list[int],
        num_gr_edges: int,
        gr_rows: dict[int, int] | None = None,
        condensation: Condensation | None = None,
    ) -> None:
        self.interner = interner
        self.scc_of_id = scc_of_id
        self.vertex_mask = vertex_mask
        self.member_masks = member_masks
        self.closure_masks = closure_masks
        self.gr_rows = gr_rows
        self.num_gr_vertices = vertex_mask.bit_count()
        self.num_gr_edges = num_gr_edges
        self.num_pairs = sum(mask.bit_count() for mask in closure_masks)
        self._reach: dict[int, int] = {}
        self._rebased: ReducedTransitiveClosure | None = None
        if condensation is not None:
            self.condensation = condensation

    @classmethod
    def from_members(
        cls,
        interner: VertexInterner,
        members: Iterable[Iterable],
        closure_masks: list[int],
        num_gr_edges: int,
        gr_rows: dict[int, int] | None = None,
        condensation: Condensation | None = None,
    ) -> "ReducedTransitiveClosure":
        """An RTC over ``interner`` from each SCC's members, in SCC id
        order; every member is interned."""
        groups = [list(map(interner.intern, vertices)) for vertices in members]
        member_masks = [reduce(or_, (1 << vertex_id for vertex_id in ids), 0) for ids in groups]
        vertex_mask = reduce(or_, member_masks, 0)
        scc_of_id = [-1] * vertex_mask.bit_length()
        for scc_id, ids in enumerate(groups):
            for vertex_id in ids:
                scc_of_id[vertex_id] = scc_id
        return cls(
            interner,
            scc_of_id,
            vertex_mask,
            member_masks,
            closure_masks,
            num_gr_edges,
            gr_rows,
            condensation,
        )

    def rebased(self, interner: VertexInterner) -> "ReducedTransitiveClosure":
        """This RTC over ``interner`` (itself if already there): same SCC
        ids and closure, members interned anew.  The last rebase is kept,
        so joining an RTC built elsewhere costs one conversion."""
        if interner is self.interner:
            return self
        rebased = self._rebased
        if rebased is None or rebased.interner is not interner:
            members = map(self.interner.vertices_of, self.member_masks)
            rebased = self._rebased = ReducedTransitiveClosure.from_members(
                interner, members, self.closure_masks, self.num_gr_edges
            )
        return rebased

    @property
    def num_sccs(self) -> int:
        """``|V̄_R|`` -- vertex count of the two-level reduced graph."""
        return len(self.member_masks)

    def scc_id_of(self, vertex: object) -> int | None:
        """The SCC of ``vertex``, or ``None`` outside ``V_R``."""
        vertex_id = self.interner.id_of(vertex)
        if vertex_id is None or vertex_id >= len(self.scc_of_id):
            return None
        scc_id = self.scc_of_id[vertex_id]
        return None if scc_id < 0 else scc_id

    def reach(self, scc_id: int) -> int:
        """Bitmap of every vertex ``R+``-reachable from the SCC ``scc_id``:
        the members of its closure (Theorem 1, one row per SCC)."""
        row = self._reach.get(scc_id)
        if row is None:
            members = self.member_masks
            targets = bit_indexes(self.closure_masks[scc_id])
            row = self._reach[scc_id] = reduce(or_, map(members.__getitem__, targets), 0)
        return row

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate the SCC-id pairs of ``TC(Ḡ_R)``."""
        for source_id, mask in enumerate(self.closure_masks):
            for target_id in bit_indexes(mask):
                yield (source_id, target_id)

    def reaches(self, source: object, target: object) -> bool:
        """Membership test ``(source, target) in R+_G`` without expansion:
        the RTC as a reachability index over ``G_R`` (Section VI)."""
        source_id = self.scc_id_of(source)
        target_id = self.scc_id_of(target)
        if source_id is None or target_id is None:
            return False
        return bool(self.closure_masks[source_id] >> target_id & 1)

    def ends_from(self, vertex: object) -> tuple:
        """All ``w`` with ``(vertex, w) in R+_G`` (one Theorem 1 row)."""
        scc_id = self.scc_id_of(vertex)
        return () if scc_id is None else self.interner.vertices_of(self.reach(scc_id))

    def expand(self) -> set[tuple[object, object]]:
        """Theorem 1: materialise ``R+_G = {(v_i, v_j) | (v̄_k, v̄_l) in
        TC(Ḡ_R), (v_i, v_j) in s_k x s_l}`` -- each member of ``s_k``
        gets ``s_k``'s reach row."""
        rows: dict[int, int] = {}
        for scc_id, members in enumerate(self.member_masks):
            if row := self.reach(scc_id):
                rows.update(dict.fromkeys(bit_indexes(members), row))
        return PairBitmap(rows, interner=self.interner).to_pairs()

    @property
    def num_expanded_pairs(self) -> int:
        """``|R+_G|`` computed without materialising it (sum of products)."""
        sizes = [members.bit_count() for members in self.member_masks]
        return sum(
            size * sum(sizes[target_id] for target_id in bit_indexes(mask))
            for size, mask in zip(sizes, self.closure_masks)
        )

    # -- vertex-keyed views ----------------------------------------------
    @cached_property
    def closure(self) -> dict[int, frozenset[int]]:
        """``scc_id -> frozenset(scc_id)``: the transitive closure of ``Ḡ_R``."""
        return {s: frozenset(bit_indexes(mask)) for s, mask in enumerate(self.closure_masks)}

    @property
    def scc_of(self) -> dict:
        """Vertex of ``G_R`` -> SCC id (the relation ``SCC(V, S)``)."""
        return self.condensation.scc_of

    def members(self, scc_id: int) -> tuple:
        """Vertices of the SCC ``s_i`` (the set the paper also calls s_i)."""
        return self.condensation.members[scc_id]

    @cached_property
    def condensation(self) -> Condensation:
        """The vertex-level reduction of ``G_R`` (SCC map + condensed DAG).

        Members are sorted when orderable, like :func:`condense`'s.  The
        DAG is exact from ``gr_rows``; an RTC kept without rows gets the
        smallest DAG with its closure (self-loops on cyclic SCCs, plus
        each closure edge no longer path implies).
        """
        scc_of: dict = {}
        members: dict = {}
        for scc_id, mask in enumerate(self.member_masks):
            vertices = self.interner.vertices_of(mask)
            try:
                members[scc_id] = tuple(sorted(vertices))
            except TypeError:  # mixed/unorderable vertex types
                members[scc_id] = vertices
            scc_of.update(dict.fromkeys(vertices, scc_id))
        dag = DiGraph()
        closure_masks, rows = self.closure_masks, self.gr_rows
        for scc_id, mask in enumerate(self.member_masks):
            dag.add_vertex(scc_id)
            bit = 1 << scc_id
            if rows is None:
                successors = closure_masks[scc_id] & ~bit
                for target_id in bit_indexes(successors):
                    successors &= ~closure_masks[target_id] | (1 << target_id)
                successors |= closure_masks[scc_id] & bit
            else:
                neighbours = reduce(or_, (rows.get(member, 0) for member in bit_indexes(mask)), 0)
                successors = bit if neighbours & mask else 0
                outside = neighbours & ~mask
                while outside:
                    target_id = self.scc_of_id[(outside & -outside).bit_length() - 1]
                    successors |= 1 << target_id
                    outside &= ~self.member_masks[target_id]
            for target_id in bit_indexes(successors):
                dag.add_edge(scc_id, target_id)
        return Condensation(scc_of=scc_of, members=members, dag=dag)


def compute_rtc(
    rg: Iterable[tuple[object, object]] | DiGraph | PairBitmap,
) -> ReducedTransitiveClosure:
    """``Compute_RTC(R_G)`` of Algorithm 1: ``R_G -> G_R -> Ḡ_R -> TC(Ḡ_R)``.

    ``rg`` is the evaluation result of ``R`` on ``G`` -- by definition the
    edge set of the edge-level reduced graph ``G_R`` (Lemma 1's setup).
    As a :class:`~repro.bitset.PairBitmap` (the bit-parallel engine's
    ``R_G``) it is reduced without leaving its interner's id space, and
    the result keeps the rows as ``gr_rows`` -- the caller hands them
    over.  Vertex pairs or a :class:`DiGraph` go through :func:`condense`
    and the bitset DP; the condensation is kept as the view and ``V_R``
    gets a private id space.
    """
    if isinstance(rg, PairBitmap):
        return _compute_rtc_from_rows(rg.rows, rg.require_interner())
    graph = rg if isinstance(rg, DiGraph) else DiGraph.from_pairs(rg)
    condensation = condense(graph)
    return ReducedTransitiveClosure.from_members(
        VertexInterner(),
        condensation.members.values(),
        list(dag_closure_bitsets(condensation).values()),  # ascending SCC ids
        graph.num_edges,
        condensation=condensation,
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
    :func:`~repro.graph.scc.condense`.
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
    scc_of = [-1] * size  # -1 while on the Tarjan stack, and outside V_R
    member_masks: list[int] = []
    closure_masks: list[int] = []  # scc id -> bitmap of reachable scc ids
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
            scc_id = len(member_masks)
            members = neighbours = 0
            while True:
                member = stack.pop()
                scc_of[member] = scc_id
                members |= 1 << member
                neighbours |= rows.get(member, 0)
                if member == vertex:
                    break
            # An edge inside the component: it is cyclic (more than one
            # member, or a self-loop in G_R) and reaches itself.
            reached = 1 << scc_id if neighbours & members else 0
            outside = neighbours & ~members
            while outside:
                target_id = scc_of[(outside & -outside).bit_length() - 1]
                reached |= (1 << target_id) | closure_masks[target_id]
                outside &= ~member_masks[target_id]
            member_masks.append(members)
            closure_masks.append(reached)

    return ReducedTransitiveClosure(
        interner,
        scc_of,
        vertex_mask,
        member_masks,
        closure_masks,
        sum(map(len, successors.values())),
        gr_rows=rows,
    )
