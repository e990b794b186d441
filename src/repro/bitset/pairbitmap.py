"""``PairBitmap`` -- a vertex-pair relation as per-source dst bitmaps.

The bitmap analogue of ``set[tuple[vertex, vertex]]``: one Python
big-int per source id, bit ``j`` set when ``(source_i, vertex_j)`` is in
the relation.  Union is a per-row ``|``, intersection a per-row ``&``,
cardinality a sum of ``int.bit_count()`` -- all word-parallel, no tuple
allocation and no per-pair hashing.

A ``PairBitmap`` may carry the :class:`~repro.bitset.VertexInterner`
that defines its id space, in which case :meth:`to_pairs` /
:meth:`pairs` can materialise vertex tuples without the caller
re-supplying it -- that is how lazy tuple materialisation in
:class:`repro.db.ResultSet` works: the bitmap travels, the tuples are
built only when someone actually iterates the result.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, product

from repro.bitset.interner import VertexInterner, bit_indexes

__all__ = ["PairBitmap"]


class PairBitmap:
    """A binary relation over interned vertex ids, stored row-wise.

    >>> pb = PairBitmap()
    >>> pb.add(0, 2); pb.add(0, 5); pb.add(3, 2)
    >>> pb.count()
    3
    >>> sorted(pb.id_pairs())
    [(0, 2), (0, 5), (3, 2)]
    """

    __slots__ = ("rows", "interner")

    def __init__(
        self,
        rows: dict[int, int] | None = None,
        interner: VertexInterner | None = None,
    ) -> None:
        #: ``source_id -> dst bitmap``; rows with an empty bitmap are
        #: dropped eagerly so ``bool(rows)`` means "non-empty relation".
        self.rows: dict[int, int] = {} if rows is None else rows
        #: The id space, when known (enables :meth:`pairs`).
        self.interner = interner

    # -- construction ------------------------------------------------------
    def add(self, source_id: int, target_id: int) -> None:
        """Insert one pair (idempotent)."""
        self.rows[source_id] = self.rows.get(source_id, 0) | (1 << target_id)

    def add_row(self, source_id: int, mask: int) -> None:
        """OR a dst bitmap into ``source_id``'s row."""
        if mask:
            self.rows[source_id] = self.rows.get(source_id, 0) | mask

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple], interner: VertexInterner
    ) -> "PairBitmap":
        """Build from vertex tuples, interning as needed."""
        bitmap = cls(interner=interner)
        intern = interner.intern
        rows = bitmap.rows
        for source, target in pairs:
            source_id = intern(source)
            rows[source_id] = rows.get(source_id, 0) | (1 << intern(target))
        return bitmap

    @classmethod
    def identity(cls, ids: Iterable[int], interner: VertexInterner) -> "PairBitmap":
        """The reflexive pairs ``(i, i)`` of the given ids."""
        return cls({i: 1 << i for i in ids}, interner=interner)

    # -- algebra -----------------------------------------------------------
    def union_update(self, other: "PairBitmap") -> None:
        """In-place union (id spaces must match)."""
        rows = self.rows
        for source_id, mask in other.rows.items():
            rows[source_id] = rows.get(source_id, 0) | mask

    def __ior__(self, other: "PairBitmap") -> "PairBitmap":
        self.union_update(other)
        return self

    def intersect(self, other: "PairBitmap") -> "PairBitmap":
        """The pairwise intersection (same id space), as a new bitmap."""
        rows = {}
        other_rows = other.rows
        for source_id, mask in self.rows.items():
            common = mask & other_rows.get(source_id, 0)
            if common:
                rows[source_id] = common
        return PairBitmap(rows, interner=self.interner)

    def __and__(self, other: "PairBitmap") -> "PairBitmap":
        return self.intersect(other)

    # -- inspection --------------------------------------------------------
    def count(self) -> int:
        """Number of pairs -- a sum of ``int.bit_count()``, no iteration."""
        return sum(mask.bit_count() for mask in self.rows.values())

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        return any(self.rows.values())

    def contains_ids(self, source_id: int, target_id: int) -> bool:
        """Membership by id -- one shift and one AND."""
        return bool(self.rows.get(source_id, 0) >> target_id & 1)

    def contains(self, source: object, target: object) -> bool:
        """Membership by vertex (requires an attached interner)."""
        interner = self.require_interner()
        source_id = interner.id_of(source)
        target_id = interner.id_of(target)
        if source_id is None or target_id is None:
            return False
        return self.contains_ids(source_id, target_id)

    def id_pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(source_id, target_id)`` pairs."""
        for source_id, mask in self.rows.items():
            for target_id in bit_indexes(mask):
                yield (source_id, target_id)

    def ends_of(self, vertex: object) -> tuple:
        """The ends paired with start ``vertex`` -- decodes that one row."""
        interner = self.require_interner()
        source_id = interner.id_of(vertex)
        if source_id is None:
            return ()
        return interner.vertices_of(self.rows.get(source_id, 0))

    def starts(self) -> list:
        """The vertices with at least one end, without decoding a row."""
        vertex_of = self.require_interner().vertex_of
        return [vertex_of(source_id) for source_id, mask in self.rows.items() if mask]

    # -- materialisation ---------------------------------------------------
    def require_interner(self) -> VertexInterner:
        """The attached interner; ``ValueError`` when there is none."""
        if self.interner is None:
            raise ValueError(
                "this PairBitmap carries no interner; pass one to to_pairs()"
            )
        return self.interner

    def _row_products(self, interner: VertexInterner) -> Iterator:
        """One C-level ``(source, target)`` iterator per row.

        Each distinct row mask is decoded once: batch results repeat the
        same dst bitmap for every source behind one SCC.
        """
        vertex_of = interner.vertex_of
        vertices_of = interner.vertices_of
        decoded: dict[int, tuple] = {}
        for source_id, mask in self.rows.items():
            targets = decoded.get(mask)
            if targets is None:
                targets = decoded[mask] = vertices_of(mask)
            yield product((vertex_of(source_id),), targets)

    def to_pairs(self, interner: VertexInterner | None = None) -> set:
        """Materialise the vertex-tuple set (the lazy, expensive step)."""
        interner = interner if interner is not None else self.require_interner()
        return set(chain.from_iterable(self._row_products(interner)))

    @property
    def pairs(self) -> set:
        """:meth:`to_pairs` through the attached interner."""
        return self.to_pairs()

    # -- set interop -------------------------------------------------------
    # A PairBitmap with an interner quacks like ``set[tuple[v, v]]``:
    # iteration, membership, equality and right-union against real sets
    # all behave as the materialised pair set would, so engine results
    # can stay packed until a consumer genuinely needs tuples.
    def __iter__(self) -> Iterator[tuple]:
        return chain.from_iterable(self._row_products(self.require_interner()))

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        return self.contains(pair[0], pair[1])

    def __ror__(self, other: set) -> set:
        """``set | bitmap`` (and thus ``set |= bitmap``) materialises."""
        if isinstance(other, (set, frozenset)):
            return other | self.pairs
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairBitmap):
            mine = {s: m for s, m in self.rows.items() if m}
            theirs = {s: m for s, m in other.rows.items() if m}
            return mine == theirs
        if isinstance(other, (set, frozenset)):
            return self.count() == len(other) and self.pairs == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairBitmap({self.count()} pairs, {len(self.rows)} rows)"
