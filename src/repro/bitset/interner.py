"""Dense vertex interning -- the id space under every bitmap.

Bitmaps index vertices by bit position, so every graph (and every wire
payload) needs a mapping from its arbitrary hashable vertices to dense
``int`` ids.  The contract that makes bitmaps safe to cache and
persist:

* ids are assigned in first-``intern`` order, starting at 0;
* ids are **never reused or reassigned** -- removing every edge of a
  vertex leaves its id in place, so bitmaps built before an update
  still mean the same thing after it;
* the interner round-trips as the plain vertex list in id order
  (:meth:`VertexInterner.vertices` / the ``vertices=`` constructor
  argument), which is how :mod:`repro.storage` snapshots persist it and
  how packed wire payloads describe themselves.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import compress

__all__ = ["VertexInterner", "bit_indexes"]

#: A mask whose span is at most this many bits per set bit is decoded by
#: one C-level scan of its binary digits (cost follows ``bit_length``);
#: sparser masks peel set bits one at a time (cost follows
#: ``bit_count``).  Measured crossover on CPython 3.11: ~16 bits per set
#: bit at 256-bit masks, ~80 at 8192-bit masks.
_DENSE_SPAN = 64
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _is_dense(mask: int) -> bool:
    return mask.bit_length() <= _DENSE_SPAN * mask.bit_count()


def _bit_flags(mask: int) -> bytes:
    """One 0/1 byte per bit of ``mask``, lowest bit first."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)


def bit_indexes(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending.

    >>> bit_indexes(0b100101)
    [0, 2, 5]
    """
    if _is_dense(mask):
        return list(compress(range(mask.bit_length()), _bit_flags(mask)))
    indexes = []
    while mask:
        low = mask & -mask
        indexes.append(low.bit_length() - 1)
        mask ^= low
    return indexes


class VertexInterner:
    """Assign dense, stable ``int`` ids to hashable vertices.

    >>> interner = VertexInterner()
    >>> interner.intern("a"), interner.intern("b"), interner.intern("a")
    (0, 1, 0)
    >>> interner.vertex_of(1)
    'b'
    """

    __slots__ = ("_ids", "_vertices")

    def __init__(self, vertices: Iterable = ()) -> None:
        self._ids: dict = {}
        self._vertices: list = []
        for vertex in vertices:
            self.intern(vertex)

    @classmethod
    def from_support(cls, support: int, vertices: list) -> "VertexInterner":
        """The table of a packed wire payload: ``vertices[k]`` gets the
        id of the ``k``-th set bit of ``support``.

        Ids whose bit is clear are holes (``None`` in :meth:`vertices`)
        no bitmap over ``support`` ever names.  ``ValueError`` when the
        two disagree in length or a vertex repeats.
        """
        ids = bit_indexes(support)
        table = cls()
        table._ids = dict(zip(vertices, ids))
        if not len(ids) == len(vertices) == len(table._ids):
            raise ValueError(
                f"support names {len(ids)} ids for {len(vertices)} vertices "
                f"({len(table._ids)} distinct)"
            )
        table._vertices = [None] * support.bit_length()
        for vertex_id, vertex in zip(ids, vertices):
            table._vertices[vertex_id] = vertex
        return table

    def intern(self, vertex: object) -> int:
        """The id of ``vertex``, assigning the next dense id if new."""
        vertex_id = self._ids.get(vertex)
        if vertex_id is None:
            vertex_id = len(self._vertices)
            self._ids[vertex] = vertex_id
            self._vertices.append(vertex)
        return vertex_id

    def id_of(self, vertex: object) -> int | None:
        """The id of an already-interned vertex, else ``None``."""
        return self._ids.get(vertex)

    def vertex_of(self, vertex_id: int) -> object:
        """The vertex an id denotes (raises ``IndexError`` when unknown)."""
        return self._vertices[vertex_id]

    def vertices_of(self, mask: int) -> tuple:
        """The vertices whose ids are set in ``mask``, in id order.

        The inverse of :meth:`mask_of`, and the one place bitmaps turn
        back into vertices (raises ``IndexError`` on an unknown id).
        """
        vertices = self._vertices
        if mask.bit_length() > len(vertices):
            raise IndexError("bitmap names a vertex id this interner never assigned")
        if _is_dense(mask):
            return tuple(compress(vertices, _bit_flags(mask)))
        return tuple(map(vertices.__getitem__, bit_indexes(mask)))

    def vertices(self) -> list:
        """All interned vertices in id order (a copy; snapshot format)."""
        return list(self._vertices)

    def mask_of(self, vertices: Iterable) -> int:
        """One bitmap with the bit of every *interned* vertex given set.

        Vertices the interner has never seen are skipped (they cannot
        appear in any bitmap built over this id space either).
        """
        ids = self._ids
        mask = 0
        for vertex in vertices:
            vertex_id = ids.get(vertex)
            if vertex_id is not None:
                mask |= 1 << vertex_id
        return mask

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._ids

    def __iter__(self) -> Iterator:
        return iter(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VertexInterner({len(self._vertices)} vertices)"
