"""PairBitmap units: algebra, membership, lazy materialisation."""

import pytest

from repro.bitset import PairBitmap, VertexInterner


def interned(*vertices):
    interner = VertexInterner()
    for vertex in vertices:
        interner.intern(vertex)
    return interner


class TestConstruction:
    def test_from_pairs_round_trips(self):
        pairs = {("a", "b"), ("a", "c"), ("d", "a")}
        bitmap = PairBitmap.from_pairs(pairs, VertexInterner())
        assert bitmap.pairs == pairs
        assert bitmap.count() == 3

    def test_add_is_idempotent(self):
        bitmap = PairBitmap()
        bitmap.add(0, 5)
        bitmap.add(0, 5)
        assert bitmap.count() == 1

    def test_add_row_drops_empty_masks(self):
        bitmap = PairBitmap()
        bitmap.add_row(3, 0)
        assert not bitmap.rows


class TestAlgebra:
    def test_union_matches_set_union(self):
        interner = interned(*range(8))
        left = PairBitmap.from_pairs({(0, 1), (2, 3)}, interner)
        right = PairBitmap.from_pairs({(2, 3), (4, 5)}, interner)
        left |= right
        assert left.pairs == {(0, 1), (2, 3), (4, 5)}

    def test_intersect_matches_set_intersection(self):
        interner = interned(*range(8))
        left = PairBitmap.from_pairs({(0, 1), (2, 3), (4, 5)}, interner)
        right = PairBitmap.from_pairs({(2, 3), (4, 5), (6, 7)}, interner)
        assert (left & right).pairs == {(2, 3), (4, 5)}

    def test_eq_ignores_empty_rows(self):
        left = PairBitmap({0: 6, 1: 0})
        right = PairBitmap({0: 6})
        assert left == right


class TestMembership:
    def test_contains_by_vertex_and_id(self):
        interner = VertexInterner()
        bitmap = PairBitmap.from_pairs({("s", "t")}, interner)
        assert bitmap.contains("s", "t")
        assert not bitmap.contains("t", "s")
        assert not bitmap.contains("s", "unknown")
        assert bitmap.contains_ids(interner.id_of("s"), interner.id_of("t"))

    def test_len_and_bool(self):
        bitmap = PairBitmap()
        assert not bitmap and len(bitmap) == 0
        bitmap.add(1, 2)
        assert bitmap and len(bitmap) == 1

    def test_row_access_decodes_one_row(self):
        interner = VertexInterner()
        bitmap = PairBitmap.from_pairs({("s", "t"), ("s", "u"), ("t", "s")}, interner)
        bitmap.rows[interner.intern("empty")] = 0  # a zero row starts nothing
        assert sorted(bitmap.ends_of("s")) == ["t", "u"]
        assert bitmap.ends_of("u") == () == bitmap.ends_of("unknown")
        assert sorted(bitmap.starts()) == ["s", "t"]

    def test_id_pairs_enumerates_set_bits(self):
        bitmap = PairBitmap({2: (1 << 0) | (1 << 63)})
        assert sorted(bitmap.id_pairs()) == [(2, 0), (2, 63)]


class TestMaterialisation:
    def test_to_pairs_requires_an_interner(self):
        bitmap = PairBitmap({0: 1})
        with pytest.raises(ValueError):
            bitmap.to_pairs()

    def test_explicit_interner_overrides(self):
        interner = interned("a", "b")
        bitmap = PairBitmap({0: 1 << 1})
        assert bitmap.to_pairs(interner) == {("a", "b")}
