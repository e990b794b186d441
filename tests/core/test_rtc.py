"""Tests for the reduced transitive closure structure (Section III-C)."""

import pytest

from repro.bitset import PairBitmap, VertexInterner
from repro.core.rtc import compute_rtc
from repro.graph.digraph import DiGraph
from repro.graph.transitive_closure import tc_bfs
from repro.rpq.evaluate import eval_rpq

PAPER_GBC = {(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)}


class TestComputeRtc:
    def test_accepts_pairs_or_digraph(self):
        from_pairs = compute_rtc(PAPER_GBC)
        from_graph = compute_rtc(DiGraph.from_pairs(PAPER_GBC))
        assert from_pairs.expand() == from_graph.expand()

    def test_paper_example6(self):
        # TC(Ḡ_{b·c}) has 3 pairs: two self-loops and one cross edge.
        rtc = compute_rtc(PAPER_GBC)
        assert rtc.num_sccs == 3
        assert rtc.num_pairs == 3
        s24 = rtc.scc_of[2]
        s35 = rtc.scc_of[3]
        s6 = rtc.scc_of[6]
        assert set(rtc.pairs()) == {(s24, s24), (s24, s6), (s35, s35)}

    def test_expand_matches_example4(self):
        rtc = compute_rtc(PAPER_GBC)
        assert rtc.expand() == {
            (2, 2), (2, 4), (2, 6), (3, 3), (3, 5),
            (4, 2), (4, 4), (4, 6), (5, 3), (5, 5),
        }

    def test_num_expanded_pairs_without_materialising(self):
        rtc = compute_rtc(PAPER_GBC)
        assert rtc.num_expanded_pairs == len(rtc.expand()) == 10

    def test_empty_input(self):
        rtc = compute_rtc(set())
        assert rtc.num_sccs == 0
        assert rtc.num_pairs == 0
        assert rtc.expand() == set()

    def test_self_loop_vertex(self):
        rtc = compute_rtc({(0, 0), (0, 1)})
        assert rtc.expand() == {(0, 0), (0, 1)}

    def test_sizes_recorded(self):
        rtc = compute_rtc(PAPER_GBC)
        assert rtc.num_gr_vertices == 5
        assert rtc.num_gr_edges == 5


class TestSemantics:
    def test_reaches(self):
        rtc = compute_rtc(PAPER_GBC)
        assert rtc.reaches(2, 6)
        assert rtc.reaches(2, 2)
        assert rtc.reaches(4, 6)
        assert not rtc.reaches(6, 2)
        assert not rtc.reaches(6, 6)
        assert not rtc.reaches(99, 2)
        assert not rtc.reaches(2, 99)

    def test_ends_from(self):
        rtc = compute_rtc(PAPER_GBC)
        assert set(rtc.ends_from(2)) == {2, 4, 6}
        assert set(rtc.ends_from(6)) == set()
        assert set(rtc.ends_from(99)) == set()

    def test_expand_equals_tc_of_gr_lemma1(self, fig1):
        # Lemma 1 + Lemma 3: RTC expansion == TC(G_R) == (b.c)+_G.
        rg = eval_rpq(fig1, "b.c")
        rtc = compute_rtc(rg)
        assert rtc.expand() == tc_bfs(DiGraph.from_pairs(rg))
        assert rtc.expand() == eval_rpq(fig1, "(b.c)+")

    @pytest.mark.parametrize("seed", range(6))
    def test_expand_equals_bfs_closure_random(self, seed):
        import random

        rng = random.Random(seed)
        size = rng.randint(2, 15)
        pairs = {
            (rng.randrange(size), rng.randrange(size))
            for _ in range(rng.randint(1, 3 * size))
        }
        rtc = compute_rtc(pairs)
        assert rtc.expand() == tc_bfs(DiGraph.from_pairs(pairs))
        assert rtc.num_expanded_pairs == len(rtc.expand())

    def test_rtc_smaller_than_closure_on_cyclic_graph(self):
        # A 10-cycle: full closure is 100 pairs, RTC is 1 pair.
        pairs = {(i, (i + 1) % 10) for i in range(10)}
        rtc = compute_rtc(pairs)
        assert rtc.num_pairs == 1
        assert rtc.num_expanded_pairs == 100


def bitmap_of(pairs, vertices=()):
    """``pairs`` as a PairBitmap; ``vertices`` fixes the id order first."""
    return PairBitmap.from_pairs(pairs, VertexInterner(vertices))


class TestBitmapNativeBuild:
    """``compute_rtc(PairBitmap)`` never leaves id space; same RTC out."""

    def assert_same_rtc(self, pairs, vertices=()):
        reference = compute_rtc(pairs)
        native = compute_rtc(bitmap_of(pairs, vertices))
        assert native.expand() == reference.expand()
        assert native.num_pairs == reference.num_pairs
        assert native.num_sccs == reference.num_sccs
        assert native.num_gr_vertices == reference.num_gr_vertices
        assert native.num_gr_edges == reference.num_gr_edges
        assert native.num_expanded_pairs == reference.num_expanded_pairs
        # Same partition, same member tuples (sorted when orderable).
        assert set(native.condensation.members.values()) == set(
            reference.condensation.members.values()
        )
        for vertex, scc_id in native.scc_of.items():
            assert vertex in native.members(scc_id)
        # The condensation is exact, not just reachability-equivalent:
        # the same edges between the same member sets, self-loops on
        # exactly the cyclic SCCs.
        def named_edges(rtc):
            members = rtc.condensation.members
            return {
                (members[source], members[target])
                for source, target in rtc.condensation.dag.edges()
            }

        assert named_edges(native) == named_edges(reference)
        assert native.condensation.dag.num_vertices == native.num_sccs
        # Ids ascend in reverse topological order, as condense() promises.
        for source, target in native.condensation.dag.edges():
            assert source >= target
        return native

    def test_paper_example6(self):
        rtc = self.assert_same_rtc(PAPER_GBC)
        s24, s35, s6 = rtc.scc_of[2], rtc.scc_of[3], rtc.scc_of[6]
        assert set(rtc.pairs()) == {(s24, s24), (s24, s6), (s35, s35)}
        assert rtc.members(s24) == (2, 4)

    def test_empty_and_self_loops(self):
        assert compute_rtc(bitmap_of(set())).num_sccs == 0
        assert compute_rtc(PairBitmap({3: 0}, interner=VertexInterner(range(4)))).num_gr_vertices == 0
        self.assert_same_rtc({(0, 0)})
        self.assert_same_rtc({(0, 0), (0, 1)})
        self.assert_same_rtc({(0, 1), (1, 0), (1, 2), (2, 2), (3, 2)})

    def test_ids_need_not_follow_vertex_order_or_be_dense(self):
        # Interner ids 0..49 exist; G_R only touches a scattered few.
        self.assert_same_rtc({(40, 7), (7, 40), (7, 3), (3, 49)}, vertices=range(50))

    def test_long_path_is_not_recursion_bound(self):
        pairs = {(i, i + 1) for i in range(1200)}  # deeper than the recursion limit
        rtc = self.assert_same_rtc(pairs)
        assert rtc.num_pairs == 1200 * 1201 // 2

    def test_unsortable_members(self):
        pairs = {(1, "a"), ("a", (2,)), ((2,), 1), (1, None)}
        native = compute_rtc(bitmap_of(pairs))
        assert native.expand() == compute_rtc(pairs).expand()
        assert sorted(map(len, native.condensation.members.values())) == [1, 3]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        import random

        rng = random.Random(seed)
        size = rng.randint(2, 40)
        pairs = {
            (rng.randrange(size), rng.randrange(size))
            for _ in range(rng.randint(1, 4 * size))
        }
        order = list(range(size + 5))
        rng.shuffle(order)
        native = self.assert_same_rtc(pairs, vertices=order)
        assert native.expand() == tc_bfs(DiGraph.from_pairs(pairs))

    def test_serialisation_and_watcher_restore_accept_it(self, fig1):
        from repro.core.cache import RTCCache
        from repro.core.incremental import IncrementalRTC
        from repro.core.serialize import rtc_from_dict, rtc_to_dict

        rg = PairBitmap.from_pairs(eval_rpq(fig1, "b.c"), fig1.interner)
        native = compute_rtc(rg)
        assert native.gr_rows == rg.rows
        assert rtc_from_dict(rtc_to_dict(native)).expand() == native.expand()
        cache = RTCCache()
        cache.store("b.c", native)
        watcher = IncrementalRTC(fig1, "b.c", cache)
        assert watcher.snapshot() is native  # installed, not recomputed
        assert cache.stats.misses == 0


class TestMasks:
    def test_reach_rows_are_theorem1_rows(self):
        rtc = compute_rtc(PAPER_GBC)
        interner = VertexInterner(range(8))
        masks = rtc.masks(interner)
        for vertex in (2, 3, 4, 5, 6):
            row = masks.reach(masks.scc_of_id[vertex])
            assert set(interner.vertices_of(row)) == set(rtc.ends_from(vertex))
        assert set(interner.vertices_of(masks.vertices)) == {2, 3, 4, 5, 6}

    def test_built_once_per_interner(self):
        rtc = compute_rtc(PAPER_GBC)
        interner = VertexInterner(range(8))
        assert rtc.masks(interner) is rtc.masks(interner)
        other = VertexInterner(reversed(range(8)))
        rebuilt = rtc.masks(other)
        assert rebuilt.interner is other
        assert rtc.expand_bits(other).to_pairs() == rtc.expand()
        # A private id space does not evict the shared one.
        assert rtc.expand_bits().to_pairs() == rtc.expand()
        assert rtc.masks(other) is rebuilt

    def test_not_part_of_rtc_equality(self):
        left, right = compute_rtc(PAPER_GBC), compute_rtc(PAPER_GBC)
        left.masks(VertexInterner(range(8)))
        assert left == right
