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


def views_built(rtc) -> set:
    """The vertex-keyed views an RTC has derived so far."""
    return {"condensation", "closure"} & vars(rtc).keys()


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


class TestIdSpace:
    def test_reach_rows_are_theorem1_rows(self):
        rtc = compute_rtc(bitmap_of(PAPER_GBC, range(8)))
        interner = rtc.interner
        expanded = rtc.expand()
        for vertex in (2, 3, 4, 5, 6):
            row = rtc.reach(rtc.scc_id_of(vertex))
            assert set(interner.vertices_of(row)) == {
                target for source, target in expanded if source == vertex
            }
        assert set(interner.vertices_of(rtc.vertex_mask)) == {2, 3, 4, 5, 6}
        assert rtc.scc_id_of(0) is None and rtc.scc_id_of(99) is None

    def test_rebased_once_per_interner(self):
        rtc = compute_rtc(PAPER_GBC)  # a private id space
        assert rtc.rebased(rtc.interner) is rtc
        interner = VertexInterner(range(8))
        rebased = rtc.rebased(interner)
        assert rebased.interner is interner
        assert rtc.rebased(interner) is rebased
        # SCC ids carry over; only the members move to the new ids.
        assert rebased.closure_masks == rtc.closure_masks
        assert rebased.expand() == rtc.expand()
        assert rebased.num_pairs == rtc.num_pairs
        other = VertexInterner(reversed(range(8)))
        assert rtc.rebased(other).expand() == rtc.expand()

    def test_views_are_derived_on_first_use(self):
        rtc = compute_rtc(bitmap_of(PAPER_GBC))
        rtc.reaches(2, 6), rtc.expand(), list(rtc.pairs()), rtc.ends_from(2)
        assert (rtc.num_pairs, rtc.num_expanded_pairs) == (3, 10)
        assert views_built(rtc) == set()
        assert rtc.condensation is rtc.condensation
        assert rtc.closure is rtc.closure
        # The pairs path already has its condensation: it is the view.
        graph = DiGraph.from_pairs(PAPER_GBC)
        from repro.graph.scc import condense

        assert compute_rtc(graph).condensation == condense(graph)

    def test_dag_without_rows_is_the_smallest_with_that_closure(self):
        from repro.core.serialize import rtc_from_dict, rtc_to_dict

        # 0 -> 1 -> 2 plus the transitive 0 -> 2, and a cycle on 2.
        native = compute_rtc(bitmap_of({(0, 1), (1, 2), (0, 2), (2, 2)}))
        decoded = rtc_from_dict(rtc_to_dict(native))
        assert decoded.gr_rows is None
        assert decoded.closure == native.closure
        assert native.condensation.dag.num_edges == 4
        assert decoded.condensation.dag.edge_set() == (
            native.condensation.dag.edge_set()
            - {(native.scc_of[0], native.scc_of[2])}
        )

    def test_served_reads_and_a_repair_build_no_vertex_keyed_view(self):
        from repro.db import GraphDB
        from repro.server import Client, ServerThread

        edges = [(0, "l1", 1), (1, "l0", 2), (2, "l1", 3), (3, "l0", 0)]
        db = GraphDB.open(edges)
        cache = db.engine.rtc_cache

        def read(client):
            # A Pre join, an identity Pre (V_R), a probe, and stats
            # (the shared-data size).
            assert client.query("l1.(l0.l1)+").pairs == eval_rpq(db.graph, "l1.(l0.l1)+")
            assert client.query("(l1.l0)+").pairs == eval_rpq(db.graph, "(l1.l0)+")
            assert client.reaches("l1.l0", 0, 0)
            client.stats()
            return [rtc for _key, rtc in cache.items()]

        with ServerThread(db) as handle, Client(*handle.address) as client:
            held = read(client)
            client.update(add=[(1, "l1", 3)])  # 1 -l1-> 3 -l0-> 0: a new row
            published = read(client)
        assert cache.stats.repairs.get("republished")
        assert any(rtc not in held for rtc in published)
        for rtc in held + published:
            assert views_built(rtc) == set()

    def test_concurrent_joins_rebase_without_a_lock(self):
        """Benign race (core/cache.py): threads joining one foreign-space
        RTC may each rebase it; every answer is still exact."""
        import sys
        import threading

        from repro.core.batch_unit import join_pre_with_rtc_bits

        pairs = {(i, (i * 7 + 3) % 40) for i in range(40)} | {(i, i + 1) for i in range(39)}
        interner = VertexInterner(range(40))
        pre = PairBitmap.from_pairs({(i, (i * 5) % 40) for i in range(40)}, interner)
        closure = compute_rtc(pairs).expand()
        expected = {
            (start, end) for start, mid in pre.pairs for source, end in closure if source == mid
        }
        failures: list = []

        def work(rtc, barrier):
            barrier.wait(timeout=30)
            for _ in range(20):
                if join_pre_with_rtc_bits(pre, rtc).to_pairs() != expected:
                    failures.append(rtc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                rtc, barrier = compute_rtc(pairs), threading.Barrier(6)
                threads = [threading.Thread(target=work, args=(rtc, barrier)) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert rtc.rebased(interner).interner is interner
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
