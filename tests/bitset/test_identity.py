"""The kernel identity gate: bitmap evaluation == the counted reference.

The evaluators run on bitmaps unless an ``OpCounters`` is attached, in
which case they run the tuple-set reference the paper's operation
counts describe.  Every hot path (NFA product BFS, label joins, the RTC
expansion) must answer *identically* on both sides -- over randomized
R-MAT graphs, the paper's generated 10-query workloads, restricted
start sets, and mid-run edge updates.  Any divergence is a kernel bug
by definition; there is no tolerance.
"""

import random

import pytest

from repro.bitset import PairBitmap, VertexInterner, bit_indexes
from repro.core.rtc import compute_rtc
from repro.datasets.rmat import rmat_graph
from repro.graph.digraph import DiGraph
from repro.rpq import OpCounters, eval_rpq
from repro.rpq.dfa_eval import eval_rpq_dfa
from repro.rpq.label_join import eval_label_sequence
from repro.workloads import generate_workload

QUERIES = [
    "l0",
    "l0.l1",
    "(l0)+",
    "(l0)*",
    "l0?",
    "(l0|l1)+",
    "(l0.l1)+",
    "l2.(l0.l1)+",
    "(l1|l2)+.l0",
    "((l0|l1).l2)*",
]


def rmat(seed, scale=5, num_edges=120, num_labels=3):
    return rmat_graph(scale, num_edges, num_labels, seed=seed)


def both_kernels(evaluate):
    """Run ``evaluate(counters)`` on both sides and assert identity."""
    bits = evaluate(None)
    assert bits == evaluate(OpCounters())
    return bits


def reference(graph, query):
    return eval_rpq(graph, query, counters=OpCounters())


class TestQueryIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("query", QUERIES)
    def test_nfa_and_dfa_match_sets(self, seed, query):
        graph = rmat(seed)
        bits = both_kernels(lambda counters: eval_rpq(graph, query, counters=counters))
        assert eval_rpq_dfa(graph, query) == bits

    @pytest.mark.parametrize("query", ["(l0)+", "l0.l1", "(l0|l1)+", "l0?"])
    def test_restricted_starts_match_sets(self, query):
        graph = rmat(3)
        rng = random.Random(3)
        starts = rng.sample(sorted(graph.vertices(), key=str), 10) + [
            "not-a-vertex"
        ]
        bits = both_kernels(
            lambda counters: eval_rpq(graph, query, starts=starts, counters=counters)
        )
        assert eval_rpq_dfa(graph, query, starts=starts) == bits

    @pytest.mark.parametrize("order", ["left-right", "rare-first"])
    @pytest.mark.parametrize(
        "labels", [[], ["l0"], ["l0", "l1"], ["l2", "l0", "l1"], ["l1", "l1"]]
    )
    def test_label_sequences_match_sets(self, order, labels):
        graph = rmat(4)
        both_kernels(
            lambda counters: eval_label_sequence(
                graph, labels, order=order, counters=counters
            )
        )

    def test_counters_select_the_counted_reference(self):
        graph = rmat(5)
        counters = OpCounters()
        eval_rpq(graph, "(l0)+", counters=counters)
        assert counters.edges_scanned > 0 and counters.traversal_starts > 0


class TestWorkloadIdentity:
    def test_full_generated_workload(self):
        """Paper-procedure workload: every 10-query set, both kernels."""
        graph = rmat(6, num_edges=160)
        for rpq_set in generate_workload(graph, num_sets=3, seed=6):
            for query in rpq_set.queries:
                both_kernels(
                    lambda counters: eval_rpq(graph, query, counters=counters)
                )


class TestUpdateIdentity:
    def test_mid_run_updates_keep_identity(self):
        graph = rmat(7)
        rng = random.Random(7)
        for round_number in range(3):
            edges = sorted(graph.edges(), key=str)
            for edge in rng.sample(edges, min(10, len(edges))):
                graph.remove_edge(*edge)
            vertices = sorted(graph.vertices(), key=str)
            for _ in range(10):
                source, target = rng.sample(vertices, 2)
                label = rng.choice(["l0", "l1", "l2"])
                if not graph.has_edge(source, label, target):
                    graph.add_edge(source, label, target)
            for query in QUERIES[: 5 + round_number]:
                both_kernels(
                    lambda counters: eval_rpq(graph, query, counters=counters)
                )


class TestRTCExpansion:
    @pytest.mark.parametrize("seed", [8, 9, 10])
    @pytest.mark.parametrize("body", ["l0", "l0.l1", "(l0|l1).l2"])
    def test_compute_rtc_inputs_agree(self, seed, body):
        """DiGraph, pair iterable and PairBitmap: one reduction, three doors."""
        from repro.bitset import eval_rpq_bits
        from repro.regex.nfa import compile_nfa
        from repro.regex.parser import parse

        graph = rmat(seed, num_edges=200)
        bitmap = eval_rpq_bits(graph, compile_nfa(parse(body)))
        pairs = bitmap.to_pairs()
        rtcs = [
            compute_rtc(DiGraph.from_pairs(pairs)),
            compute_rtc(iter(pairs)),
            compute_rtc(bitmap),
        ]
        first = rtcs[0]
        for rtc in rtcs[1:]:
            assert rtc.expand() == first.expand()
            assert (
                rtc.num_sccs, rtc.num_pairs, rtc.num_gr_vertices, rtc.num_gr_edges
            ) == (
                first.num_sccs, first.num_pairs,
                first.num_gr_vertices, first.num_gr_edges,
            )
        assert first.num_gr_edges == len(pairs)


def naive_pairs(bitmap, interner):
    """Reference decode: one Python step per set bit, no shortcuts."""
    pairs = set()
    for source_id, mask in bitmap.rows.items():
        target_id = 0
        while mask:
            if mask & 1:
                pairs.add((interner.vertex_of(source_id), interner.vertex_of(target_id)))
            mask >>= 1
            target_id += 1
    return pairs


class TestDecode:
    """``to_pairs`` picks its decode per row; every choice must agree."""

    def decoded_matches_naive(self, bitmap, interner):
        reference = naive_pairs(bitmap, interner)
        assert bitmap.to_pairs(interner) == reference
        assert set(bitmap) == reference
        assert frozenset(bitmap) == reference
        assert bitmap.count() == len(reference)

    def test_empty_relation_and_empty_rows(self):
        interner = VertexInterner(range(8))
        self.decoded_matches_naive(PairBitmap(interner=interner), interner)
        # A zero row can reach to_pairs when a caller builds rows by hand.
        self.decoded_matches_naive(PairBitmap({3: 0, 5: 0b101}, interner=interner), interner)

    def test_sparse_rows_with_large_ids(self):
        interner = VertexInterner(f"v{i}" for i in range(6000))
        rows = {
            4096: (1 << 4096) | (1 << 5999) | 1,  # 3 bits over a 6000-bit span
            5000: 1 << 4500,
            7: (1 << 4097) | (1 << 4098),
        }
        self.decoded_matches_naive(PairBitmap(rows, interner=interner), interner)

    def test_dense_rows(self):
        rng = random.Random(11)
        interner = VertexInterner(range(300))
        rows = {
            source: rng.getrandbits(300) | (1 << 299) for source in range(0, 300, 7)
        }
        rows[1] = (1 << 300) - 1  # every bit set
        rows[2] = rows[1]  # a repeated row decodes once, emits for both sources
        self.decoded_matches_naive(PairBitmap(rows, interner=interner), interner)

    def test_density_boundary(self):
        # One row either side of the dense/sparse switch, same answer.
        interner = VertexInterner(range(1024))
        for set_bits in (1, 2, 15, 16, 17, 64):
            mask = sum(1 << (position * (1023 // set_bits)) for position in range(set_bits))
            mask |= 1 << 1023
            self.decoded_matches_naive(PairBitmap({0: mask}, interner=interner), interner)

    def test_unsortable_mixed_type_vertices(self):
        vertices = [1, "1", (1, 2), None, 2.5, frozenset({3}), b"x"]
        interner = VertexInterner(vertices)
        pairs = {(a, b) for a in vertices for b in vertices if a is not b}
        bitmap = PairBitmap.from_pairs(pairs, interner)
        assert bitmap.to_pairs() == pairs
        self.decoded_matches_naive(bitmap, interner)

    def test_unknown_id_is_an_error_not_a_dropped_pair(self):
        interner = VertexInterner(range(4))
        with pytest.raises(IndexError):
            PairBitmap({0: 1 << 9}, interner=interner).to_pairs()
        with pytest.raises(IndexError):
            PairBitmap({0: (1 << 9) | 0b1111}, interner=interner).to_pairs()


class TestBitIndexes:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bit_loop(self, seed):
        rng = random.Random(seed)
        for width in (1, 7, 64, 65, 500, 9000):
            for density in (0.001, 0.05, 0.5, 1.0):
                mask = sum(
                    1 << position
                    for position in range(width)
                    if rng.random() < density
                )
                expected = [p for p in range(mask.bit_length()) if mask >> p & 1]
                assert bit_indexes(mask) == expected
        assert bit_indexes(0) == []


class TestMasksSharedThroughTheCache:
    """The per-SCC bitmaps live on the cached RTC: every worker engine
    that hits the cache reads (and lazily fills) the same object."""

    QUERIES = [
        "l1.(l0)+.l2",
        "l2.(l0)+",
        "(l0)+.l1.l2",
        "l1.(l0)*.(l1|l2)",
        "(l0)*",
        "l2.(l0.l1)+.l0",
    ]

    def test_two_worker_engines_share_one_rtcs_masks(self):
        from repro.db import GraphDB
        from repro.server.scheduler import make_worker_engines

        graph = rmat(12, num_edges=160)
        with GraphDB.open(graph, engine="rtc") as db:
            first, second = make_worker_engines(db, 2)
            assert first.rtc_cache is second.rtc_cache
            for query in self.QUERIES:
                expected = reference(graph, query)
                assert first.evaluate(query) == expected
                assert second.evaluate(query) == expected
            rtc_first = first.rtc_for("l0")
            assert second.rtc_for("l0") is rtc_first
            # Built over the graph's ids: the join reads it, never a copy.
            assert rtc_first.interner is graph.interner
            assert rtc_first.rebased(graph.interner) is rtc_first
            # One build per body: l0 and l0.l1.
            assert first.rtc_cache.snapshot_stats().misses == 2

    def test_concurrent_workers_fill_the_masks_without_a_lock(self):
        """Benign race (core/cache.py): more threads than cores, a tiny
        switch interval, every answer still exact."""
        import sys
        import threading

        from repro.db import GraphDB
        from repro.server.scheduler import make_worker_engines

        graph = rmat(13, num_edges=200)
        expected = {q: reference(graph, q) for q in self.QUERIES}
        failures: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with GraphDB.open(graph, engine="rtc") as db:
                engines = make_worker_engines(db, 6)
                barrier = threading.Barrier(len(engines))

                def work(engine, offset):
                    barrier.wait(timeout=30)
                    for round_number in range(4):
                        for index in range(len(self.QUERIES)):
                            query = self.QUERIES[(index + offset) % len(self.QUERIES)]
                            if engine.evaluate(query) != expected[query]:
                                failures.append((offset, round_number, query))

                threads = [
                    threading.Thread(target=work, args=(engine, offset))
                    for offset, engine in enumerate(engines)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert db.engine.rtc_cache.snapshot_stats().misses == 2
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_update_that_grows_the_interner(self):
        from repro.db import GraphDB

        graph = rmat(14, num_edges=160)
        query = "l1.(l0)+.l2"
        with GraphDB.open(graph, engine="rtc") as db:
            before = db.execute(query)
            assert before == reference(graph, query)
            stale_rtc = db.engine.rtc_for("l0")
            known = len(graph.interner)
            hub = max(graph.vertices(), key=graph.out_degree)
            # Two brand-new vertices on a new l0 cycle through the hub,
            # then out along l2: new ids, new SCC, new result pairs.
            db.update(
                add=[
                    (hub, "l0", "fresh-a"),
                    ("fresh-a", "l0", "fresh-b"),
                    ("fresh-b", "l0", hub),
                    ("fresh-b", "l2", "fresh-c"),
                ]
            )
            assert len(graph.interner) == known + 3
            after = db.execute(query)
            assert after == reference(graph, query)
            assert any("fresh-c" in pair for pair in after)
            fresh_rtc = db.engine.rtc_for("l0")
            assert fresh_rtc is not stale_rtc  # the cache was reset
            assert fresh_rtc.interner is graph.interner
            assert fresh_rtc.vertex_mask >> known  # bits beyond the old id space
            assert fresh_rtc.scc_of_id[graph.interner.id_of("fresh-a")] == (
                fresh_rtc.scc_of_id[graph.interner.id_of(hub)]
            )
            db.update(remove=[("fresh-b", "l0", hub)])
            assert db.execute(query) == reference(graph, query)
