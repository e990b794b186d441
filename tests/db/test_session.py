"""GraphDB session lifecycle tests: open, execute, update, close."""

import pytest

from repro.core import compute_rtc
from repro.db import GraphDB
from repro.errors import GraphError, ReproError
from repro.graph.io import dump_edge_list
from repro.graph.multigraph import LabeledMultigraph
from repro.rpq import eval_rpq

EDGES = [
    (0, "d", 1), (1, "b", 2), (2, "c", 1), (2, "c", 3),
]


class TestOpen:
    def test_open_graph_binds_it(self, fig1):
        db = GraphDB.open(fig1)
        assert db.graph is fig1
        assert db.engine_name == "rtc"

    def test_open_path(self, fig1, tmp_path):
        path = tmp_path / "g.txt"
        dump_edge_list(fig1, path)
        db = GraphDB.open(str(path))
        assert db.graph.num_edges == fig1.num_edges
        assert db.execute("d.(b.c)+.c") == {(7, 3), (7, 5)}

    def test_open_pathlib_path(self, fig1, tmp_path):
        path = tmp_path / "g.txt"
        dump_edge_list(fig1, path)
        assert GraphDB.open(path).graph.num_vertices == fig1.num_vertices

    def test_open_edge_iterable(self):
        db = GraphDB.open(EDGES)
        assert db.graph.num_edges == len(EDGES)
        assert db.execute("d.(b.c)+") == {(0, 1), (0, 3)}

    def test_engine_selection_and_kwargs(self, fig1):
        db = GraphDB.open(fig1, engine="RTC", cache_mode="semantic")
        assert db.engine_name == "rtc"
        assert db.engine.rtc_cache.mode == "semantic"

    def test_constructor_rejects_non_graph(self):
        with pytest.raises(TypeError, match="GraphDB.open"):
            GraphDB("not a graph")


class TestExecute:
    def test_execute_accepts_ast(self, fig1):
        from repro.regex.parser import parse

        assert GraphDB.open(fig1).execute(parse("b.c")) == eval_rpq(fig1, "b.c")

    def test_execute_many_shares_caches(self, fig1):
        db = GraphDB.open(fig1)
        db.execute_many(["d.(b.c)+.c", "a.(b.c)+", "(b.c)+.c"])
        stats = db.engine.rtc_cache.stats
        assert stats.entries == 1
        assert stats.hits == 3 and stats.misses == 1

    def test_explain_matches_prepared(self, fig1):
        db = GraphDB.open(fig1)
        assert db.explain("d.(b.c)+.c") == db.prepare("d.(b.c)+.c").explain()


class TestUpdate:
    def test_add_edges_visible_to_queries(self):
        db = GraphDB.open([("a", "f", "b")])
        assert ("a", "c") not in db.execute("f+")
        db.update(add=[("b", "f", "c")])
        assert ("a", "c") in db.execute("f+")

    def test_update_repairs_the_engine_cache(self):
        db = GraphDB.open([("a", "f", "b")])
        db.execute("f+")
        before = db.engine.rtc_for("f")
        misses = db.engine.rtc_cache.stats.misses
        db.update(add=[("b", "f", "c")])
        after = db.engine.rtc_for("f")
        assert after is not before  # a repaired RTC, published anew
        assert db.engine.rtc_cache.stats.misses == misses  # not rebuilt
        assert after.expand() == eval_rpq(db.graph, "f+")
        assert before.expand() == {("a", "b")}  # the old object is untouched

    def test_remove_edge(self):
        db = GraphDB.open([("a", "f", "b"), ("b", "f", "c")])
        db.update(remove=[("b", "f", "c")])
        assert db.execute("f+") == {("a", "b")}
        with pytest.raises(GraphError):
            db.update(remove=[("b", "f", "c")])

    def test_remove_keeps_vertices(self):
        db = GraphDB.open([("a", "f", "b")])
        db.update(remove=[("a", "f", "b")])
        assert db.graph.num_vertices == 2
        assert db.graph.num_edges == 0

    def test_partial_failure_keeps_session_consistent(self):
        db = GraphDB.open([("a", "f", "b")])
        db.execute("f+")  # warm the engine cache
        watcher = db.watch("f")
        with pytest.raises(GraphError):
            # The add applies, then the bad removal raises mid-batch.
            db.update(add=[("b", "f", "c")], remove=[("x", "f", "y")])
        # Queries see the partially-applied graph, not a stale cache.
        assert db.execute("f+") == {("a", "b"), ("a", "c"), ("b", "c")}
        assert watcher.plus_pairs() == compute_rtc(
            eval_rpq(db.graph, "f")
        ).expand()

    def test_duplicate_add_raises_but_resets_cache(self):
        db = GraphDB.open([("a", "f", "b")])
        db.execute("f+")
        with pytest.raises(GraphError):
            db.update(add=[("a", "f", "b")])
        assert db.engine.shared_data_size() == 0  # cache dropped anyway


class TestSelectiveInvalidation:
    """An update reaches only the cached RTCs / watchers whose body reads
    a label it carried (or is nullable, when it created a vertex)."""

    EDGES = [(0, "a", 1), (1, "a", 2), (1, "b", 2), (2, "c", 0)]

    @pytest.mark.parametrize("mode", ["syntactic", "semantic"])
    def test_foreign_label_update_keeps_the_same_rtc_object(self, mode):
        db = GraphDB.open(self.EDGES, cache_mode=mode)
        rtc = db.engine.rtc_for("a")
        misses = db.engine.rtc_cache.stats.misses
        db.update(add=[(2, "b", 0)])
        db.update(remove=[(2, "b", 0)])
        assert db.engine.rtc_for("a") is rtc
        assert db.engine.rtc_cache.stats.misses == misses
        db.update(add=[(2, "a", 0)])
        assert db.engine.rtc_for("a") is not rtc
        assert db.execute("a+") == eval_rpq(db.graph, "a+")

    def test_full_engine_keeps_untouched_closures(self):
        db = GraphDB.open(self.EDGES, engine="full")
        entry = db.engine.closure_for("a")
        db.update(add=[(2, "b", 0)])
        assert db.engine.closure_for("a") is entry
        db.update(remove=[(0, "a", 1)])
        assert db.engine.closure_for("a") is not entry
        assert db.execute("a+") == eval_rpq(db.graph, "a+")

    def test_one_batch_drops_exactly_the_bodies_it_names(self):
        db = GraphDB.open(self.EDGES)
        kept = db.engine.rtc_for("c")
        dropped = [db.engine.rtc_for(body) for body in ("a", "a.b", "b|c")]
        db.update(add=[(0, "a", 2)], remove=[(1, "b", 2)])
        assert db.engine.rtc_for("c") is kept
        for body, rtc in zip(("a", "a.b", "b|c"), dropped):
            assert db.engine.rtc_for(body) is not rtc
            assert db.execute(f"({body})+") == eval_rpq(db.graph, f"({body})+")

    def test_nested_closure_goes_with_its_inner_label(self):
        db = GraphDB.open(self.EDGES)
        outer = db.engine.rtc_for("a.(b)+")
        db.update(add=[(2, "c", 1)])
        assert db.engine.rtc_for("a.(b)+") is outer
        db.update(add=[(2, "b", 1)])
        assert db.engine.rtc_for("a.(b)+") is not outer
        assert db.execute("(a.(b)+)+") == eval_rpq(db.graph, "(a.(b)+)+")

    @pytest.mark.parametrize("body", ["a?", "a*"])
    def test_nullable_body_goes_with_a_new_vertex_under_any_label(self, body):
        db = GraphDB.open(self.EDGES)
        rtc = db.engine.rtc_for(body)
        watcher = db.watch(body)
        db.update(add=[(0, "c", 2)])  # foreign label, both ends exist
        assert db.engine.rtc_for(body) is rtc
        db.update(remove=[(0, "c", 2)])  # removal keeps its vertices
        assert db.engine.rtc_for(body) is rtc
        db.update(add=[(2, "c", 9)])  # foreign label, vertex 9 is new
        assert db.engine.rtc_for(body) is not rtc
        assert db.execute(f"({body})+") == eval_rpq(db.graph, f"({body})+")
        assert (9, 9) in db.execute(f"({body})+")
        assert watcher.reaches(9, 9)
        assert watcher.full_rebuilds == 0

    def test_watchers_are_repaired_by_label(self):
        db = GraphDB.open(self.EDGES)
        on_a, on_b = db.watch("a"), db.watch("b")
        db.update(remove=[(1, "b", 2)])
        # Removal is a row repair too: nothing is re-evaluated.
        assert (on_a.incremental_updates, on_b.incremental_updates) == (0, 1)
        assert (on_a.full_rebuilds, on_b.full_rebuilds) == (0, 0)
        db.update(add=[(1, "b", 2), (2, "a", 0)])
        assert on_a.incremental_updates + on_a.full_rebuilds > 0
        for watcher, body in ((on_a, "a"), (on_b, "b")):
            expected = compute_rtc(eval_rpq(db.graph, body))
            assert watcher.snapshot().expand() == expected.expand()

    @pytest.mark.parametrize(
        "batch",
        [
            {"add": [(2, "b", 0), (0, "a", 1)]},  # duplicate insertion
            {"add": [(2, "b", 0)], "remove": [(7, "b", 8)]},  # absent removal
        ],
    )
    def test_failing_batch_rebuilds_and_drops_everything(self, batch):
        db = GraphDB.open(self.EDGES)
        db.engine.rtc_for("a")  # foreign to the batch -- dropped all the same
        watched = db.engine.rtc_for("c")
        watcher = db.watch("c")
        assert watcher.snapshot() is watched  # the watch is the cache entry
        with pytest.raises(GraphError):
            db.update(**batch)
        # Only the watched body is back, rebuilt: a new object.
        assert [key for key, _rtc in db.engine.rtc_cache.items()] == ["c"]
        assert db.engine.rtc_for("c") is watcher.snapshot() is not watched
        assert watcher.full_rebuilds == 1
        assert db.graph.has_edge(2, "b", 0)  # the applied prefix stays

    def test_engine_without_selective_invalidation_is_reset(self):
        from repro.core.engines import RPQEngine

        class Mine(RPQEngine):
            resets = 0

            def _evaluate_node(self, node):
                return set()

            def reset_cache(self):
                self.resets += 1

        db = GraphDB.open(self.EDGES, engine="no")
        db.engine = Mine(db.graph)
        db.update(add=[(2, "b", 0)])
        assert db.engine.resets == 1


class TestWatchers:
    def test_watch_is_idempotent_per_body(self):
        db = GraphDB.open([("a", "f", "b")])
        assert db.watch("f") is db.watch("(f)")  # same normalised body
        assert list(db.watchers) == ["f"]

    def test_multiple_watchers_stay_consistent(self):
        db = GraphDB.open([("a", "f", "b"), ("b", "g", "c")])
        wf = db.watch("f")
        wg = db.watch("f|g")
        db.update(add=[("b", "f", "a"), ("c", "g", "a"), ("c", "f", "d")])
        db.update(remove=[("a", "f", "b")])
        for watcher, body in ((wf, "f"), (wg, "f|g")):
            expected = compute_rtc(eval_rpq(db.graph, body)).expand()
            assert watcher.plus_pairs() == expected

    def test_watcher_sees_new_vertices(self):
        db = GraphDB.open([("a", "f", "b")])
        watcher = db.watch("f*")  # nullable body: identity spans V
        db.update(add=[("x", "f", "y")])
        assert watcher.reaches("x", "x")
        assert watcher.reaches("x", "y")

    def test_session_reaches_probe(self):
        db = GraphDB.open([("a", "f", "b"), ("b", "f", "c")])
        assert db.reaches("f", "a", "c") is True
        assert db.reaches("f", "c", "a") is False
        db.update(add=[("c", "f", "a")])
        assert db.reaches("f", "c", "a") is True  # locked, update-aware
        assert list(db.watchers) == ["f"]  # probes share one watcher


class TestLifecycle:
    def test_context_manager_closes(self, fig1):
        with GraphDB.open(fig1) as db:
            db.execute("b.c")
            assert not db.closed
        assert db.closed
        with pytest.raises(ReproError, match="closed"):
            db.execute("b.c")
        with pytest.raises(ReproError, match="closed"):
            db.prepare("b.c")

    def test_close_idempotent(self, fig1):
        db = GraphDB.open(fig1)
        db.close()
        db.close()

    def test_lazy_result_on_closed_session_raises(self, fig1):
        db = GraphDB.open(fig1)
        result = db.execute("b.c", lazy=True)
        db.close()
        with pytest.raises(ReproError, match="closed"):
            result.pairs

    def test_stats_shape(self, fig1):
        db = GraphDB.open(fig1)
        db.execute("b.c")
        db.watch("b.c")
        stats = db.stats()
        assert stats["engine"] == "rtc"
        assert stats["graph"] == {"vertices": 10, "edges": 16, "labels": 6}
        assert stats["queries_evaluated"] == 1
        assert stats["watchers"] == ["b.c"]

    def test_repr(self, fig1):
        db = GraphDB.open(fig1)
        assert "open" in repr(db)
        db.close()
        assert "closed" in repr(db)

    def test_isolated_vertices_preserved_via_graph_binding(self):
        graph = LabeledMultigraph()
        graph.add_vertex("lonely")
        graph.add_edge("a", "f", "b")
        db = GraphDB.open(graph)
        assert db.graph.num_vertices == 3
