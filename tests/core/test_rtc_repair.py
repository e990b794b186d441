"""Fences of the in-place RTC repair (:mod:`repro.core.incremental`).

Each class pins one rule the repair relies on; each test fails if the
rule is broken: rows that never alias the graph's adjacency, copy-on-write
publication, the failing-batch path, the large-start-set re-evaluation
rule on both sides, and nullable bodies under new vertices -- plus the
``repro_rtc_repairs_total`` counter and its ``stats`` view.
"""

import json

import pytest

from repro.core import compute_rtc
from repro.db import GraphDB
from repro.errors import GraphError
from repro.obs import get_registry
from repro.rpq import eval_rpq
from repro.server import Client, ServerThread


def repairs_counted() -> dict:
    """``outcome -> count`` of the process-wide repair counter."""
    series = get_registry().snapshot().get("repro_rtc_repairs_total", {})
    return {labels[0]: value for labels, value in series.items()}


def scratch(graph, body):
    return compute_rtc(eval_rpq(graph, body))


class TestRowsNeverAliasTheGraph:
    def test_pre_update_rtc_keeps_its_rows_and_closure(self):
        db = GraphDB.open([(0, "a", 1), (1, "a", 2)])
        rtc = db.engine.rtc_for("a")
        rows, closure = dict(rtc.gr_rows), dict(rtc.closure)
        assert rtc.gr_rows is not db.graph.bit_rows("a")
        # Extends the existing adjacency row of vertex 0 and adds a row.
        db.update(add=[(0, "a", 2), (2, "a", 3)])
        assert rtc.gr_rows == rows
        assert rtc.closure == closure
        assert rtc.expand() == {(0, 1), (0, 2), (1, 2)}
        assert db.engine.rtc_for("a").expand() == eval_rpq(db.graph, "a+")


class TestCopyOnWrite:
    EDGES = [(0, "l1", 1), (1, "l0", 2), (2, "l1", 3), (3, "l0", 0)]

    def test_a_held_rtc_is_unchanged_and_a_changed_one_is_new(self):
        db = GraphDB.open(self.EDGES)
        held = db.engine.rtc_for("l1.l0")
        before = (dict(held.gr_rows), held.expand())
        db.update(add=[(1, "l1", 3)])  # 1 -l1-> 3 -l0-> 0: a new row
        assert (held.gr_rows, held.expand()) == before
        published = db.engine.rtc_for("l1.l0")
        assert published is not held
        assert published.expand() == eval_rpq(db.graph, "(l1.l0)+")

    def test_an_unchanged_delta_keeps_the_object_and_records_no_miss(self):
        db = GraphDB.open(self.EDGES)
        rtc = db.engine.rtc_for("l1.l0")
        cache = db.engine.rtc_cache
        misses = cache.stats.misses
        # An l1 edge into a fresh sink starts no l1.l0 path: G_R is as was.
        db.update(add=[(2, "l1", "sink")])
        db.update(remove=[(2, "l1", "sink")])
        assert db.engine.rtc_for("l1.l0") is rtc
        assert cache.stats.misses == misses
        assert cache.stats.repairs == {"kept": 2}


class TestFailingBatch:
    @pytest.mark.parametrize("engine", ["rtc", "full"])
    def test_everything_is_dropped_or_rebuilt_and_the_prefix_logged(
        self, tmp_path, engine
    ):
        db = GraphDB.open(
            [(0, "a", 1), (1, "b", 2)], engine=engine, storage=tmp_path / "data"
        )
        db.execute_many(["a+", "b+"])
        watcher = db.watch("b")
        watched = watcher.snapshot()
        with pytest.raises(GraphError):
            db.update(add=[(2, "b", 0)], remove=[(7, "b", 8)])
        assert watcher.snapshot() is not watched  # rebuilt, not repaired
        assert watcher.full_rebuilds == 1 and watcher.incremental_updates == 0
        assert [key for key, _rtc in db.rtc_cache.items()] == ["b"]
        if engine == "full":
            assert len(db.engine.closure_cache) == 0
        assert watcher.plus_pairs() == eval_rpq(db.graph, "b+")
        wal = (tmp_path / "data" / "wal.jsonl").read_text().splitlines()
        last = json.loads(wal[-1])
        assert (last["add"], last["remove"]) == ([[2, "b", 0]], [])
        db.close()


class TestLargeStartSet:
    """Re-evaluate when the start set outnumbers G_R's source rows."""

    # Six vertices reach ``hub`` by ``a``; only ``y`` has an a.b path.
    EDGES = [(x, "a", "hub") for x in range(6)] + [("y", "a", "z"), ("z", "b", "w")]

    def test_more_starts_than_rows_is_a_reevaluation(self):
        db = GraphDB.open(self.EDGES)
        watcher = db.watch("a.b")
        assert len(watcher.snapshot().gr_rows) == 1
        db.update(add=[("hub", "b", "t")])  # six new rows at once
        assert (watcher.full_rebuilds, watcher.incremental_updates) == (1, 0)
        assert db.rtc_cache.stats.repairs == {"reevaluated": 1}
        assert watcher.plus_pairs() == scratch(db.graph, "a.b").expand()

    def test_as_many_starts_as_rows_is_a_row_repair(self):
        db = GraphDB.open(self.EDGES)
        watcher = db.watch("a.b")
        db.update(add=[("z", "b", "w2")])  # row y grows; |S| == |rows| == 1
        assert (watcher.full_rebuilds, watcher.incremental_updates) == (0, 1)
        assert db.rtc_cache.stats.repairs == {"republished": 1}
        assert watcher.plus_pairs() == scratch(db.graph, "a.b").expand()

    def test_reevaluation_with_nothing_changed_keeps_the_object(self):
        db = GraphDB.open(self.EDGES)
        rtc = db.engine.rtc_for("a.b")
        # Added and removed in one batch: six starts, so re-evaluated --
        # and G_R ends as it began, so the entry stays the same object.
        db.update(add=[("hub", "b", "t")], remove=[("hub", "b", "t")])
        assert db.engine.rtc_for("a.b") is rtc
        assert db.rtc_cache.stats.repairs == {"reevaluated": 1}

    def test_a_start_set_that_ends_nowhere_is_empty(self):
        db = GraphDB.open(self.EDGES)
        rtc = db.engine.rtc_for("a.b")
        # Six vertices reach hub's new a edge, but no b follows it.
        db.update(add=[("hub", "a", "y2")])
        assert db.engine.rtc_for("a.b") is rtc
        assert db.rtc_cache.stats.repairs == {"kept": 1}


class TestNullableBodies:
    @pytest.mark.parametrize("body", ["a?", "a*"])
    def test_a_new_vertex_gets_its_identity_row_and_removal_nothing(self, body):
        db = GraphDB.open([(0, "a", 1), (1, "c", 2)])
        watcher = db.watch(body)
        db.update(add=[(2, "c", 9)])  # foreign label, vertex 9 is new
        rtc = watcher.snapshot()
        nine = db.graph.interner.id_of(9)
        assert rtc.gr_rows[nine] == 1 << nine
        assert watcher.reaches(9, 9) and not watcher.reaches(2, 9)
        assert watcher.incremental_updates == 1
        db.update(remove=[(2, "c", 9)])  # keeps vertex 9; label foreign
        assert watcher.snapshot() is rtc
        assert watcher.incremental_updates == 1  # not even touched
        assert db.engine.rtc_for(body) is rtc


class TestRepairCounter:
    def test_registry_and_stats_verb_count_the_outcomes(self):
        db = GraphDB.open([(0, "a", 1), (1, "b", 2), (2, "a", 0)])
        before = repairs_counted()
        with ServerThread(db) as handle, Client(*handle.address) as client:
            client.watch("a")
            client.watch("b")
            client.query("(b.a)+")
            client.update(add=[(2, "b", 0)])  # b: a new row; b.a: a new row
            client.update(add=[(0, "b", "x")])  # b: a new row; b.a: kept
            repairs = client.stats()["scheduler"]["cache"]["repairs"]
        assert repairs == {"republished": 3, "kept": 1}
        after = repairs_counted()
        moved = {
            outcome: after.get(outcome, 0) - before.get(outcome, 0)
            for outcome in after
        }
        assert {k: v for k, v in moved.items() if v} == repairs
