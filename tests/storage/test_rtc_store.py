"""Warm-start RTC persistence: cached closures and watchers survive restart."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cluster import InProcessBackend
from repro.db import GraphDB
from repro.errors import StorageError
from repro.graph.multigraph import LabeledMultigraph
from repro.storage import ShardStorage
from repro.storage.rtc_store import collect_rtc_state
from repro.storage.snapshot import rows_to_json

EDGES = [
    (0, "d", 1), (1, "b", 2), (2, "c", 1), (2, "c", 3),
    (3, "b", 4), (4, "c", 3), (4, "c", 5), (6, "d", 3), (7, "d", 6),
]
CLOSURE_QUERY = "d.(b.c)+.c"


def warm_cycle(tmp_path, before_close=None, checkpoint=True):
    """Seed -> query -> (checkpoint) -> close -> reopen; returns the new db."""
    db = GraphDB.open(list(EDGES), storage=tmp_path / "data")
    db.execute(CLOSURE_QUERY)
    if before_close is not None:
        before_close(db)
    if checkpoint:
        db.checkpoint()
    db.close()
    return GraphDB.open(storage=tmp_path / "data")


class TestWarmEntries:
    def test_checkpointed_closure_comes_back_hot(self, tmp_path):
        db = warm_cycle(tmp_path)
        assert db.warm_stats["entries"] == 1
        stats = db.engine.rtc_cache.stats
        hits, misses = stats.hits, stats.misses
        db.execute(CLOSURE_QUERY)
        assert stats.hits == hits + 1
        assert stats.misses == misses  # no recompute
        db.close()

    def test_warm_answer_matches_cold_answer(self, tmp_path):
        warm = warm_cycle(tmp_path).execute(CLOSURE_QUERY)
        cold = GraphDB.open(list(EDGES)).execute(CLOSURE_QUERY)
        assert warm == cold

    def test_no_checkpoint_means_cold_start(self, tmp_path):
        db = warm_cycle(tmp_path, checkpoint=False)
        assert db.warm_stats == {"entries": 0, "watchers": 0, "stale": 0}
        db.close()

    def test_entries_staler_than_the_log_are_skipped(self, tmp_path):
        def update_after_checkpoint(db):
            db.checkpoint()
            db.update(add=[(5, "b", 6)])  # advances the WAL past the store

        db = warm_cycle(tmp_path, before_close=update_after_checkpoint,
                        checkpoint=False)
        assert db.warm_stats["entries"] == 0
        assert db.warm_stats["stale"] >= 1
        db.close()


class TestWarmWatchers:
    def test_watcher_survives_restart_and_keeps_answering(self, tmp_path):
        def attach(db):
            db.watch("b.c")
        db = warm_cycle(tmp_path, before_close=attach)
        assert db.warm_stats["watchers"] == 1
        assert "b.c" in db.watchers
        assert db.reaches("b.c", 1, 3)
        assert not db.reaches("b.c", 5, 1)
        db.close()

    def test_restored_watcher_tracks_new_updates(self, tmp_path):
        def attach(db):
            db.watch("b.c")
        db = warm_cycle(tmp_path, before_close=attach)
        assert not db.reaches("b.c", 5, 3)
        db.update(add=[(5, "b", 8), (8, "c", 3)])
        assert db.reaches("b.c", 5, 3)
        db.close()

    def test_restored_watcher_equals_freshly_computed(self, tmp_path):
        def attach(db):
            db.watch("b.c")
        db = warm_cycle(tmp_path, before_close=attach)
        fresh = GraphDB.open(list(EDGES))
        fresh.watch("b.c")
        vertices = sorted(db.graph.vertices(), key=str)
        for source in vertices:
            for target in vertices:
                assert db.reaches("b.c", source, target) == fresh.reaches(
                    "b.c", source, target
                ), (source, target)
        db.close()


class TestReplicaMerge:
    def test_extra_sessions_fold_their_caches_into_the_store(self, tmp_path):
        primary = GraphDB.open(list(EDGES), storage=tmp_path / "data")
        replica = GraphDB.open(primary.graph.copy())
        replica.execute(CLOSURE_QUERY)  # cached only on the replica
        primary.checkpoint(extra_sessions=[replica])
        primary.close()
        replica.close()

        db = GraphDB.open(storage=tmp_path / "data")
        assert db.warm_stats["entries"] == 1
        db.close()

    def test_install_warms_a_sibling_session(self, tmp_path):
        db = GraphDB.open(list(EDGES), storage=tmp_path / "data")
        db.execute(CLOSURE_QUERY)
        db.checkpoint()
        db.close()

        storage = ShardStorage(tmp_path / "data")
        state = storage.recover()
        primary = GraphDB.open(state.graph, storage=storage)
        sibling = GraphDB.open(state.graph.copy())
        warm = storage.install(sibling)
        assert warm["entries"] == 1
        misses = sibling.engine.rtc_cache.stats.misses
        sibling.execute(CLOSURE_QUERY)
        assert sibling.engine.rtc_cache.stats.misses == misses
        primary.close()
        sibling.close()


# A graph and workload where every closure body is touched by the two
# updates below, nullable and nested bodies included.
GRAPH = [(0, "a", 1), (1, "a", 2), (1, "b", 2), (2, "c", 0), (2, "b", 3), (3, "c", 4)]
QUERIES = ["a+", "c.(a)+", "(b|c)+", "(a?)+.b", "(a.(b)+)+", "(c*)+", "(b.c)+"]
TOUCHING = [{"add": [(4, "a", 0), (4, "b", 9)]}, {"remove": [(1, "b", 2)]}]
FIXTURE_V1 = Path(__file__).parent / "fixtures" / "rtc_store_v1"


def answers(db):
    return [set(result) for result in db.execute_many(QUERIES)]


class TestVersion3:
    def test_store_keeps_each_body_once_with_id_rows_and_text(self, tmp_path):
        db = GraphDB.open(list(GRAPH), storage=tmp_path / "data", cache_mode="semantic")
        db.execute_many(QUERIES)
        db.watch("b.c")
        name = db.checkpoint()["rtc_store"]
        payload = json.loads((tmp_path / "data" / name).read_text())
        assert payload["version"] == 3 and "watchers" not in payload
        assert len(payload["entries"]) == len(db.engine.rtc_cache)
        for key, record in payload["entries"].items():
            body = db.engine.rtc_cache.body_of(key)
            assert record["body"] == body.to_string()
            assert record["watched"] == (["b.c"] if record["body"] == "b.c" else [])
            assert record["rows"] == rows_to_json(db.engine.rtc_cache.peek(key).gr_rows)
        db.close()

    @pytest.mark.parametrize("mode", ["syntactic", "semantic"])
    def test_installed_entries_are_repaired_without_a_miss(self, tmp_path, mode):
        options = {"cache_mode": mode, "storage": tmp_path / "data"}
        first = GraphDB.open(list(GRAPH), **options)
        first.execute_many(QUERIES)
        first.watch("b.c")
        first.checkpoint()
        first.close()

        warm = GraphDB.open(None, **options)
        cache = warm.engine.rtc_cache
        assert warm.warm_stats == {"entries": len(cache), "watchers": 1, "stale": 0}
        installed = dict(cache.items())
        cold = GraphDB.open(list(GRAPH), cache_mode=mode)
        for batch in TOUCHING:
            warm.update(**batch)
            cold.update(**batch)
            assert answers(warm) == answers(cold), batch
        assert cache.stats.misses == 0
        assert set(cache.stats.repairs) <= {"kept", "republished"}
        assert cache.stats.repairs["republished"] > 0
        assert any(cache.peek(key) is not rtc for key, rtc in installed.items())
        assert warm.watchers["b.c"].plus_pairs() == cold.watch("b.c").plus_pairs()
        warm.close()


def checkpointed(tmp_path):
    """A data dir whose store holds rows for every QUERIES body and b.c."""
    db = GraphDB.open(list(GRAPH), storage=tmp_path / "data")
    db.execute_many(QUERIES)
    db.watch("b.c")
    db.checkpoint()
    db.close()
    return tmp_path / "data"


def edit_store(data, change) -> dict:
    """Rewrite the live RTC store through ``change(payload, vertices)``."""
    manifest = json.loads((data / "manifest.json").read_text())
    vertices = json.loads((data / manifest["snapshot"]["edges"]).read_text())["vertices"]
    path = data / manifest["rtc_store"]
    payload = json.loads(path.read_text())
    change(payload, vertices)
    path.write_text(json.dumps(payload))
    return payload


class TestIdSpace:
    def test_sibling_in_a_foreign_id_space_is_skipped(self, tmp_path):
        primary = GraphDB.open(list(GRAPH), storage=tmp_path / "data")
        primary.execute("a+")
        foreign = LabeledMultigraph()
        foreign.seed_interner(reversed(primary.graph.interner.vertices()))
        foreign.add_edges(GRAPH)
        sibling = GraphDB.open(foreign)
        sibling.execute_many(QUERIES)
        payload = collect_rtc_state(primary, 0, (sibling,))
        assert list(payload["entries"]) == ["a"]
        assert payload["skipped"] == len(sibling.rtc_cache)
        same = GraphDB.open(primary.graph.copy())
        same.execute_many(QUERIES)
        payload = collect_rtc_state(primary, 0, (same,))
        assert payload["skipped"] == 0 and len(payload["entries"]) == len(same.rtc_cache)
        primary.close()

    def test_row_id_outside_the_graph_raises(self, tmp_path):
        data = checkpointed(tmp_path)

        def corrupt(payload, vertices):
            record = next(r for r in payload["entries"].values() if r["rows"])
            record["rows"][0][1].append(len(vertices))

        edit_store(data, corrupt)
        storage = ShardStorage(data)
        with pytest.raises(StorageError, match="outside"):
            GraphDB.open(storage=storage)
        storage.close()

    def test_version_2_vertex_rows_still_load(self, tmp_path):
        data = checkpointed(tmp_path)

        def to_version_2(payload, vertices):
            payload["version"] = 2
            for record in payload["entries"].values():
                if record["rows"] is not None:
                    record["rows"] = [
                        [vertices[source], [vertices[t] for t in targets]]
                        for source, targets in record["rows"]
                    ]

        payload = edit_store(data, to_version_2)
        warm = GraphDB.open(storage=data)
        cache = warm.engine.rtc_cache
        assert warm.warm_stats == {
            "entries": len(payload["entries"]), "watchers": 1, "stale": 0
        }
        cold = GraphDB.open(list(GRAPH))
        for batch in TOUCHING:
            warm.update(**batch)
            cold.update(**batch)
            assert answers(warm) == answers(cold), batch
        assert cache.stats.misses == 0
        warm.close()

    def test_sibling_replica_installs_id_rows_without_a_miss(self, tmp_path):
        data = checkpointed(tmp_path)
        backend = InProcessBackend(0, None, replicas=2, workers=1, storage_dir=str(data))
        try:
            primary, sibling = (replica.db for replica in backend.replicas)
            assert sibling.graph.interner.vertices() == primary.graph.interner.vertices()
            cache = sibling.engine.rtc_cache
            assert len(cache) == len(primary.engine.rtc_cache) > 0
            assert all(rtc.gr_rows is not None for _key, rtc in cache.items())
            cold = GraphDB.open(list(GRAPH))
            assert answers(sibling) == answers(cold)
            for batch in TOUCHING:
                sibling.update(**batch)
                cold.update(**batch)
                assert answers(sibling) == answers(cold), batch
            assert cache.stats.misses == 0
            assert cache.stats.repairs["republished"] > 0
        finally:
            backend.close()


class TestVersion1Fixture:
    """A data directory written by the previous format: entries by key
    alone plus watchers carrying their G_R edges (syntactic mode)."""

    @pytest.fixture
    def data(self, tmp_path):
        target = tmp_path / "data"
        shutil.copytree(FIXTURE_V1, target)
        return target

    def test_fixture_is_the_old_format(self):
        payload = json.loads((FIXTURE_V1 / "rtc-0.json").read_text())
        assert payload["version"] == 1
        assert set(payload["watchers"]) == {"a", "b.c", "c*"}
        assert all("gr_edges" in entry for entry in payload["watchers"].values())

    def test_watchers_become_repairable_entries(self, data):
        db = GraphDB.open(None, storage=data)
        cache = db.engine.rtc_cache
        assert db.warm_stats == {"entries": 8, "watchers": 3, "stale": 0}
        assert sorted(db.watchers) == ["a", "b.c", "c*"]
        for name in db.watchers:
            assert cache.peek(name).gr_rows is not None  # rows from gr_edges
        assert cache.peek("b|c").gr_rows is None  # a bare entry, as before
        cold = GraphDB.open(db.graph.copy())
        assert answers(db) == answers(cold)
        assert cache.stats.misses == 0
        for batch in TOUCHING:
            db.update(**batch)
            cold.update(**batch)
            assert answers(db) == answers(cold), batch
        # Watched bodies were repaired row by row; bare entries, lacking
        # rows, were re-evaluated -- neither counts a miss.
        assert all(watcher.full_rebuilds == 0 for watcher in db.watchers.values())
        assert db.watchers["a"].incremental_updates == 1
        assert cache.stats.misses == 0
        for name, watcher in db.watchers.items():
            assert watcher.plus_pairs() == cold.watch(name).plus_pairs()
        db.close()

    @pytest.mark.parametrize("engine", ["rtc", "full"])
    def test_other_modes_and_engines_keep_the_watchers(self, data, engine):
        # Semantic keys differ from the stored syntactic ones: entries are
        # stale, watchers are re-keyed from their body.
        db = GraphDB.open(None, storage=data, engine=engine, cache_mode="semantic")
        in_engine = 3 if engine == "rtc" else 0
        assert db.warm_stats == {"entries": in_engine, "watchers": 3, "stale": 7}
        assert len(db.rtc_cache) == 3 and db.rtc_cache.stats.misses == 0
        cold = GraphDB.open(db.graph.copy(), engine="no")
        for batch in TOUCHING:
            db.update(**batch)
            cold.update(**batch)
            assert answers(db) == answers(cold), batch
            for name, watcher in db.watchers.items():
                assert watcher.plus_pairs() == cold.watch(name).plus_pairs()
        db.close()

    def test_first_checkpoint_migrates_and_leaves_one_generation(self, data):
        db = GraphDB.open(None, storage=data)
        expected = answers(db)
        db.checkpoint()
        db.close()
        assert sorted(path.name for path in data.iterdir()) == [
            "manifest.json", "rtc-0.json", "snapshot-0.edges", "wal.jsonl"
        ]
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["version"] == 2
        assert manifest["snapshot"] == {"edges": "snapshot-0.edges"}
        assert json.loads((data / "rtc-0.json").read_text())["version"] == 3
        warm = GraphDB.open(None, storage=data)
        assert sorted(warm.watchers) == ["a", "b.c", "c*"]
        assert answers(warm) == expected
        assert warm.engine.rtc_cache.stats.misses == 0
        warm.close()
