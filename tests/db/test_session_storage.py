"""GraphDB durability contract: logging, auto-checkpoint, close semantics."""

import pytest

from repro.db import GraphDB
from repro.errors import ReproError
from repro.storage import ShardStorage, read_manifest

EDGES = [("a", "x", "b"), ("b", "x", "c")]


class TestOpenSignature:
    def test_storage_accepts_a_path_string(self, tmp_path):
        db = GraphDB.open(list(EDGES), storage=str(tmp_path / "data"))
        assert isinstance(db.storage, ShardStorage)
        db.close()

    def test_storage_accepts_a_shardstorage(self, tmp_path):
        storage = ShardStorage(tmp_path / "data")
        db = GraphDB.open(list(EDGES), storage=storage)
        assert db.storage is storage
        db.close()

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            GraphDB.open(
                list(EDGES), storage=tmp_path / "data", checkpoint_every=0
            )

    def test_storage_less_session_has_no_durability_surface(self):
        db = GraphDB.open(list(EDGES))
        assert db.storage is None
        assert db.warm_stats == {"entries": 0, "watchers": 0, "stale": 0}
        assert "storage" not in db.stats()


class TestLogging:
    def test_every_acked_update_is_on_disk_before_return(self, tmp_path):
        db = GraphDB.open(list(EDGES), storage=tmp_path / "data")
        db.update(add=[("c", "x", "d")])
        # No close, no checkpoint: a parallel reader (the crash stand-in)
        # must already see the record.
        storage = ShardStorage(tmp_path / "data")
        assert storage.recover().graph.has_edge("c", "x", "d")
        db.close()

    def test_empty_batches_consume_no_lsn(self, tmp_path):
        db = GraphDB.open(list(EDGES), storage=tmp_path / "data")
        db.update(add=[], remove=[])
        assert db.storage.last_lsn == 0
        db.close()


class TestAutoCheckpoint:
    def test_checkpoint_every_n_compacts_automatically(self, tmp_path):
        db = GraphDB.open(
            list(EDGES), storage=tmp_path / "data", checkpoint_every=2
        )
        db.update(add=[("c", "x", "d")])
        assert read_manifest(tmp_path / "data")["lsn"] == 0  # not yet
        db.update(add=[("d", "x", "e")])
        assert read_manifest(tmp_path / "data")["lsn"] == 2  # rolled
        assert db.stats()["storage"]["updates_since_checkpoint"] == 0
        db.update(add=[("e", "x", "f")])
        assert read_manifest(tmp_path / "data")["lsn"] == 2  # counting again
        db.close()

    def test_manual_checkpoint_resets_the_counter(self, tmp_path):
        db = GraphDB.open(
            list(EDGES), storage=tmp_path / "data", checkpoint_every=3
        )
        db.update(add=[("c", "x", "d")])
        db.update(add=[("d", "x", "e")])
        db.checkpoint()
        db.update(add=[("e", "x", "f")])
        # Two away from the threshold again: no auto-checkpoint yet.
        assert read_manifest(tmp_path / "data")["lsn"] == 2
        db.close()


class TestClose:
    def test_update_after_close_raises(self, tmp_path):
        db = GraphDB.open(list(EDGES), storage=tmp_path / "data")
        db.close()
        with pytest.raises(ReproError, match="closed"):
            db.update(add=[("c", "x", "d")])

    def test_close_without_checkpoint_still_recovers_updates(self, tmp_path):
        db = GraphDB.open(list(EDGES), storage=tmp_path / "data")
        db.update(add=[("c", "x", "d")])
        db.close()  # WAL only; no checkpoint
        recovered = GraphDB.open(storage=tmp_path / "data")
        assert recovered.graph.has_edge("c", "x", "d")
        assert recovered.warm_stats["entries"] == 0  # warmth was not promised
        recovered.close()


class TestInvalidationAfterWarmReopen:
    """Entries the RTC store installs arrive by key, without an AST, and
    still follow the label rule -- or, when the key cannot be read back
    (``semantic`` mode), go with the first update.  Never stale."""

    GRAPH = [(0, "a", 1), (1, "a", 2), (1, "b", 2), (2, "c", 0), (2, "b", 3)]
    QUERIES = ["a+", "c.(a)+", "(b|c)+", "(a?)+.b", "(a.(b)+)+", "(c*)+"]
    UPDATES = [
        {"add": [(3, "z", 0)]},  # foreign to every body, no new vertex
        {"add": [(3, "z", 9)]},  # foreign, but vertex 9 is new: nullables go
        {"add": [(3, "a", 0)]},  # touches the bodies reading ``a``
        {"remove": [(1, "b", 2)]},  # touches the bodies reading ``b``
    ]

    @staticmethod
    def answers(db, queries):
        return [set(result) for result in db.execute_many(queries)]

    @pytest.mark.parametrize("mode", ["syntactic", "semantic"])
    @pytest.mark.parametrize("engine", ["rtc", "full"])
    def test_reopened_session_answers_like_a_cold_one(self, tmp_path, engine, mode):
        options = {"engine": engine, "cache_mode": mode}
        first = GraphDB.open(list(self.GRAPH), storage=tmp_path / "data", **options)
        first.execute_many(self.QUERIES)
        first.watch("a")
        first.watch("c*")
        first.checkpoint()
        first.close()

        warm = GraphDB.open(None, storage=tmp_path / "data", **options)
        cold = GraphDB.open(list(self.GRAPH), **options)
        cold.watch("a")
        cold.watch("c*")
        # Only the rtc engine's cache is RTC-valued, hence persisted.
        entries = len(warm.engine.rtc_cache) if engine == "rtc" else 0
        assert (entries > 0) == (engine == "rtc")
        assert warm.warm_stats == {"entries": entries, "watchers": 2, "stale": 0}
        assert cold.warm_stats == {"entries": 0, "watchers": 0, "stale": 0}

        for batch in self.UPDATES:
            warm.update(**batch)
            cold.update(**batch)
            oracle = GraphDB.open(cold.graph.copy(), engine="no")
            expected = self.answers(oracle, self.QUERIES)
            assert self.answers(warm, self.QUERIES) == expected, batch
            assert self.answers(cold, self.QUERIES) == expected, batch
            for body in ("a", "c*"):
                assert (
                    warm.watchers[body].plus_pairs()
                    == cold.watchers[body].plus_pairs()
                )
        warm.close()

        # No checkpoint since: the store's stamps are behind the log, so
        # nothing it holds may be installed -- and the answers stand.  A
        # body is stored once: rtc's watched bodies are among its entries.
        stored = entries if engine == "rtc" else 2
        again = GraphDB.open(None, storage=tmp_path / "data", **options)
        assert again.warm_stats == {"entries": 0, "watchers": 0, "stale": stored}
        assert self.answers(again, self.QUERIES) == self.answers(cold, self.QUERIES)
        again.close()

    def test_installed_entries_survive_a_foreign_update_by_their_key(self, tmp_path):
        first = GraphDB.open(list(self.GRAPH), storage=tmp_path / "data")
        first.execute_many(self.QUERIES)
        first.checkpoint()
        first.close()

        warm = GraphDB.open(None, storage=tmp_path / "data")
        cache = warm.engine.rtc_cache
        installed = {body: warm.engine.rtc_for(body) for body in ("a", "b|c", "a?")}
        misses = cache.stats.misses
        assert misses == 0  # all three came from the store
        warm.update(add=[(3, "z", 0)])
        assert all(warm.engine.rtc_for(body) is rtc for body, rtc in installed.items())
        warm.update(add=[(3, "z", 9)])
        assert warm.engine.rtc_for("a") is installed["a"]
        assert warm.engine.rtc_for("a?") is not installed["a?"]
        warm.update(remove=[(1, "b", 2)])
        assert warm.engine.rtc_for("a") is installed["a"]
        assert warm.engine.rtc_for("b|c") is not installed["b|c"]
        assert cache.stats.misses == misses  # repaired in place, not rebuilt
        warm.close()

    def test_semantic_store_reload_is_repaired_by_its_body_text(self, tmp_path):
        # The store keeps each body's text, so a semantic key -- a minimal
        # DFA, not a body -- is still repairable after a reload.
        options = {"cache_mode": "semantic", "storage": tmp_path / "data"}
        first = GraphDB.open(list(self.GRAPH), **options)
        first.execute_many(self.QUERIES)
        first.checkpoint()
        first.close()

        warm = GraphDB.open(None, **options)
        cache = warm.engine.rtc_cache
        installed = dict(cache.items())
        assert warm.warm_stats["entries"] == len(installed) > 0
        warm.update(add=[(3, "z", 0)])  # names no body: nothing moves
        assert all(cache.peek(key) is rtc for key, rtc in installed.items())
        warm.update(add=[(3, "a", 0)], remove=[(1, "b", 2)])
        assert len(cache) == len(installed) and cache.stats.misses == 0
        cold = GraphDB.open(warm.graph.copy(), engine="no")
        assert self.answers(warm, self.QUERIES) == self.answers(cold, self.QUERIES)
        warm.close()
