"""ShardStorage end-to-end: bind, log, crash, recover, checkpoint, compact."""

import json

import pytest

from repro.db import GraphDB
from repro.errors import StorageError
from repro.storage import MANIFEST_NAME, ShardStorage, has_state
from repro.storage.recovery import WAL_NAME

SEED = [("a", "x", "b"), ("b", "x", "c"), ("c", "y", "a")]


def open_fresh(tmp_path, edges=SEED):
    return GraphDB.open(list(edges), storage=tmp_path / "data")


def graph_edges(graph):
    return sorted(graph.edges(), key=str)


class TestFreshBind:
    def test_bind_writes_the_initial_checkpoint(self, tmp_path):
        db = open_fresh(tmp_path)
        assert has_state(tmp_path / "data")
        assert db.storage.last_lsn == 0
        db.close()

    def test_fresh_bind_refuses_a_stateful_directory(self, tmp_path):
        from repro.graph.multigraph import LabeledMultigraph

        open_fresh(tmp_path).close()
        with pytest.raises(StorageError, match="already holds state"):
            GraphDB(
                LabeledMultigraph.from_edges(SEED),
                storage=ShardStorage(tmp_path / "data"),
            )

    def test_open_without_source_needs_state(self, tmp_path):
        with pytest.raises(TypeError, match="no recoverable state"):
            GraphDB.open(storage=tmp_path / "empty")


class TestRecovery:
    def test_replayed_wal_reproduces_the_graph(self, tmp_path):
        db = open_fresh(tmp_path)
        db.update(add=[("c", "x", "d"), ("d", "y", "a")])
        db.update(remove=[("b", "x", "c")])
        live = graph_edges(db.graph)
        db.close()

        storage = ShardStorage(tmp_path / "data")
        state = storage.recover()
        assert graph_edges(state.graph) == live
        assert state.replayed_records == 2
        assert state.snapshot_lsn == 0
        assert state.lsn == 2
        recovered = GraphDB.open(storage=storage)
        assert recovered.execute("x+") == {("a", "b"), ("c", "d")}
        recovered.close()

    def test_recovery_without_source_after_checkpoint_only(self, tmp_path):
        db = open_fresh(tmp_path)
        db.update(add=[("c", "x", "d")])
        db.checkpoint()
        db.close()
        recovered = GraphDB.open(storage=tmp_path / "data")
        assert recovered.storage.recovered.replayed_records == 0
        assert recovered.graph.has_edge("c", "x", "d")
        recovered.close()

    def test_torn_wal_tail_loses_only_the_torn_record(self, tmp_path):
        db = open_fresh(tmp_path)
        db.update(add=[("c", "x", "d")])
        db.close()
        wal_path = tmp_path / "data" / WAL_NAME
        with wal_path.open("ab") as handle:
            handle.write(b'{"lsn": 2, "op": "update", "add": [["d", "x"')
        storage = ShardStorage(tmp_path / "data")
        state = storage.recover()
        assert state.truncated_bytes > 0
        assert state.replayed_records == 1
        assert state.graph.has_edge("c", "x", "d")
        assert not state.graph.has_vertex("e")

    def test_update_failing_midway_logs_its_applied_prefix(self, tmp_path):
        db = open_fresh(tmp_path)
        with pytest.raises(Exception):
            # second edge is a duplicate of the seed -> raises after the
            # first edge of the batch already landed
            db.update(add=[("z1", "x", "z2"), ("a", "x", "b")])
        assert db.graph.has_edge("z1", "x", "z2")
        live = graph_edges(db.graph)
        db.close()
        assert graph_edges(ShardStorage(tmp_path / "data").recover().graph) == live

    def test_non_persistable_edge_rejected_before_mutation(self, tmp_path):
        db = open_fresh(tmp_path)
        with pytest.raises(StorageError):
            db.update(add=[(("tu", "ple"), "x", "b")])
        assert not db.graph.has_vertex(("tu", "ple"))
        assert db.storage.last_lsn == 0  # nothing was logged
        db.close()


class TestCheckpoint:
    def test_checkpoint_compacts_the_wal(self, tmp_path):
        db = open_fresh(tmp_path)
        db.update(add=[("c", "x", "d")])
        db.update(add=[("d", "x", "e")])
        info = db.checkpoint()
        assert info["lsn"] == 2
        storage = ShardStorage(tmp_path / "data")
        state = storage.recover()
        assert state.snapshot_lsn == 2
        assert state.replayed_records == 0
        assert state.graph.has_edge("d", "x", "e")
        db.close()

    def test_checkpoint_removes_the_previous_generation(self, tmp_path):
        db = open_fresh(tmp_path)
        db.update(add=[("c", "x", "d")])
        db.checkpoint()
        db.update(add=[("d", "x", "e")])
        db.checkpoint()
        names = {path.name for path in (tmp_path / "data").iterdir()}
        assert "snapshot-2.edges" in names
        assert "snapshot-1.edges" not in names
        assert "snapshot-0.edges" not in names
        db.close()

    def test_three_checkpoints_leave_one_generation(self, tmp_path):
        db = open_fresh(tmp_path)
        db.execute("x+")
        for edge in [("c", "x", "d"), ("d", "x", "e"), ("e", "y", "f")]:
            db.update(add=[edge])
            db.checkpoint()
        assert sorted(path.name for path in (tmp_path / "data").iterdir()) == [
            "manifest.json", "rtc-3.json", "snapshot-3.edges", "wal.jsonl"
        ]
        db.close()

    def test_manifest_is_the_commit_point(self, tmp_path):
        db = open_fresh(tmp_path)
        db.update(add=[("c", "x", "d")])
        db.checkpoint()
        db.close()
        manifest = json.loads(
            (tmp_path / "data" / MANIFEST_NAME).read_text()
        )
        assert manifest["lsn"] == 1
        assert (tmp_path / "data" / manifest["snapshot"]["edges"]).exists()

    def test_without_storage_checkpoint_raises(self):
        db = GraphDB.open(list(SEED))
        with pytest.raises(StorageError, match="no storage"):
            db.checkpoint()


class TestLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        db = open_fresh(tmp_path)
        db.close()
        db.close()
        assert db.storage.closed

    def test_stats_surface_storage_document(self, tmp_path):
        db = open_fresh(tmp_path)
        db.update(add=[("c", "x", "d")])
        document = db.stats()["storage"]
        assert document["lsn"] == 1
        assert document["last_checkpoint_lsn"] == 0
        assert document["recovered"] is False
        assert document["updates_since_checkpoint"] == 1
        db.close()
