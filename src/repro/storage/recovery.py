""":class:`ShardStorage` -- one shard's durable state, end to end.

The lifecycle a worker (or a standalone session) drives::

    storage = ShardStorage(data_dir)
    if storage.has_state():
        state = storage.recover()        # snapshot + WAL replay
        db = GraphDB.open(state.graph, storage=storage)   # comes back hot
    else:
        db = GraphDB.open(seed_graph, storage=storage)    # initial checkpoint
    ...
    db.update(add=[...])                 # logged + fsync'd before returning
    db.checkpoint()                      # roll snapshot forward, compact WAL

``recover()`` loads the manifest's snapshot -- seeding the graph's
interner from the snapshot's vertex table before it adds an edge, so
every vertex keeps the id the RTC store's rows name -- replays every
valid WAL record on top of it (truncating a torn tail), and keeps the
warm RTC payload around; ``bind()`` (called by ``GraphDB.open``)
attaches the WAL for logging and installs the warm payload into the
session.  Replica siblings of the primary session (copies of the
recovered graph, so the same ids) are warmed with :meth:`install`.

A checkpoint deletes every file the manifest it supersedes names and
the new one does not -- legacy sidecars included, so the first
checkpoint of a pre-format directory leaves only the new generation.

A directory with existing state refuses a *fresh* bind (a new graph over
an old log would silently diverge from disk): recover first, or point the
session at an empty directory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StorageError
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import ambient_span, get_registry
from repro.storage.manifest import MANIFEST_NAME, read_manifest, write_manifest
from repro.storage.rtc_store import install_rtc_state, load_rtc_store, write_rtc_store
from repro.storage.snapshot import check_persistable_edge, read_snapshot, write_snapshot
from repro.storage.wal import WriteAheadLog

__all__ = ["RecoveredState", "ShardStorage", "has_state"]

_registry = get_registry()
_checkpoints_total = _registry.counter(
    "repro_checkpoints_total", "Committed checkpoints (manifest renames)."
)
_phase_seconds = _registry.counter(
    "repro_phase_seconds_total",
    "Wall seconds spent per engine/storage phase.",
    labels=("phase",),
)

WAL_NAME = "wal.jsonl"


def has_state(directory: str | Path) -> bool:
    """Whether ``directory`` holds a committed storage generation.

    The manifest is the commit point, so its existence *is* the test --
    cheap enough for a spawning parent to decide "seed or recover"
    without opening any handle.
    """
    return (Path(directory) / MANIFEST_NAME).exists()


def _file_names(manifest: dict) -> set[str]:
    """Every file ``manifest`` names (``isolated``/``interner``: version 1)."""
    snapshot = manifest.get("snapshot", {})
    names = [snapshot.get(key) for key in ("edges", "isolated", "interner")]
    return {name for name in (*names, manifest.get("rtc_store")) if name}


@dataclass
class RecoveredState:
    """What :meth:`ShardStorage.recover` reconstructed from disk."""

    graph: LabeledMultigraph
    lsn: int
    replayed_records: int
    snapshot_lsn: int
    truncated_bytes: int
    rtc_payload: dict | None = field(default=None, repr=False)


class ShardStorage:
    """The durable home of one shard: WAL + snapshots + RTC store.

    Not thread-safe on its own; every mutating call is made under the
    owning session's lock (``GraphDB`` routes ``log_update`` and
    ``checkpoint`` through it).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._wal: WriteAheadLog | None = None
        self._recovered: RecoveredState | None = None
        self._closed = False
        self._last_checkpoint_lsn = 0

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def has_state(self) -> bool:
        return has_state(self.directory)

    @property
    def recovered(self) -> RecoveredState | None:
        return self._recovered

    @property
    def last_lsn(self) -> int:
        return self._wal.last_lsn if self._wal is not None else 0

    def recover(self) -> RecoveredState:
        """Rebuild the graph from snapshot + WAL; idempotent per instance."""
        self._check_open()
        if self._recovered is not None:
            return self._recovered
        manifest = read_manifest(self.directory)
        if manifest is None:
            raise StorageError(
                f"{self.directory} has no manifest to recover from; "
                "bind a fresh session instead"
            )
        snapshot_lsn = manifest["lsn"]
        graph = read_snapshot(self.directory, manifest["snapshot"])
        self._wal = WriteAheadLog(self.directory / WAL_NAME, start_lsn=snapshot_lsn)
        records = self._wal.records()
        for record in records:
            if record.get("op") != "update":
                raise StorageError(
                    f"unknown WAL record op {record.get('op')!r} at lsn {record.get('lsn')}"
                )
            for source, label, target in record.get("add", ()):
                graph.add_edge(source, label, target)
            for source, label, target in record.get("remove", ()):
                graph.remove_edge(source, label, target)
        rtc_payload = None
        if manifest.get("rtc_store"):
            rtc_payload = load_rtc_store(self.directory, manifest["rtc_store"])
        self._last_checkpoint_lsn = snapshot_lsn
        self._recovered = RecoveredState(
            graph=graph,
            lsn=self._wal.last_lsn,
            replayed_records=len(records),
            snapshot_lsn=snapshot_lsn,
            truncated_bytes=self._wal.truncated_bytes,
            rtc_payload=rtc_payload,
        )
        return self._recovered

    # ------------------------------------------------------------------
    # binding and logging
    # ------------------------------------------------------------------
    def bind(self, db) -> dict:
        """Attach this storage to its primary session; returns warm stats.

        Fresh directory: writes the initial checkpoint (snapshot of the
        seed graph at LSN 0) so the manifest exists from the first
        moment.  Recovered directory: requires :meth:`recover` to have
        produced the very graph the session binds (identity check), then
        installs the warm RTC payload.
        """
        self._check_open()
        if db.closed:
            raise StorageError("cannot bind storage to a closed session")
        if self._recovered is not None:
            if db.graph is not self._recovered.graph:
                raise StorageError(
                    "session graph is not the recovered graph; pass "
                    "storage.recover().graph (or the storage itself) to GraphDB.open"
                )
            return self.install(db)
        if self.has_state():
            raise StorageError(
                f"{self.directory} already holds state; call recover() "
                "before binding a session (a fresh graph would diverge from disk)"
            )
        self._wal = WriteAheadLog(self.directory / WAL_NAME, start_lsn=0)
        self._wal.reset(0)
        self._checkpoint_locked(db, ())
        return {"entries": 0, "watchers": 0, "stale": 0}

    def install(self, db) -> dict:
        """Warm one session (primary or replica sibling) from the store."""
        self._check_open()
        if self._recovered is None or self._recovered.rtc_payload is None:
            return {"entries": 0, "watchers": 0, "stale": 0}
        return install_rtc_state(db, self._recovered.rtc_payload, self._recovered.lsn)

    def validate_edges(self, edges) -> None:
        """Refuse non-persistable edges *before* the session applies them."""
        for source, label, target in edges:
            check_persistable_edge(source, label, target)

    def log_update(self, add: list, remove: list) -> int | None:
        """Durably record one applied ``update`` batch; returns its LSN.

        No-op (and no LSN is consumed) for an empty batch.  Called by the
        session *after* the batch mutated the graph, with exactly the
        applied prefix -- so replay reproduces the graph byte for byte
        even when the original batch failed midway.
        """
        self._check_open()
        if self._wal is None:
            raise StorageError("storage is not bound to a session yet")
        if not add and not remove:
            return None
        return self._wal.append(
            {
                "op": "update",
                "add": [list(edge) for edge in add],
                "remove": [list(edge) for edge in remove],
            }
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, db, extra_sessions: tuple = ()) -> dict:
        """Roll the snapshot forward to the current LSN and compact the WAL.

        Order matters for crash safety: snapshot files and the RTC store
        are written to fresh LSN-stamped names first, the manifest rename
        commits them, and only then is the now-covered WAL truncated and
        the previous generation's files deleted.
        """
        self._check_open()
        if self._wal is None:
            raise StorageError("storage is not bound to a session yet")
        return self._checkpoint_locked(db, tuple(extra_sessions))

    def _checkpoint_locked(self, db, extra_sessions: tuple) -> dict:
        lsn = self._wal.last_lsn
        started = time.perf_counter()
        with ambient_span("checkpoint") as span:
            old_manifest = read_manifest(self.directory)
            with ambient_span("snapshot"):
                snapshot_entry = write_snapshot(db.graph, self.directory, lsn)
            store_name = write_rtc_store(db, self.directory, lsn, extra_sessions)
            manifest = write_manifest(self.directory, lsn, snapshot_entry, store_name)
            self._wal.reset(lsn)
            self._last_checkpoint_lsn = lsn
            if old_manifest is not None:
                for name in _file_names(old_manifest) - _file_names(manifest):
                    (self.directory / name).unlink(missing_ok=True)
            if span is not None:
                span.attrs["lsn"] = lsn
        _checkpoints_total.inc()
        _phase_seconds.inc(time.perf_counter() - started, phase="checkpoint")
        return {"lsn": lsn, "snapshot": snapshot_entry, "rtc_store": store_name}

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Storage state for the ``stats`` verb: LSN, recovery, layout."""
        recovered = self._recovered
        return {
            "directory": str(self.directory),
            "lsn": self.last_lsn,
            "last_checkpoint_lsn": self._last_checkpoint_lsn,
            "recovered": recovered is not None,
            "replayed_records": recovered.replayed_records if recovered else 0,
            "truncated_bytes": recovered.truncated_bytes if recovered else 0,
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def sync(self) -> None:
        """Flush and fsync pending WAL state (appends already fsync)."""
        if self._wal is not None and not self._wal.closed:
            self._wal.sync()

    def close(self) -> None:
        """Fsync and release the WAL handle; idempotent."""
        if self._closed:
            return
        if self._wal is not None:
            self._wal.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"storage at {self.directory} is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"ShardStorage({str(self.directory)!r}, lsn={self.last_lsn}, {state})"
