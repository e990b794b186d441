"""Durable storage for the serving stack: WAL, snapshots, warm RTC state.

The cluster's shards (and any standalone :class:`~repro.db.GraphDB`
session) are in-memory structures; this package makes them *restartable*:

:mod:`repro.storage.wal`
    A per-shard write-ahead log -- fsync'd JSON-lines records of ``update``
    batches with monotonic log-sequence numbers (LSNs) and a corruption-
    tolerant reader that truncates at the first torn tail record.
:mod:`repro.storage.snapshot`
    The one id-space graph format -- the interner table plus per-label
    rows of ids -- used by full-graph snapshots, the RTC store's ``G_R``
    rows and the process backend's shard handoff.
:mod:`repro.storage.manifest`
    The atomically written ``manifest.json`` naming the live snapshot and
    the WAL position it covers, so crash-during-snapshot is safe.
:mod:`repro.storage.rtc_store`
    Persistence for the expensive shared structures: every cached RTC
    once, with its ``G_R`` rows (ids of the snapshot beside it) and
    whether it is watched, stamped with the LSN it was valid at, so a
    restarted replica comes back *hot*.
:mod:`repro.storage.recovery`
    The :class:`ShardStorage` orchestrator tying the four together:
    ``recover()`` replays snapshot + WAL, ``bind()`` attaches logging to a
    session, ``checkpoint()`` rolls the snapshot forward and compacts.

See the README's "Durability & warm restarts" section for the contract
and the ``repro serve --data-dir`` wiring.
"""

from repro.storage.manifest import MANIFEST_NAME, read_manifest, write_manifest
from repro.storage.recovery import RecoveredState, ShardStorage, has_state
from repro.storage.snapshot import read_snapshot, write_snapshot
from repro.storage.wal import WriteAheadLog

__all__ = [
    "MANIFEST_NAME",
    "RecoveredState",
    "ShardStorage",
    "WriteAheadLog",
    "has_state",
    "read_manifest",
    "read_snapshot",
    "write_manifest",
    "write_snapshot",
]
