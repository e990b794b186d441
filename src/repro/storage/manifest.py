"""The storage manifest: which snapshot is live and what WAL position it covers.

``manifest.json`` is the *commit point* of a checkpoint.  The snapshot
files and the RTC store are written first (each atomically, to fresh
LSN-stamped names); only then is the manifest swapped in with the classic
tmp + fsync + rename dance.  A crash at any point leaves either the old
manifest (pointing at intact old files) or the new one (pointing at
intact new files) -- never a manifest naming half-written state.

Payload::

    {
      "format": "repro-storage",
      "version": 2,
      "lsn": 42,                      # WAL position the snapshot covers
      "snapshot": {"edges": "snapshot-42.edges"},   # one repro-graph document
      "rtc_store": "rtc-42.json"      # or null when nothing was cached
    }

Version 1 manifests (an edge-list or JSON-triples snapshot with
``edge_format``, ``isolated`` and ``interner`` sidecars) still load, and
the checkpoint that supersedes one deletes every file it names.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import StorageError

__all__ = ["MANIFEST_NAME", "atomic_write_text", "read_manifest", "write_manifest"]

MANIFEST_NAME = "manifest.json"
_FORMAT = "repro-storage"
_VERSION = 2
_READABLE = (1, 2)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via tmp + fsync + rename.

    The temporary file lives in the same directory, so the final rename
    is atomic on POSIX; readers never observe a partial file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def write_manifest(directory: str | Path, lsn: int, snapshot: dict, rtc_store: str | None) -> dict:
    """Atomically commit a checkpoint's manifest; returns the payload."""
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "lsn": int(lsn),
        "snapshot": snapshot,
        "rtc_store": rtc_store,
    }
    atomic_write_text(Path(directory) / MANIFEST_NAME, json.dumps(payload, indent=2) + "\n")
    return payload


def read_manifest(directory: str | Path) -> dict | None:
    """The manifest payload of ``directory``, or ``None`` when absent."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise StorageError(f"corrupt manifest {path}: {error}") from error
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise StorageError(f"{path} is not a {_FORMAT} manifest")
    if payload.get("version") not in _READABLE:
        raise StorageError(
            f"unsupported manifest version {payload.get('version')!r} in {path}"
        )
    if not isinstance(payload.get("lsn"), int) or not isinstance(payload.get("snapshot"), dict):
        raise StorageError(f"malformed manifest {path}: missing lsn/snapshot")
    return payload
