"""Persistence for the shared RTC state: one record per cached body.

The whole value of the paper's pipeline is the *shared data* -- the RTC
built once per closure body and reused across queries.  Losing it on
restart means every body pays its construction cost again, which is the
difference between a warm replica and a cold one.  This module
serialises, per shard, every entry of the session's RTC cache
(:attr:`GraphDB.rtc_cache <repro.db.GraphDB.rtc_cache>`: the ``rtc``
engine's cache, or the session's cache of watched bodies), keyed by the
cache's canonical body key.

Layout (``version`` 3)::

    {"format": "repro-rtc-store", "version": 3, "lsn": 7,
     "cache_mode": "syntactic", "skipped": 0,
     "entries": {"b.c": {"lsn": 7,
                         "body": "b.c",
                         "watched": ["b.c"],
                         "rtc": {...},          # repro.core.serialize
                         "rows": [[1, [3, 5]], [3, [5]]]}}}

``body`` is the body text, so an entry can be repaired by later updates
(and re-keyed for another cache mode) however it was keyed; ``watched``
lists the watch handles on it (pinned when non-empty); ``rows`` is
``G_R`` as ``[src_id, [dst_ids]]`` (:func:`repro.storage.snapshot.rows_to_json`)
in the id space of the snapshot written by the same checkpoint, or
``null`` for an entry that carries none.  Each body is stored once.

Ids are shared because every replica of a shard is a
:meth:`~repro.graph.LabeledMultigraph.copy` of one graph (which keeps id
order) fed the same ordered updates, and recovery seeds the interner
from the snapshot's table.  A sibling session whose table differs
anyway is skipped, never written in a foreign id space.

Every entry is **stamped with the LSN it was valid at**, and is
installed only when its stamp equals the recovered LSN: any update after
the checkpoint makes it stale (counted, not loaded).  That is coarser
than the live session, which repairs entries update by update, and safe:
a stamp names a log position, not the edges logged since.  An equal
stamp also means no WAL record was replayed, so the recovered interner
is exactly the snapshot's table.

Versions 1 and 2 still load.  Version 2 stored rows as
``[source, [targets]]`` in vertices.  Version 1 stored entries by key
alone -- they install as bare RTCs without rows, so the first update
that touches one re-evaluates it, and one whose body a ``semantic`` key
cannot name is dropped -- plus ``watchers`` carrying ``gr_edges``, which
become watched entries with rows.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.serialize import RtcFormatError, rtc_from_dict, rtc_to_dict
from repro.errors import ReproError, StorageError
from repro.regex.parser import parse
from repro.storage.manifest import atomic_write_text
from repro.storage.snapshot import rows_from_json, rows_to_json

__all__ = [
    "collect_rtc_state",
    "install_rtc_state",
    "load_rtc_store",
    "write_rtc_store",
]

_FORMAT = "repro-rtc-store"
_VERSION = 3
_READABLE = (1, 2, 3)


def _body_text(cache, key: str) -> str | None:
    if cache.mode == "syntactic":
        return key  # the key is the body text
    body = cache.body_of(key)
    return None if body is None else body.to_string()


def _rows_from_pairs(pairs, interner) -> dict[int, int]:
    """``G_R`` rows over ``interner`` from version-1/2 vertex pairs."""
    rows: dict[int, int] = {}
    for source, targets in pairs:
        source_id = interner.id_of(source)
        mask = interner.mask_of(targets)
        if source_id is None or mask.bit_count() != len(targets):
            raise StorageError(f"G_R row of {source!r} names a vertex the graph lacks")
        if mask:
            rows[source_id] = rows.get(source_id, 0) | mask
    return rows


def collect_rtc_state(db, lsn: int, extra_sessions: tuple = ()) -> dict:
    """Gather the store payload from a session (plus replica sessions).

    ``extra_sessions`` are sibling replicas of the same shard: they saw
    the same ordered update stream, so their caches hold entries for the
    same graph state and can be merged (first writer wins on equal
    values; the watch lists are united).  Rows are ids of ``db``'s
    graph, so a sibling whose interner table differs is skipped whole,
    its entries counted in ``skipped``.  Non-serialisable entries
    (exotic vertex types) are skipped rather than failing the checkpoint.
    """
    entries: dict[str, dict] = {}
    skipped = 0
    mode = db.rtc_cache.mode
    table = db.graph.interner.vertices()
    for session in (db, *extra_sessions):
        cache = session.rtc_cache
        if session is not db and session.graph.interner.vertices() != table:
            skipped += len(cache)
            continue
        watched: dict[str, list[str]] = {}
        for name, watcher in session.watchers.items():
            watched.setdefault(watcher.key, []).append(name)
        for key, rtc in cache.items():
            record = entries.get(key)
            if record is None:
                try:
                    record = {
                        "lsn": int(lsn),
                        "body": _body_text(cache, key),
                        "watched": [],
                        "rtc": rtc_to_dict(rtc),
                        "rows": None if rtc.gr_rows is None else rows_to_json(rtc.gr_rows),
                    }
                except RtcFormatError:
                    skipped += 1
                    continue
                entries[key] = record
            record["watched"] = sorted({*record["watched"], *watched.get(key, ())})
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "lsn": int(lsn),
        "cache_mode": mode,
        "entries": entries,
        "skipped": skipped,
    }


def write_rtc_store(db, directory: str | Path, lsn: int, extra_sessions: tuple = ()) -> str | None:
    """Write the RTC store file for ``lsn``; returns its name, or ``None``.

    Nothing is written when there is nothing warm to keep (empty cache)
    -- the manifest then records ``rtc_store: null``.
    """
    payload = collect_rtc_state(db, lsn, extra_sessions)
    if not payload["entries"]:
        return None
    name = f"rtc-{int(lsn)}.json"
    atomic_write_text(Path(directory) / name, json.dumps(payload))
    return name


def load_rtc_store(directory: str | Path, name: str) -> dict:
    """Read and validate a store file written by :func:`write_rtc_store`."""
    path = Path(directory) / name
    if not path.exists():
        raise StorageError(f"manifest names missing RTC store {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise StorageError(f"corrupt RTC store {path}: {error}") from error
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise StorageError(f"{path} is not a {_FORMAT} payload")
    if payload.get("version") not in _READABLE:
        raise StorageError(f"unsupported RTC store version {payload.get('version')!r}")
    return payload


def _records(payload: dict):
    """``(key, record)`` in the version-2/3 shape, whatever the version."""
    yield from payload.get("entries", {}).items()
    if payload.get("version") == 1:
        # Watchers carried the rows as G_R edges and were keyed by body;
        # later records win, so a watched body keeps its rows.
        for body, entry in payload.get("watchers", {}).items():
            record = dict(entry, body=body, watched=[body])
            try:
                by_source: dict = {}
                for source, target in entry["gr_edges"]:
                    by_source.setdefault(source, []).append(target)
            except (KeyError, TypeError, ValueError) as error:
                raise StorageError(f"corrupt watcher entry {body!r}: {error}") from error
            record["rows"] = list(by_source.items())
            yield None, record


def install_rtc_state(db, payload: dict, lsn: int) -> dict:
    """Warm one session from a store payload; returns install statistics.

    An entry lands only when its LSN stamp equals the recovered ``lsn``.
    It goes into the session's :attr:`~repro.db.GraphDB.rtc_cache`:
    under its stored key when the payload's cache mode is the cache's,
    else -- watched entries only -- under the key of its body text.  An
    unwatched entry the engine's own cache cannot take (another mode, or
    an engine that keeps no RTC cache) is stale.  Version-3 rows are ids
    of *this* session's graph (:class:`StorageError` on one it never
    assigned); older rows are vertices, mapped onto its ids.  Each RTC
    is decoded straight into the session's id space, rows attached.
    """
    stats = {"entries": 0, "watchers": 0, "stale": 0}
    installed: set[str] = set()
    cache = db.rtc_cache
    engine_owned = cache is getattr(db.engine, "rtc_cache", None)
    mode_matches = payload.get("cache_mode") == cache.mode
    interner = db.graph.interner
    id_rows = payload.get("version") == _VERSION
    for key, record in _records(payload):
        watched = record.get("watched") or []
        body = record.get("body")
        if record.get("lsn") != int(lsn) or not (
            watched or (engine_owned and mode_matches and key is not None)
        ):
            stats["stale"] += 1
            continue
        try:
            if key is None or not mode_matches:
                key = cache.key_for(parse(body))
            rows = record.get("rows")
            if rows is not None:
                rows = (
                    rows_from_json(rows, len(interner))
                    if id_rows
                    else _rows_from_pairs(rows, interner)
                )
            rtc = rtc_from_dict(record["rtc"], interner, rows)
        except StorageError:
            raise
        except (KeyError, TypeError, ValueError, ReproError) as error:
            raise StorageError(f"corrupt RTC store entry {key!r}: {error}") from error
        db.install_rtc(key, rtc, body=body, watched=watched)
        installed.add(key)
        stats["watchers"] += len(watched)
    if engine_owned:
        stats["entries"] = len(installed)
    return stats
