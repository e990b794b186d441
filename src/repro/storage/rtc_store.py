"""Persistence for the shared RTC state: cache entries and watchers.

The whole value of the paper's pipeline is the *shared data* -- the RTC
built once per closure body and reused across queries.  Losing it on
restart means every body pays its construction cost again, which is the
difference between a warm replica and a cold one.  This module
serialises, per shard:

* every entry of the ``rtc`` engine's :class:`~repro.core.cache.RTCCache`
  (keyed by the cache's canonical body key, encoded with the existing
  :mod:`repro.core.serialize` codec), and
* every incremental watcher (``G_R`` edges + frozen RTC, restored via
  :meth:`~repro.core.incremental.IncrementalRTC.from_state` without
  re-running ``eval_rpq``),

each **version-stamped with the LSN it was valid at**.  On load, an entry
is installed only when its stamp equals the recovered LSN -- any update
after the checkpoint invalidates it.  That is coarser than the live
engine, which drops only the entries whose body reads a label the
update carried (:meth:`~repro.core.cache.SharedDataCache.invalidate`),
and safe: a stamp names a log position, not the labels logged since.
Stale entries are counted, not loaded.  Installed entries reach the
cache by key alone; the live rule then reads their body back from the
key (``syntactic`` mode) or, failing that, drops them at the first
update.

Engines other than ``rtc`` (``full``'s materialised closures, ``none``)
have no RTC-valued cache; for them only watchers are persisted.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.serialize import RtcFormatError, rtc_from_dict, rtc_to_dict
from repro.errors import StorageError
from repro.storage.manifest import atomic_write_text

__all__ = [
    "collect_rtc_state",
    "install_rtc_state",
    "load_rtc_store",
    "write_rtc_store",
]

_FORMAT = "repro-rtc-store"
_VERSION = 1


def _cache_of(db) -> object | None:
    """The session engine's RTC-valued cache, when it has one."""
    return getattr(db.engine, "rtc_cache", None)


def collect_rtc_state(db, lsn: int, extra_sessions: tuple = ()) -> dict:
    """Gather the store payload from a session (plus replica sessions).

    ``extra_sessions`` are sibling replicas of the same shard: they saw
    the same ordered update stream, so their caches hold entries for the
    same graph state and can be merged (last writer wins on equal
    values).  Non-serialisable entries (exotic vertex types) are skipped
    rather than failing the checkpoint.
    """
    entries: dict[str, dict] = {}
    watchers: dict[str, dict] = {}
    skipped = 0
    mode = None
    for session in (db, *extra_sessions):
        cache = _cache_of(session)
        if cache is not None:
            mode = cache.mode if mode is None else mode
            with cache._lock:
                cached = dict(cache._entries)
            for key, rtc in cached.items():
                try:
                    entries[key] = {"lsn": int(lsn), "rtc": rtc_to_dict(rtc)}
                except RtcFormatError:
                    skipped += 1
        for body, watcher in session.watchers.items():
            if body in watchers:
                continue
            gr_edges, rtc = watcher.export_state()
            try:
                watchers[body] = {
                    "lsn": int(lsn),
                    "gr_edges": [list(pair) for pair in gr_edges],
                    "rtc": rtc_to_dict(rtc),
                }
            except RtcFormatError:
                skipped += 1
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "lsn": int(lsn),
        "cache_mode": mode,
        "entries": entries,
        "watchers": watchers,
        "skipped": skipped,
    }


def write_rtc_store(db, directory: str | Path, lsn: int, extra_sessions: tuple = ()) -> str | None:
    """Write the RTC store file for ``lsn``; returns its name, or ``None``.

    Nothing is written when there is nothing warm to keep (empty cache,
    no watchers) -- the manifest then records ``rtc_store: null``.
    """
    payload = collect_rtc_state(db, lsn, extra_sessions)
    if not payload["entries"] and not payload["watchers"]:
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
    if payload.get("version") != _VERSION:
        raise StorageError(f"unsupported RTC store version {payload.get('version')!r}")
    return payload


def install_rtc_state(db, payload: dict, lsn: int) -> dict:
    """Warm one session from a store payload; returns install statistics.

    Cache entries land only when (a) the session's engine has an RTC
    cache in the same ``cache_mode`` the payload was keyed with, and
    (b) the entry's LSN stamp equals the recovered ``lsn``.  Watchers are
    restored through :meth:`GraphDB.restore_watcher`, bound to *this*
    session's graph.
    """
    stats = {"entries": 0, "watchers": 0, "stale": 0}
    cache = _cache_of(db)
    mode_matches = cache is not None and payload.get("cache_mode") == cache.mode
    for key, entry in payload.get("entries", {}).items():
        if entry.get("lsn") != int(lsn) or not mode_matches:
            stats["stale"] += 1
            continue
        try:
            cache.store(key, rtc_from_dict(entry["rtc"]))
        except (KeyError, RtcFormatError) as error:
            raise StorageError(f"corrupt RTC store entry {key!r}: {error}") from error
        stats["entries"] += 1
    for body, entry in payload.get("watchers", {}).items():
        if entry.get("lsn") != int(lsn):
            stats["stale"] += 1
            continue
        try:
            gr_edges = [tuple(pair) for pair in entry["gr_edges"]]
            rtc = rtc_from_dict(entry["rtc"])
        except (KeyError, TypeError, RtcFormatError) as error:
            raise StorageError(f"corrupt watcher entry {body!r}: {error}") from error
        db.restore_watcher(body, gr_edges, rtc)
        stats["watchers"] += 1
    return stats
