"""Serialisation of reduced transitive closures (share across processes).

The whole point of the RTC is to be *shared*; sharing across processes or
runs needs a stable on-disk form.  This module provides a JSON codec for
:class:`~repro.core.rtc.ReducedTransitiveClosure`; the one persisted form
that uses it is the RTC store (:mod:`repro.storage.rtc_store`), which
keeps each cached body's record beside its ``G_R`` rows.

Format (versioned)::

    {
      "format": "repro-rtc",
      "version": 1,
      "num_gr_vertices": 5,
      "num_gr_edges": 5,
      "members": {"0": [2, 4], "1": [6], "2": [3, 5]},
      "closure": {"0": [0, 1], "1": [], "2": [2]}
    }

The payload names vertices, not ids, so it can be decoded into any id
space: :func:`rtc_from_dict` interns the members straight into the
interner it is given (the session's graph, for the store) and attaches
the ``G_R`` rows the caller kept beside the payload.  The condensed DAG
is not stored; the decoded RTC derives it like any other (from the rows
when it has them).

Vertices survive round-trips when they are JSON-representable (ints and
strings -- everything the datasets and examples use); exotic vertex types
are rejected up front with a clear error.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from repro.bitset.interner import VertexInterner, bit_indexes
from repro.core.rtc import ReducedTransitiveClosure
from repro.errors import ReproError

__all__ = ["rtc_to_dict", "rtc_from_dict"]

_FORMAT = "repro-rtc"
_VERSION = 1
_JSON_VERTEX_TYPES = (int, str)


class RtcFormatError(ReproError):
    """A serialised RTC could not be decoded."""


def rtc_to_dict(rtc: ReducedTransitiveClosure) -> dict:
    """Encode an RTC as a JSON-compatible dictionary."""
    members = list(map(rtc.interner.vertices_of, rtc.member_masks))
    for vertices in members:
        for vertex in vertices:
            if not isinstance(vertex, _JSON_VERTEX_TYPES):
                raise RtcFormatError(
                    f"vertex {vertex!r} of type {type(vertex).__name__} is "
                    "not JSON-serialisable; only int and str vertices can "
                    "be persisted"
                )
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "num_gr_vertices": rtc.num_gr_vertices,
        "num_gr_edges": rtc.num_gr_edges,
        "members": {str(scc_id): list(vertices) for scc_id, vertices in enumerate(members)},
        "closure": {
            str(scc_id): bit_indexes(mask)
            for scc_id, mask in enumerate(rtc.closure_masks)
        },
    }


def rtc_from_dict(
    payload: dict,
    interner: VertexInterner | None = None,
    rows: dict[int, int] | None = None,
) -> ReducedTransitiveClosure:
    """Decode an RTC from :func:`rtc_to_dict` output.

    The RTC is built over ``interner`` (a private one by default), whose
    ids its members get, and carries ``rows`` -- ``G_R`` over that same
    interner, or ``None`` -- as its ``gr_rows``.
    """
    if payload.get("format") != _FORMAT:
        raise RtcFormatError(f"not a {_FORMAT} payload: {payload.get('format')!r}")
    if payload.get("version") != _VERSION:
        raise RtcFormatError(f"unsupported version {payload.get('version')!r}")
    try:
        members = payload["members"]
        closure = payload["closure"]
        scc_ids = [str(scc_id) for scc_id in range(len(members))]
        if set(members) != set(closure) or set(members) != set(scc_ids):
            raise RtcFormatError("members and closure disagree on SCC ids 0..n-1")
        closure_masks = [
            reduce(or_, (1 << int(target_id) for target_id in closure[scc_id]), 0)
            for scc_id in scc_ids
        ]
        if any(mask >> len(scc_ids) for mask in closure_masks):
            raise RtcFormatError("a closure names an SCC id out of range")
        return ReducedTransitiveClosure.from_members(
            VertexInterner() if interner is None else interner,
            [members[scc_id] for scc_id in scc_ids],
            closure_masks,
            int(payload["num_gr_edges"]),
            gr_rows=rows,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise RtcFormatError(f"malformed RTC payload: {error}") from error
