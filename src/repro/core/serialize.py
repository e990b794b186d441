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

Vertices survive round-trips when they are JSON-representable (ints and
strings -- everything the datasets and examples use); exotic vertex types
are rejected up front with a clear error.
"""

from __future__ import annotations

from repro.core.rtc import ReducedTransitiveClosure
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation

__all__ = ["rtc_to_dict", "rtc_from_dict"]

_FORMAT = "repro-rtc"
_VERSION = 1
_JSON_VERTEX_TYPES = (int, str)


class RtcFormatError(ReproError):
    """A serialised RTC could not be decoded."""


def rtc_to_dict(rtc: ReducedTransitiveClosure) -> dict:
    """Encode an RTC as a JSON-compatible dictionary."""
    for members in rtc.condensation.members.values():
        for vertex in members:
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
        "members": {
            str(scc_id): list(members)
            for scc_id, members in rtc.condensation.members.items()
        },
        "closure": {
            str(scc_id): sorted(targets)
            for scc_id, targets in rtc.closure.items()
        },
    }


def rtc_from_dict(payload: dict) -> ReducedTransitiveClosure:
    """Decode an RTC from :func:`rtc_to_dict` output.

    Rebuilds the condensation DAG from the closure's direct information:
    self-loops for self-reaching SCCs are restored, and cross edges are
    restored conservatively as the full closure relation (reachability-
    equivalent; the RTC only ever consumes ``closure``, ``members`` and
    ``scc_of``).
    """
    if payload.get("format") != _FORMAT:
        raise RtcFormatError(f"not a {_FORMAT} payload: {payload.get('format')!r}")
    if payload.get("version") != _VERSION:
        raise RtcFormatError(f"unsupported version {payload.get('version')!r}")
    try:
        members = {
            int(scc_id): tuple(vertices)
            for scc_id, vertices in payload["members"].items()
        }
        closure = {
            int(scc_id): frozenset(targets)
            for scc_id, targets in payload["closure"].items()
        }
        num_gr_vertices = int(payload["num_gr_vertices"])
        num_gr_edges = int(payload["num_gr_edges"])
    except (KeyError, TypeError, ValueError) as error:
        raise RtcFormatError(f"malformed RTC payload: {error}") from error

    if set(members) != set(closure):
        raise RtcFormatError("members and closure disagree on SCC ids")

    scc_of = {
        vertex: scc_id for scc_id, vertices in members.items() for vertex in vertices
    }
    dag = DiGraph()
    for scc_id in members:
        dag.add_vertex(scc_id)
    for scc_id, targets in closure.items():
        for target in targets:
            dag.add_edge(scc_id, target)
    condensation = Condensation(scc_of=scc_of, members=members, dag=dag)
    return ReducedTransitiveClosure(
        condensation=condensation,
        closure=closure,
        num_gr_vertices=num_gr_vertices,
        num_gr_edges=num_gr_edges,
    )
