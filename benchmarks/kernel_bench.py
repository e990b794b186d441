"""Kernel microbenches: set vs bitmap evaluation, list vs packed wire.

The PR-10 before/after instruments.  ``run_kernel_comparison`` times
the same queries through both sides of :func:`repro.rpq.eval_rpq`
(with an :class:`~repro.rpq.OpCounters` attached it is the counted
tuple-set BFS, without one the interned-bitmap product BFS) and asserts
the answers identical -- a benchmark run is also an identity check.
``run_wire_comparison`` measures the JSON byte footprint of the same
pair relation under the list and ``packed`` encodings of
:mod:`repro.server.protocol`.

A query cell is *closure-heavy* when its regex contains a Kleene
closure -- those are the cells the bitmap kernel is for (frontier
OR-sweeps amortise the quadratic closure walk), and the cells the
fig10/fig11 before/after gate is measured on.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence

from bench_common import format_ratio
from repro.formatting import format_seconds, format_table
from repro.graph.multigraph import LabeledMultigraph
from repro.rpq import OpCounters, eval_rpq
from repro.server import protocol

__all__ = [
    "closure_heavy",
    "format_kernel_rows",
    "format_wire_rows",
    "run_kernel_comparison",
    "run_wire_comparison",
]


def closure_heavy(query: str) -> bool:
    """Does the query contain a Kleene closure (``+``/``*``)?"""
    return "+" in query or "*" in query


def run_kernel_comparison(
    graph: LabeledMultigraph,
    queries: Sequence[str],
    repeats: int = 3,
) -> list[dict]:
    """Time each query under both kernels; best-of-``repeats`` per cell.

    Every cell's two answers are checked identical, so a divergent
    kernel fails the benchmark rather than producing a fast wrong row.
    """
    rows: list[dict] = []
    for query in queries:
        timings = {}
        answers = {}
        for kernel in ("sets", "bits"):
            best = float("inf")
            for _ in range(repeats):
                counters = OpCounters() if kernel == "sets" else None
                started = time.perf_counter()
                answers[kernel] = eval_rpq(graph, query, counters=counters)
                best = min(best, time.perf_counter() - started)
            timings[kernel] = best
        if answers["sets"] != answers["bits"]:
            raise AssertionError(
                f"kernel divergence on {query!r}: "
                f"{len(answers['sets'])} set pairs vs "
                f"{len(answers['bits'])} bitmap pairs"
            )
        rows.append(
            {
                "query": query,
                "closure_heavy": closure_heavy(query),
                "pairs": len(answers["bits"]),
                "sets_seconds": timings["sets"],
                "bits_seconds": timings["bits"],
                "speedup": timings["sets"] / max(timings["bits"], 1e-12),
            }
        )
    return rows


def run_wire_comparison(relations: dict[str, set]) -> list[dict]:
    """JSON byte footprint of each relation, list vs packed encoding."""
    rows: list[dict] = []
    for name, pairs in relations.items():
        as_list = len(json.dumps(protocol.pairs_to_wire(pairs, enc="list")))
        as_packed = len(json.dumps(protocol.pairs_to_wire(pairs, enc="packed")))
        rows.append(
            {
                "relation": name,
                "pairs": len(pairs),
                "list_bytes": as_list,
                "packed_bytes": as_packed,
                "reduction": as_list / max(as_packed, 1),
            }
        )
    return rows


def format_kernel_rows(rows: list[dict]) -> str:
    headers = ["query", "closure", "pairs", "sets", "bits", "speedup"]
    body = [
        [
            row["query"],
            "yes" if row["closure_heavy"] else "no",
            str(row["pairs"]),
            format_seconds(row["sets_seconds"]),
            format_seconds(row["bits_seconds"]),
            format_ratio(row["speedup"]),
        ]
        for row in rows
    ]
    return "kernel before/after (sets vs bits)\n" + format_table(headers, body)


def format_wire_rows(rows: list[dict]) -> str:
    headers = ["relation", "pairs", "list bytes", "packed bytes", "reduction"]
    body = [
        [
            row["relation"],
            str(row["pairs"]),
            str(row["list_bytes"]),
            str(row["packed_bytes"]),
            format_ratio(row["reduction"]),
        ]
        for row in rows
    ]
    return "wire encoding (list vs packed)\n" + format_table(headers, body)
