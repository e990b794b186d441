"""The cluster rows of the benchmark ledger must keep being fed.

``perf/layers.py`` computes ``cluster.partial_ms``,
``cluster.join_round_ms``, ``cluster.join_rounds``, ``cluster.join_ms``
and ``cluster.join_cache_hit_rate`` from span names and registry
counters the program emits.  A PR that claims a gain may not edit
``perf/``, and a missing name does not fail there -- it reads as zero,
i.e. as a spectacular win.  So the names are pinned from this side: one
traced edge-cut read on a tiny thread cluster must produce every span
and move every counter the ledger reads, and the ledger may not start
reading a cluster name this test does not cover.

The wire rows (``server.encode_ms`` / ``decode_ms`` / ``response_bytes*``)
come from ``wire_probes`` calling :mod:`repro.server.protocol` directly
on a tuple set, so the calls it makes are pinned here too -- together
with the ``encode`` span a traced read carries, which is what a later
``[benchmark]`` PR re-points those rows at.
"""

import re
from pathlib import Path

from repro.cluster import ClusterConfig, ClusterRouter, GraphCluster, partition_graph
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import get_registry
from repro.server import Client, ServerConfig, ServerThread, protocol

LAYERS = Path(__file__).resolve().parent.parent / "perf" / "layers.py"

#: What this test exercises, in the spelling ``perf/layers.py`` reads.
COVERED_SPANS = {"partial", "join_round"}
COVERED_COUNTERS = {
    "repro_phase_seconds_total.join",
    "repro_join_cache_hits_total",
}

_CLUSTER_READ = re.compile(
    r"""cluster\.(?:span_mean_ms|spans\.get|deltas\.get)\(\s*"([^"]+)\""""
)


def counters() -> dict:
    """The registry flattened to ``name.label: value``, as perf reads it."""
    flat = {}
    for name, series in get_registry().snapshot().items():
        for labels, value in series.items():
            flat[".".join((name, *labels))] = value
    return flat


def test_ledger_reads_only_covered_cluster_names():
    read = set(_CLUSTER_READ.findall(LAYERS.read_text(encoding="utf-8")))
    assert read, "the scan must see perf/layers.py's cluster reads"
    assert read <= COVERED_SPANS | COVERED_COUNTERS


def test_traced_edge_cut_read_feeds_every_cluster_ledger_row():
    graph = LabeledMultigraph.from_edges(
        [(0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 0), (1, "b", 3)]
    )
    cluster = GraphCluster(
        partition_graph(graph, 2, strategy="edge-cut"),
        config=ClusterConfig(shards=2, workers=1),
        start=False,
    )
    assert cluster.partition.has_cuts
    router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
    with ServerThread(router) as handle, Client(*handle.address) as client:
        before = counters()
        result, trace = client.query_traced("(a)+")
        cold = counters()
        client.query_traced("(a)+")
        warm = counters()
    assert result.count == 16

    spans = trace["spans"]
    (request,) = [span for span in spans if span["name"] == "request"]
    (encode,) = [span for span in spans if span["name"] == "encode"]
    assert encode["parent"] == request["id"] and encode["dur"] > 0
    # Four starts sharing one one-digit row: the row once ('"f":[' is
    # 1 + 4 bytes) and two bytes a start.
    assert encode["attrs"] == {"rows": 4, "floor_bytes": 1 + 4 + 2 * 4}
    rounds = [span for span in spans if span["name"] == "join_round"]
    assert len(rounds) == 1  # one shard round per executed join
    assert rounds[0]["attrs"]["round"] == 0
    assert rounds[0]["dur"] > 0
    partials = [span for span in spans if span["name"] == "partial"]
    assert partials and all(
        span["parent"] == rounds[0]["id"] and span["dur"] > 0 for span in partials
    )
    assert rounds[0]["attrs"]["shards"] == len(partials)

    def moved(key, earlier, later):
        return later.get(key, 0) - earlier.get(key, 0)

    assert moved("repro_phase_seconds_total.join", before, cold) > 0
    assert moved("repro_join_rounds_total", before, cold) == 1
    assert moved("repro_join_cache_hits_total", before, cold) == 0
    # The identical second read is served from the join cache.
    assert moved("repro_join_cache_hits_total", cold, warm) == 1
    assert moved("repro_join_rounds_total", cold, warm) == 0


def test_wire_probe_calls_keep_their_shape():
    """What ``perf/layers.py::wire_probes`` does, on the default encoding."""
    pairs = frozenset({(0, 1), (1, "b"), ("b", 0)})
    entry = {"query": "q", "count": len(pairs), "time": 0.0}
    entry["pairs"] = protocol.pairs_to_wire(pairs, enc=None)
    assert entry["pairs"] == protocol.pairs_to_wire(pairs, enc="packed")
    line = protocol.encode(protocol.ok_response(1, results=[entry]))
    decoded = protocol.decode_line(line)["results"][0]
    assert protocol.wire_to_pairs(decoded["pairs"]) == pairs
