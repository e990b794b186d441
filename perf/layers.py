"""The per-layer ledger of a traced run, measured from outside the program.

Three sources, none of them new code inside the program:

* **spans** the program already returns on the wire when a request
  carries ``"trace": true`` (collected per traced pass by ``workloads``);
* **counters** the program already keeps (the ``stats`` verb and the
  metrics registry), read before and after the measured passes;
* **probes**: timed calls into one layer's public functions on this
  workload's own graph and queries, with fixed counts so the numbers
  marked *exact* repeat bit for bit.

A layer that is not on a workload's path is measured by a *probe pass*:
a short traced replay of the workload's own queries through a deployment
that has the layer (:func:`probe_traffic`).  ``README.md`` maps every
name to the end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

from repro.cluster import ClusterConfig, GraphCluster, partition_graph
from repro.core import compute_rtc, edge_level_reduce
from repro.db import GraphDB
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.parser import parse
from repro.rpq.label_join import eval_label_sequence
from repro.server import protocol

from inputs import Inputs, client_scripts, toggle_edges
from measure import mean, percentile
from workloads import ClusterCut, PassResult, ServeMixed

#: Every per-layer metric and its unit; ``BENCHMARK.json`` lists the same.
LAYER_METRICS = {
    "regex.parse_us": "us",
    "core.plan_us": "us",
    "graph.build_ms": "ms",
    "db.open_ms": "ms",
    "core.reduce_ms": "ms",
    "core.rtc_build_ms": "ms",
    "core.rtc_builds_per_pass": "count",
    "core.rtc_cache_hit_rate": "ratio",
    "core.rtc_pairs": "count",
    "core.reduced_vertex_ratio": "ratio",
    "core.pre_join_ms": "ms",
    "core.remainder_ms": "ms",
    "rpq.label_seq_ms": "ms",
    "core.no_sharing_ms": "ms",
    "bitset.materialise_ms": "ms",
    "bitset.result_pairs": "count",
    "db.execute_ms": "ms",
    "db.update_ms": "ms",
    "core.watch_update_ms": "ms",
    "server.admission_wait_ms": "ms",
    "server.batch_wait_ms": "ms",
    "server.evaluate_ms": "ms",
    "server.batch_size_mean": "count",
    "server.encode_ms": "ms",
    "server.decode_ms": "ms",
    "server.response_bytes": "bytes",
    "server.response_bytes_packed": "bytes",
    "server.unattributed_ms": "ms",
    "server.unattributed_share": "ratio",
    "server.update_ms_p50": "ms",
    "server.update_drain_ms": "ms",
    "server.update_apply_ms": "ms",
    "server.rejected": "count",
    "cluster.partition_ms": "ms",
    "cluster.open_ms": "ms",
    "cluster.cut_edges": "count",
    "cluster.partial_ms": "ms",
    "cluster.join_rounds": "count",
    "cluster.join_round_ms": "ms",
    "cluster.join_ms": "ms",
    "cluster.join_cache_hit_rate": "ratio",
    "cluster.update_ms_p50": "ms",
    "storage.wal_append_ms": "ms",
    "storage.wal_bytes_per_update": "bytes",
    "storage.checkpoint_ms": "ms",
    "storage.bytes_per_edge": "bytes",
    "storage.recover_ms": "ms",
    "obs.trace_overhead_share": "ratio",
}

#: Probes touch at most this many distinct queries / closure bodies.
PROBE_LIMIT = 24
#: A probe pass: 2 clients x 8 ops over 6 queries, every 4th op an update.
PROBE_QUERIES = 6
PROBE_SPEC = dict(clients=2, ops_per_client=8, update_every=4, checkpoint_every=2)
PROBE_EDGE = ("bench-probe-a", "l0", "bench-probe-b")


def timed_ms(function, *arguments) -> tuple[float, object]:
    started = time.perf_counter()
    value = function(*arguments)
    return (time.perf_counter() - started) * 1e3, value


def library_probes(edges, queries, bodies, requests: int, oracle_seconds: float) -> dict:
    """Timed calls into regex / graph / core / rpq / bitset / db."""
    out: dict = {}
    nodes = [parse(query) for query in queries]
    out["regex.parse_us"] = mean(timed_ms(parse, q)[0] for q in queries * 5) * 1e3
    out["graph.build_ms"] = mean(
        timed_ms(LabeledMultigraph.from_edges, edges)[0] for _ in range(3)
    )
    graph = LabeledMultigraph.from_edges(edges)
    opens = []
    for _ in range(5):
        elapsed, session = timed_ms(GraphDB.open, graph, "rtc")
        opens.append(elapsed)
        session.close()
    out["db.open_ms"] = mean(opens)

    reduce_ms, build_ms, rtc_pairs, condensed = [], [], 0, 0
    for body in bodies:
        elapsed, reduced = timed_ms(edge_level_reduce, graph, body)
        reduce_ms.append(elapsed)
        elapsed, rtc = timed_ms(compute_rtc, reduced)
        build_ms.append(elapsed)
        rtc_pairs += rtc.num_pairs
        condensed += rtc.num_sccs
    out["core.reduce_ms"] = mean(reduce_ms)
    out["core.rtc_build_ms"] = mean(build_ms)
    out["core.rtc_pairs"] = rtc_pairs
    out["core.reduced_vertex_ratio"] = condensed / (len(bodies) * graph.num_vertices)
    out["rpq.label_seq_ms"] = mean(
        timed_ms(eval_label_sequence, graph, body.split("."))[0] for body in bodies
    )
    out["core.no_sharing_ms"] = oracle_seconds * 1e3 / requests

    with GraphDB.open(graph, engine="rtc") as db:
        out["core.plan_us"] = mean(timed_ms(db.prepare, q)[0] for q in queries * 5) * 1e3
        materialise, result_pairs = [], 0
        for node in nodes:
            packed = db.engine.evaluate(node)
            to_pairs = getattr(packed, "to_pairs", None)
            elapsed, pairs = timed_ms(to_pairs if to_pairs else lambda p=packed: set(p))
            materialise.append(elapsed)
            result_pairs += len(pairs)
        out["bitset.materialise_ms"] = mean(materialise)
        out["bitset.result_pairs"] = result_pairs
        out["db.execute_ms"] = mean(timed_ms(db.execute, q)[0] for q in queries)

    def toggle_cost(watch: bool) -> float:
        with GraphDB.open(LabeledMultigraph.from_edges(edges), engine="rtc") as db:
            if watch:
                for body in bodies[:6]:
                    db.watch(body)
            costs = []
            for _ in range(5):
                costs.append(timed_ms(lambda: db.update(add=[PROBE_EDGE]))[0])
                costs.append(timed_ms(lambda: db.update(remove=[PROBE_EDGE]))[0])
            return mean(costs)

    out["db.update_ms"] = toggle_cost(watch=False)
    out["core.watch_update_ms"] = toggle_cost(watch=True)
    return out


def wire_probes(edges, queries, with_pairs: bool) -> dict:
    """Encode / decode of the responses this workload's reads ship."""
    encode_ms, decode_ms, size, size_packed = [], [], 0, 0
    with GraphDB.open(LabeledMultigraph.from_edges(edges), engine="rtc") as db:
        for query in queries:
            pairs = db.execute(query).pairs

            def encode(enc=None):
                entry = {"query": query, "count": len(pairs), "time": 0.0}
                if with_pairs:
                    entry["pairs"] = protocol.pairs_to_wire(pairs, enc=enc)
                return protocol.encode(protocol.ok_response(1, results=[entry]))

            def decode(line):
                entry = protocol.decode_line(line)["results"][0]
                return protocol.wire_to_pairs(entry["pairs"]) if with_pairs else None

            elapsed, line = timed_ms(encode)
            encode_ms.append(elapsed)
            decode_ms.append(timed_ms(decode, line)[0])
            size += len(line)
            size_packed += len(encode("packed"))
    return {
        "server.encode_ms": mean(encode_ms),
        "server.decode_ms": mean(decode_ms),
        "server.response_bytes": size,
        "server.response_bytes_packed": size_packed,
    }


def cluster_probes(edges) -> dict:
    graph = LabeledMultigraph.from_edges(edges)
    partition_ms = [
        timed_ms(partition_graph, graph, 2, "edge-cut")[0] for _ in range(3)
    ]
    config = ClusterConfig(shards=2, replicas=1, partition_strategy="edge-cut")
    open_ms = []
    for _ in range(2):
        elapsed, cluster = timed_ms(
            GraphCluster.open, LabeledMultigraph.from_edges(edges), "rtc", config
        )
        open_ms.append(elapsed)
        cut_edges = len(cluster.partition.cut_relation())
        cluster.stop()
    return {
        "cluster.partition_ms": mean(partition_ms),
        "cluster.open_ms": mean(open_ms),
        "cluster.cut_edges": cut_edges,
    }


def storage_probes(edges, bodies, work_dir: Path) -> dict:
    """WAL and checkpoint footprint of one durable session, read off disk."""
    with tempfile.TemporaryDirectory(dir=work_dir) as directory:
        with GraphDB.open(
            LabeledMultigraph.from_edges(edges), engine="rtc", storage=directory
        ) as db:
            for body in bodies[:6]:
                db.watch(body)
                db.execute(f"({body})+")
            wal = Path(directory) / "wal.jsonl"
            before = wal.stat().st_size
            db.update(add=[PROBE_EDGE])
            db.update(remove=[PROBE_EDGE])
            wal_bytes = (wal.stat().st_size - before) / 2
            checkpoint_ms = [timed_ms(db.checkpoint)[0] for _ in range(3)]
            snapshot = sum(
                path.stat().st_size for path in Path(directory).glob("snapshot-*.edges")
            )
    return {
        "storage.wal_bytes_per_update": wal_bytes,
        "storage.checkpoint_ms": mean(checkpoint_ms),
        "storage.bytes_per_edge": snapshot / len(edges),
    }


@dataclass
class Traffic:
    """What a stretch of traced traffic showed, from outside."""

    spans: dict  # span name -> [seconds], from the traced requests' responses
    reads: list  # client-observed seconds of the traced reads
    updates: list  # client-observed seconds of the updates
    deltas: dict  # program counters: change over ``counted_reads`` reads
    counted_reads: int
    recover_seconds: float = 0.0

    def span_mean_ms(self, name: str) -> tuple[float, int]:
        durations = self.spans.get(name, [])
        return mean(durations) * 1e3, len(durations)

    def span_per_read_ms(self, *names: str) -> tuple[float, int]:
        total = sum(sum(self.spans.get(name, ())) for name in names)
        return total * 1e3 / len(self.reads), len(self.reads)


def counter_deltas(before: dict, after: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def probe_traffic(workload_class, inputs, queries, work_dir: Path) -> Traffic:
    """One short traced pass of these queries through another deployment.

    A workload whose own traffic never reaches a layer (``batch_sets``
    has no server, ``serve_pairs`` no writes, only ``cluster_cut`` a
    router) still reports that layer: what it costs to push this
    workload's graph and queries through it.  Context for reading the
    ledger, not part of the workload's own cost.
    """
    queries = queries[:PROBE_QUERIES]
    clients = PROBE_SPEC["clients"]
    probe_inputs = Inputs(
        inputs.edges,
        inputs.num_labels,
        queries=queries,
        bodies=inputs.bodies[:6],
        scripts=client_scripts(
            Random(0), len(queries), clients,
            PROBE_SPEC["ops_per_client"], PROBE_SPEC["update_every"],
        ),
        toggle_edges=toggle_edges(inputs.edges, inputs.num_labels, clients),
    )
    probe = workload_class(PROBE_SPEC, probe_inputs, work_dir)
    try:
        probe.set_up()
        before = probe.counters()
        outcome = probe.run_pass(traced=True)
        deltas = counter_deltas(before, probe.counters())
        if workload_class is ServeMixed:
            probe.reopen_check()
    finally:
        probe.tear_down()
    return Traffic(
        outcome.spans, outcome.reads, outcome.updates, deltas, len(outcome.reads),
        probe.recover_seconds,
    )


def layer_ledger(workload, inputs, plain, with_trace, before, after, oracle_seconds):
    """``(per-layer metrics, latency ledger)`` of one traced run."""
    queries = workload.distinct_queries[:PROBE_LIMIT]
    bodies = inputs.bodies[:PROBE_LIMIT]
    values = dict.fromkeys(LAYER_METRICS, 0.0)
    samples: dict = {}

    def put(target: str, measured: tuple[float, int]) -> None:
        values[target], samples[target] = measured

    requests = len(inputs.sets) if inputs.sets else len(workload.distinct_queries)
    values.update(library_probes(inputs.edges, queries, bodies, requests, oracle_seconds))
    values.update(wire_probes(inputs.edges, queries, workload.pairs))
    values.update(cluster_probes(inputs.edges))
    values.update(storage_probes(inputs.edges, bodies, workload.work_dir))

    # The workload's own traffic, and probe passes for the layers it skips.
    traced = PassResult()
    for outcome in with_trace:
        traced.absorb(outcome)
    own = Traffic(
        traced.spans,
        traced.reads,
        [u for p in plain + with_trace for u in p.updates],
        counter_deltas(before, after),
        sum(len(p.reads) for p in plain + with_trace),
        workload.recover_seconds,
    )
    mixed = own if isinstance(workload, ServeMixed) else probe_traffic(
        ServeMixed, inputs, queries, workload.work_dir
    )
    cluster = own if isinstance(workload, ClusterCut) else probe_traffic(
        ClusterCut, inputs, queries, workload.work_dir
    )
    scheduled = own if "admission_wait" in own.spans else mixed
    # The library reports its timer keys, the server the public span
    # names of the same three engine phases.
    engine = own if "remainder" in own.spans else mixed

    passes = len(plain) + len(with_trace)
    lookups = own.deltas["cache_hits"] + own.deltas["cache_misses"]
    values["core.rtc_builds_per_pass"] = own.deltas["cache_misses"] / passes
    values["core.rtc_cache_hit_rate"] = own.deltas["cache_hits"] / lookups if lookups else 0.0
    put("core.pre_join_ms", engine.span_per_read_ms("pre_join", "pre_join_rtc"))
    put("core.remainder_ms", engine.span_per_read_ms("remainder"))

    put("server.admission_wait_ms", scheduled.span_mean_ms("admission_wait"))
    put("server.batch_wait_ms", scheduled.span_mean_ms("batch_wait"))
    put("server.evaluate_ms", scheduled.span_mean_ms("evaluate"))
    values["server.batch_size_mean"] = (
        scheduled.deltas["batched_queries"] / scheduled.deltas["batches"]
    )
    values["server.rejected"] = scheduled.deltas["rejected"]
    # Ledger: what the client waited for = the server's sequential spans
    # + the wire work measured by the probes + the rest (loop hops,
    # sockets, the GIL held by the other client's request).
    client_mean = mean(scheduled.reads) * 1e3
    parts = {
        key: values[f"server.{key}_ms"]
        for key in ("admission_wait", "batch_wait", "evaluate", "encode", "decode")
    }
    rest = client_mean - sum(parts.values())
    values["server.unattributed_ms"] = rest
    values["server.unattributed_share"] = rest / client_mean
    ledger = {
        "traffic": "own" if scheduled is own else "probe pass",
        "parts_ms": parts,
        "unattributed_ms": rest,
        "client_mean_ms": client_mean,
        # Parts are disjoint intervals inside the request, so they may
        # not add up to more than the client saw.
        "closed": rest >= -0.05 * client_mean,
    }

    put("server.update_ms_p50", (percentile(mixed.updates, 0.5) * 1e3, len(mixed.updates)))
    put("server.update_drain_ms", mixed.span_mean_ms("update_drain"))
    put("server.update_apply_ms", mixed.span_mean_ms("update_apply"))
    appends = mixed.deltas["repro_wal_appends_total"]
    put(
        "storage.wal_append_ms",
        (mixed.deltas["repro_phase_seconds_total.wal"] * 1e3 / appends, int(appends)),
    )
    values["storage.recover_ms"] = mixed.recover_seconds * 1e3

    put("cluster.update_ms_p50", (percentile(cluster.updates, 0.5) * 1e3, len(cluster.updates)))
    put("cluster.partial_ms", cluster.span_mean_ms("partial"))
    put("cluster.join_round_ms", cluster.span_mean_ms("join_round"))
    values["cluster.join_rounds"] = len(cluster.spans.get("join_round", ())) / len(cluster.reads)
    values["cluster.join_ms"] = (
        cluster.deltas.get("repro_phase_seconds_total.join", 0.0) * 1e3 / cluster.counted_reads
    )
    values["cluster.join_cache_hit_rate"] = (
        cluster.deltas.get("repro_join_cache_hits_total", 0.0) / cluster.counted_reads
    )

    plain_qps = statistics.median(p.attempted / p.elapsed for p in plain)
    traced_qps = statistics.median(p.attempted / p.elapsed for p in with_trace)
    values["obs.trace_overhead_share"] = 1 - traced_qps / plain_qps

    metrics = {}
    for key, unit in LAYER_METRICS.items():
        metrics[key] = {"value": values[key], "unit": unit}
        if key in samples:
            metrics[key]["samples"] = samples[key]
    return metrics, ledger
