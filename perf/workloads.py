"""The four workloads: how each sets the program up, runs one pass, and
checks the answers.

A workload hands the generated edge list to the program's public API
and times it from outside.  ``set_up`` is what ``setup_s`` measures (from
edge list to the warm-up list answered once); ``run_pass`` replays the
fixed op script once.  Sizes live in :data:`SPECS`; ``README.md`` says why
each workload exists and which layers carry its time.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster import ClusterConfig, ClusterRouter, GraphCluster
from repro.db import GraphDB
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import get_registry
from repro.server import Client, ServerConfig, ServerThread

from inputs import Inputs

#: Measured sizes (this sandbox, one core): a pass takes 1-2 s, so a 12 s
#: run holds 6-12 passes; every pass carries >= 100 read samples.
SPECS = {
    "batch_sets": dict(
        name="batch_sets", scale=8, edges=1024, labels=4, sets=100,
        lengths=(1, 2, 3), rpqs=3, warmup_sets=34, setup_repeats=5,
    ),
    "serve_pairs": dict(
        name="serve_pairs", scale=7, edges=1024, labels=4, sets=6,
        lengths=(1, 2, 3), rpqs=4, clients=2, ops_per_client=50,
        setup_repeats=5,
    ),
    "serve_mixed": dict(
        name="serve_mixed", scale=8, edges=1024, labels=4, sets=6,
        lengths=(1, 2, 3), rpqs=4, clients=2, ops_per_client=96,
        # Writes every 16th op: a third of the reads then miss the RTC cache,
        # so p50 sits inside the warm class and p90 inside the rebuild
        # class (every 8th put p50 on the boundary between them).  12
        # updates per pass, hence one checkpoint per pass.
        update_every=16, checkpoint_every=12, setup_repeats=5,
    ),
    "cluster_cut": dict(
        name="cluster_cut", scale=7, edges=256, labels=3, sets=12,
        lengths=(1, 2, 2, 2), rpqs=2, clients=2, ops_per_client=58,
        update_every=8, connected=True, setup_repeats=3,
    ),
}

#: ``--smoke``: the same code paths at sizes a test can afford.
SMOKE = dict(scale=5, edges=96, sets=4, warmup_sets=2, ops_per_client=16, setup_repeats=1)


def spec_for(name: str, smoke: bool) -> dict:
    spec = dict(SPECS[name])
    if smoke:
        spec.update({key: value for key, value in SMOKE.items() if key in spec})
    return spec


def pair_digest(pairs) -> str:
    """Order-independent fingerprint of an answer's vertex pairs."""
    lines = sorted(f"{source}\t{target}" for source, target in pairs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def oracle_answers(edges, queries) -> tuple[dict, float]:
    """``{query: (count, pair digest)}`` from a fresh no-sharing session.

    The ``no`` engine shares nothing and builds no RTC, so it is the
    reference the sharing pipeline must agree with.  Also returns the
    wall seconds spent, the paper's No-sharing cost on the same queries.
    """
    started = time.perf_counter()
    with GraphDB.open(LabeledMultigraph.from_edges(edges), engine="no") as db:
        answers = {}
        for query in queries:
            pairs = db.execute(query).pairs
            answers[query] = (len(pairs), pair_digest(pairs))
    return answers, time.perf_counter() - started


def registry_counters() -> dict:
    """The program's always-on counters, flattened to ``name.label: value``."""
    flat = {}
    for name, series in get_registry().snapshot().items():
        for labels, value in series.items():
            flat[".".join((name, *labels))] = value
    return flat


@dataclass
class PassResult:
    """One replay of the op script."""

    elapsed: float = 0.0
    reads: list = field(default_factory=list)  # client-observed seconds
    updates: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Traced passes only: ``{span name: [seconds, ...]}`` from responses.
    spans: dict = field(default_factory=dict)

    def absorb_trace(self, trace: dict | None) -> None:
        for span in (trace or {}).get("spans", ()):
            self.spans.setdefault(span["name"], []).append(span["dur"])

    def absorb(self, other: "PassResult") -> None:
        """Add another client's (or pass's) samples to these."""
        self.reads += other.reads
        self.updates += other.updates
        self.attempted += other.attempted
        self.failed += other.failed
        for name, durations in other.spans.items():
            self.spans.setdefault(name, []).extend(durations)


class BatchSets:
    """The paper's Experiment 1/2 unit on the library, no server."""

    pairs = False  # nothing goes on a wire
    recover_seconds = 0.0  # nothing is stored

    def __init__(self, spec: dict, inputs: Inputs, work_dir: Path) -> None:
        self.spec, self.inputs, self.work_dir = spec, inputs, work_dir
        self.graph: LabeledMultigraph | None = None
        self.expected: dict = {}
        self.cache_hits = self.cache_misses = 0

    @property
    def distinct_queries(self) -> list[str]:
        return sorted({query for queries in self.inputs.sets for query in queries})

    def set_up(self) -> None:
        self.graph = LabeledMultigraph.from_edges(self.inputs.edges)
        for queries in self.inputs.sets[: self.spec["warmup_sets"]]:
            self._answer(queries)

    def tear_down(self) -> None:
        self.graph = None

    def _answer(self, queries: list[str]) -> list:
        with GraphDB.open(self.graph, engine="rtc") as db:
            results = db.execute_many(queries)
            stats = db.engine.rtc_cache.snapshot_stats()
            self.cache_hits += stats.hits
            self.cache_misses += stats.misses
        return results

    def verify(self, expected: dict) -> int:
        """Full answers (count + pairs) of every set against the oracle."""
        self.expected = expected
        failed = 0
        for queries in self.inputs.sets:
            for query, result in zip(queries, self._answer(queries)):
                if (len(result.pairs), pair_digest(result.pairs)) != expected[query]:
                    failed += 1
        return failed

    def run_pass(self, traced: bool = False) -> PassResult:
        outcome = PassResult()
        pass_started = time.perf_counter()
        for queries in self.inputs.sets:
            started = time.perf_counter()
            results = self._answer(queries)
            outcome.reads.append(time.perf_counter() - started)
            outcome.attempted += 1
            if any(
                len(result) != self.expected[query][0]
                for query, result in zip(queries, results)
            ):
                outcome.failed += 1
            if traced:
                for result in results:
                    for phase, seconds in result.phase_times.items():
                        outcome.spans.setdefault(phase, []).append(seconds)
        outcome.elapsed = time.perf_counter() - pass_started
        return outcome

    def final_check(self) -> int:
        return 0  # read-only: every response was already checked

    def counters(self) -> dict:
        """Cumulative counts; the ledger reports their change over the passes."""
        return {
            **registry_counters(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


class Served:
    """Closed loop of client threads against an in-process TCP server."""

    pairs = False  # counts-only reads unless a subclass says otherwise
    recover_seconds = 0.0  # set by the durable subclass's reopen check

    def __init__(self, spec: dict, inputs: Inputs, work_dir: Path) -> None:
        self.spec, self.inputs, self.work_dir = spec, inputs, work_dir
        self.expected: dict = {}
        self.handle: ServerThread | None = None
        self.clients: list[Client] = []
        self.present = [False] * len(inputs.toggle_edges)
        self.data_dir: Path | None = None

    @property
    def distinct_queries(self) -> list[str]:
        return self.inputs.queries

    def _start_server(self, graph: LabeledMultigraph) -> ServerThread:
        """Build the program over ``graph``; set ``self.close_program``."""
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------
    def set_up(self) -> None:
        graph = LabeledMultigraph.from_edges(self.inputs.edges)
        self.handle = self._start_server(graph).start()
        self.clients = [
            Client(*self.handle.address) for _ in range(self.spec["clients"])
        ]
        if self.inputs.toggle_edges:  # a deployment that takes writes watches
            for body in self.inputs.bodies:
                self.clients[0].watch(body)
        for query in self.inputs.queries:
            self.clients[0].query(query, pairs=self.pairs)

    def stop_serving(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
            self.close_program()

    def tear_down(self) -> None:
        self.stop_serving()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None
        self.present = [False] * len(self.inputs.toggle_edges)

    # -- correctness ------------------------------------------------------
    def _served_mismatches(self, expected: dict) -> int:
        failed = 0
        for query in self.inputs.queries:
            result = self.clients[0].query(query, pairs=True)
            if (result.count, pair_digest(result.pairs)) != expected[query]:
                failed += 1
        return failed

    def verify(self, expected: dict) -> int:
        self.expected = expected
        return self._served_mismatches(expected)

    def final_edges(self) -> list[tuple]:
        """The graph the acked updates must have produced."""
        return list(self.inputs.edges) + [
            edge for edge, present in zip(self.inputs.toggle_edges, self.present) if present
        ]

    def final_check(self) -> int:
        """Quiesced answers must equal a fresh session over the final graph."""
        if not self.inputs.toggle_edges:
            return 0
        expected, _seconds = oracle_answers(self.final_edges(), self.inputs.queries)
        return self._served_mismatches(expected)

    # -- one pass ---------------------------------------------------------
    def run_pass(self, traced: bool = False) -> PassResult:
        logs = [PassResult() for _ in self.clients]
        barrier = threading.Barrier(len(self.clients) + 1)
        threads = [
            threading.Thread(target=self._client_loop, args=(index, logs[index], barrier, traced))
            for index in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        outcome = PassResult(elapsed=time.perf_counter() - started)
        for log in logs:
            outcome.absorb(log)
        return outcome

    def _client_loop(self, index: int, log: PassResult, barrier, traced: bool) -> None:
        client = self.clients[index]
        check_counts = not self.inputs.toggle_edges  # counts move under writes
        trace = True if traced else None
        barrier.wait()
        for kind, argument in self.inputs.scripts[index]:
            log.attempted += 1
            started = time.perf_counter()
            try:
                if kind == "q":
                    query = self.inputs.queries[argument]
                    results, response = client.query_call(
                        [query], pairs=self.pairs, trace=trace
                    )
                    log.reads.append(time.perf_counter() - started)
                    if check_counts and results[0].count != self.expected[query][0]:
                        log.failed += 1
                else:
                    edge = self.inputs.toggle_edges[argument]
                    if self.present[argument]:
                        response = client.update(remove=[edge], trace=trace)
                    else:
                        response = client.update(add=[edge], trace=trace)
                    self.present[argument] = not self.present[argument]
                    log.updates.append(time.perf_counter() - started)
                if traced:
                    log.absorb_trace(response.get("trace"))
            except Exception:  # noqa: BLE001 -- a failed, refused or expired request is a counted outcome, not a crash
                log.failed += 1

    def counters(self) -> dict:
        """Cumulative counts; the ledger reports their change over the passes."""
        scheduler = self.clients[0].stats()["scheduler"]
        cache = scheduler.get("cache", {})
        return {
            **registry_counters(),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "batches": scheduler["batches"],
            "batched_queries": scheduler["mean_batch_size"] * scheduler["batches"],
            "rejected": scheduler["rejected"],
        }


class ServePairs(Served):
    """Read-only serving from a warm cache, full pair results on the wire."""

    pairs = True

    def _start_server(self, graph):
        db = GraphDB.open(graph, engine="rtc")
        self.close_program = db.close
        return ServerThread(db, ServerConfig(workers=2, batch_window=0.002))


class ServeMixed(Served):
    """The same server made durable and written to (every 16th op)."""

    def _start_server(self, graph):
        self.data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=self.work_dir))
        db = GraphDB.open(
            graph,
            engine="rtc",
            storage=self.data_dir,
            checkpoint_every=self.spec["checkpoint_every"],
        )
        self.close_program = db.close
        return ServerThread(db, ServerConfig(workers=2, batch_window=0.002))

    def final_check(self) -> int:
        return super().final_check() + self.reopen_check()

    def reopen_check(self) -> int:
        """Every acked update must survive a reopen of the data directory."""
        self.stop_serving()
        started = time.perf_counter()
        with GraphDB.open(None, engine="rtc", storage=self.data_dir) as recovered:
            self.recover_seconds = time.perf_counter() - started
            return int(set(recovered.graph.edges()) != set(self.final_edges()))


class ClusterCut(Served):
    """Two edge-cut shards behind a router: every read runs the boundary join."""

    def _start_server(self, graph):
        cluster = GraphCluster.open(
            graph,
            engine="rtc",
            config=ClusterConfig(
                shards=2,
                replicas=1,
                workers=2,
                batch_window=0.002,
                backend="thread",
                partition_strategy="edge-cut",
            ),
            start=False,
        )
        self.close_program = cluster.stop
        return ServerThread(ClusterRouter(cluster, ServerConfig()))


WORKLOADS = {
    "batch_sets": BatchSets,
    "serve_pairs": ServePairs,
    "serve_mixed": ServeMixed,
    "cluster_cut": ClusterCut,
}
