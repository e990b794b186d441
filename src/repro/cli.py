"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the interactive workflow a downstream user wants
before writing any code; all of them run through the
:class:`~repro.db.GraphDB` session facade:

* ``query``  -- evaluate one or more RPQs against an edge-list file with a
  registered engine (or, with ``--connect host:port``, against a running
  ``repro serve`` instance); prints result pairs (or just counts) and
  timing;
* ``serve``  -- run the concurrent JSON-lines query server of
  :mod:`repro.server` over an edge-list file; with ``--shards N`` /
  ``--replicas R`` the graph is partitioned and served by the
  :mod:`repro.cluster` router instead (same protocol, same clients),
  ``--backend process`` moves each shard into its own worker process for
  multi-core scale-out, and ``--strategy edge-cut`` (or ``auto``) shards
  single-component graphs by recording cross-shard edges in a cut
  relation the router joins over;
* ``reduce`` -- show the two-level reduction statistics of a closure body
  on a graph (the Fig. 12/13 quantities for your own data);
* ``stats``  -- Table-IV style statistics of an edge-list file; with
  ``--connect host:port`` the live stats of a running server instead
  (``--prometheus`` for the metrics registry in Prometheus text format,
  ``--watch N`` to refresh every N seconds);
* ``trace``  -- render trace trees recorded by ``serve
  --slow-query-log`` (or a raw trace JSON) as indented phase breakdowns;
* ``explain``-- show the static RTCSharing evaluation plan of a query
  (DNF clauses, batch-unit decomposition, cache keys);
* ``lint``   -- run the :mod:`repro.analysis` static invariant checker
  over the source tree (lock discipline, async hygiene, wire/error
  registries, WAL-before-ack, observability names, monotonic time);
  ``--select``/``--ignore`` pick rule families, ``--json`` emits the CI
  artifact, ``--explain RPR401`` prints a rule's contract;
* ``dot``    -- render the graph, a reduction, or a query automaton as
  Graphviz DOT text.

``query``, ``stats`` and ``reduce`` accept ``--json`` for machine-
readable output (``query``'s is built on ``ResultSet.to_dict``).  The
``--engine`` option accepts any name in the engine registry; ``--load
module`` imports a Python module first, so third-party engines that call
:func:`repro.db.register_engine` at import time are usable by name.

Examples::

    python -m repro stats graph.txt --json
    python -m repro query graph.txt "a.(b.c)+.c" --engine rtc --show-pairs
    python -m repro query graph.txt "b.c" --load my_engines --engine mine
    python -m repro serve graph.txt --port 7687 --workers 4
    python -m repro serve graph.txt --shards 4 --replicas 2
    python -m repro serve graph.txt --shards 4 --replicas 2 --backend process
    python -m repro serve graph.txt --shards 2 --strategy edge-cut
    python -m repro query --connect 127.0.0.1:7687 "a.(b.c)+.c"
    python -m repro stats --connect 127.0.0.1:7687 --prometheus
    python -m repro serve graph.txt --slow-query-log slow.jsonl
    python -m repro trace slow.jsonl --limit 3
    python -m repro lint src/repro --json
    python -m repro lint --select RPR1,RPR601
    python -m repro lint --explain RPR401
    python -m repro reduce graph.txt "b.c"
    python -m repro dot graph.txt --query "b.c" --view condensation
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from repro.bench.formatting import format_seconds, format_table
from repro.core.reduction import reduce_graph
from repro.core.stats import reduction_stats
from repro.db import GraphDB, available_engines
from repro.errors import ReproError
from repro.graph.io import load_edge_list
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse as parse_query
from repro import viz

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regular path queries with a shared reduced transitive closure",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser(
        "query", help="evaluate RPQs against a graph file or a running server"
    )
    query.add_argument(
        "graph",
        nargs="?",
        help=(
            "edge-list file (source label target); with --connect this is "
            "treated as the first query instead"
        ),
    )
    query.add_argument("queries", nargs="*", help="one or more RPQ strings")
    query.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="send the queries to a running 'repro serve' instance",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline when using --connect",
    )
    query.add_argument(
        "--engine",
        default="rtc",
        metavar="NAME",
        help=(
            "evaluation engine from the registry (default: rtc; "
            f"registered: {', '.join(available_engines())})"
        ),
    )
    query.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="MODULE",
        help=(
            "import a Python module before opening the session "
            "(so it can register third-party engines); repeatable"
        ),
    )
    query.add_argument(
        "--show-pairs",
        action="store_true",
        help="print every result pair instead of just the count",
    )
    query.add_argument(
        "--semantic-cache",
        action="store_true",
        help="share RTCs between language-equal closure bodies",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )

    serve = commands.add_parser(
        "serve", help="run the concurrent JSON-lines query server over a graph"
    )
    serve.add_argument("graph", help="edge-list file (source label target)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7687, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--engine",
        default="rtc",
        metavar="NAME",
        help="evaluation engine from the registry (default: rtc)",
    )
    serve.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="MODULE",
        help="import a Python module first (third-party engines); repeatable",
    )
    serve.add_argument(
        "--semantic-cache",
        action="store_true",
        help="share RTCs between language-equal closure bodies",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="worker threads (default: 4)"
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "partition the graph into N shards behind a cluster router "
            "(default: 1 = single-session server)"
        ),
    )
    serve.add_argument(
        "--strategy",
        choices=["component", "edge-cut", "auto"],
        default="component",
        help=(
            "partition strategy: 'component' keeps weakly-connected "
            "components whole (union merge), 'edge-cut' splits any graph "
            "and the router joins partial paths over the recorded "
            "cross-shard edges, 'auto' picks per graph (default: "
            "component)"
        ),
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="read-only replica sessions per shard (default: 1)",
    )
    serve.add_argument(
        "--backend",
        choices=["thread", "process"],
        default="thread",
        help=(
            "shard transport for a sharded deployment: 'thread' keeps "
            "replica groups in-process, 'process' spawns one worker "
            "process per shard for multi-core scale-out (default: thread)"
        ),
    )
    serve.add_argument(
        "--worker-log-dir",
        metavar="DIR",
        default=None,
        help="write per-shard worker logs here (process backend only)",
    )
    serve.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help=(
            "durable data directory (write-ahead log + snapshots + warm "
            "RTC store); restarting over the same graph file and data "
            "dir recovers every acked update and comes back with "
            "checkpointed closures warm"
        ),
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "auto-checkpoint after every N logged updates "
            "(requires --data-dir; default: manual checkpoints only)"
        ),
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=256,
        help="admission-control queue bound (default: 256)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="longest a batch keeps collecting while every worker is busy; "
        "an idle worker is handed a read at once (default: 0.005)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most jobs collected into one batch while every worker is busy "
        "(default: 64)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="default per-request deadline (0 disables; default: 30)",
    )
    serve.add_argument(
        "--slow-query-log",
        metavar="PATH",
        default=None,
        help=(
            "append completed trace trees (+ explain plans) of requests "
            "slower than the threshold to this JSONL file; enables "
            "server-side tracing of every request (responses unchanged); "
            "inspect with 'repro trace PATH'"
        ),
    )
    serve.add_argument(
        "--slow-query-threshold",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="slow-query log threshold (default: 1.0)",
    )

    reduce = commands.add_parser(
        "reduce", help="show two-level reduction statistics for a closure body"
    )
    reduce.add_argument("graph", help="edge-list file")
    reduce.add_argument("body", help="the closure body R (as in (R)+)")
    reduce.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )

    stats = commands.add_parser(
        "stats",
        help="dataset statistics of a graph, or live stats of a server",
    )
    stats.add_argument(
        "graph",
        nargs="?",
        help="edge-list file (omit when using --connect)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )
    stats.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="show a running server's live stats instead of a file's",
    )
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help=(
            "with --connect: print the server's metrics registry in "
            "Prometheus text exposition format"
        ),
    )
    stats.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --connect: refresh every N seconds until interrupted",
    )

    trace = commands.add_parser(
        "trace",
        help="render recorded trace trees (slow-query log / trace JSON)",
    )
    trace.add_argument(
        "path",
        help=(
            "a slow-query JSONL log written by 'serve --slow-query-log', "
            "or a JSON file holding one trace object"
        ),
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="render only the N slowest entries",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the raw entries as JSON instead of rendering trees",
    )

    explain = commands.add_parser(
        "explain", help="show the RTCSharing evaluation plan of a query"
    )
    explain.add_argument("graph", help="edge-list file")
    explain.add_argument("query", help="the RPQ to plan")

    lint = commands.add_parser(
        "lint",
        help="statically check repro's concurrency/wire/durability contracts",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help=(
            "comma-separated rule ids or family prefixes to run "
            "(e.g. RPR101 or RPR1); repeatable"
        ),
    )
    lint.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule ids or family prefixes to skip; repeatable",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of file:line text",
    )
    lint.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print a rule's rationale and exit (e.g. --explain RPR401)",
    )

    dot = commands.add_parser("dot", help="emit Graphviz DOT")
    dot.add_argument("graph", help="edge-list file")
    dot.add_argument(
        "--query", help="closure body / query for reduction or automaton views"
    )
    dot.add_argument(
        "--view",
        choices=["graph", "reduced", "condensation", "nfa"],
        default="graph",
        help="what to render (default: the input graph)",
    )
    return parser


def _cmd_query(args) -> int:
    if args.connect:
        return _query_remote(args)
    if args.graph is None or not args.queries:
        print(
            "error: query needs a graph file and at least one RPQ "
            "(or --connect host:port)",
            file=sys.stderr,
        )
        return 2
    for module_name in args.load:
        importlib.import_module(module_name)
    kwargs = {}
    if args.semantic_cache and args.engine == "rtc":
        kwargs["cache_mode"] = "semantic"
    db = GraphDB.open(args.graph, engine=args.engine, **kwargs)
    results = db.execute_many(args.queries)
    shared = getattr(db.engine, "shared_data_size", lambda: 0)()
    if args.json:
        print(
            json.dumps(
                {
                    "engine": db.engine_name,
                    "graph": args.graph,
                    "shared_pairs": shared,
                    "results": [result.to_dict() for result in results],
                },
                indent=2,
                default=str,
            )
        )
        return 0
    rows = []
    for result in results:
        rows.append([result.query, len(result), format_seconds(result.total_time)])
        if args.show_pairs:
            for source, target in result:
                print(f"{source}\t{target}")
    print(format_table(["query", "pairs", "time"], rows))
    if shared:
        print(f"shared data: {shared} pairs")
    return 0


def _query_remote(args) -> int:
    """The ``query --connect`` path: same output, served remotely."""
    from repro.server import Client

    queries = ([args.graph] if args.graph else []) + args.queries
    if not queries:
        print("error: no queries given", file=sys.stderr)
        return 2
    want_pairs = args.show_pairs or args.json
    with Client.connect(args.connect) as client:
        results = client.query_many(
            queries, timeout=args.timeout, pairs=want_pairs
        )
        if args.json:
            print(
                json.dumps(
                    {
                        "connect": args.connect,
                        "results": [
                            {
                                "query": result.query,
                                "count": result.count,
                                "time": result.time,
                                "pairs": list(result),
                            }
                            for result in results
                        ],
                    },
                    indent=2,
                    default=str,
                )
            )
            return 0
        rows = []
        for result in results:
            rows.append(
                [result.query, result.count, format_seconds(result.time)]
            )
            if args.show_pairs:
                for source, target in result:
                    print(f"{source}\t{target}")
        print(format_table(["query", "pairs", "time"], rows))
    return 0


def _cmd_serve(args) -> int:
    from repro.server import QueryServer, ServerConfig

    for module_name in args.load:
        importlib.import_module(module_name)
    engine_kwargs = {}
    if args.semantic_cache and args.engine == "rtc":
        engine_kwargs["cache_mode"] = "semantic"
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.queue_size,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        default_timeout=args.timeout if args.timeout > 0 else None,
        slow_query_log=args.slow_query_log,
        slow_query_threshold=args.slow_query_threshold,
    )
    if args.checkpoint_every is not None and args.data_dir is None:
        print("error: --checkpoint-every requires --data-dir", file=sys.stderr)
        return 2

    if args.shards > 1 or args.replicas > 1 or args.backend != "thread":
        from repro.cluster import ClusterConfig, ClusterRouter, GraphCluster

        cluster = GraphCluster.open(
            args.graph,
            engine=args.engine,
            config=ClusterConfig(
                shards=args.shards,
                replicas=args.replicas,
                workers=args.workers,
                max_queue=args.queue_size,
                batch_window=args.batch_window,
                max_batch=args.max_batch,
                engine_kwargs=engine_kwargs,
                backend=args.backend,
                worker_log_dir=args.worker_log_dir,
                partition_strategy=args.strategy,
                data_dir=args.data_dir,
                checkpoint_every=args.checkpoint_every,
            ),
            start=False,
        )
        server = ClusterRouter(cluster, config)

        def announce_cluster(address) -> None:
            host, port = address
            partition_stats = cluster.partition.stats()
            shard_edges = ", ".join(
                str(shard["edges"]) for shard in partition_stats["shards"]
            )
            cuts = partition_stats["cut_edges"]
            cut_note = f", {cuts} cut edges" if cuts else ""
            durable_note = (
                f", data-dir={args.data_dir}" if args.data_dir else ""
            )
            print(
                f"serving {args.graph} as a {args.shards}-shard x "
                f"{args.replicas}-replica cluster (engine={args.engine}, "
                f"backend={args.backend}, {config.workers} workers/replica, "
                f"shard edges: [{shard_edges}]{cut_note}{durable_note}) on "
                f"{host}:{port} -- Ctrl-C to stop",
                flush=True,
            )

        server.run(ready_callback=announce_cluster)
        return 0

    db = GraphDB.open(
        args.graph,
        engine=args.engine,
        storage=args.data_dir,
        checkpoint_every=args.checkpoint_every,
        **engine_kwargs,
    )
    server = QueryServer(db, config)

    def announce(address) -> None:
        host, port = address
        durable_note = f", data-dir={args.data_dir}" if args.data_dir else ""
        print(
            f"serving {args.graph} (engine={db.engine_name}, "
            f"workers={config.workers}{durable_note}) on {host}:{port} "
            "-- Ctrl-C to stop",
            flush=True,
        )

    server.run(ready_callback=announce)
    return 0


def _cmd_reduce(args) -> int:
    graph = load_edge_list(args.graph)
    stats = reduction_stats(graph, args.body)
    if args.json:
        print(
            json.dumps(
                {
                    "graph": args.graph,
                    "body": args.body,
                    "graph_vertices": stats.num_graph_vertices,
                    "graph_edges": stats.num_graph_edges,
                    "gr_vertices": stats.num_gr_vertices,
                    "gr_edges": stats.num_gr_edges,
                    "condensed_vertices": stats.num_condensed_vertices,
                    "condensed_edges": stats.num_condensed_edges,
                    "rtc_pairs": stats.rtc_pairs,
                    "full_closure_pairs": stats.full_closure_pairs,
                    "average_scc_size": stats.average_scc_size,
                    "shared_size_ratio": stats.shared_size_ratio,
                },
                indent=2,
            )
        )
        return 0
    print(
        format_table(
            ["quantity", "value"],
            [
                ["|V| (G)", stats.num_graph_vertices],
                ["|E| (G)", stats.num_graph_edges],
                ["|V_R|", stats.num_gr_vertices],
                ["|E_R|", stats.num_gr_edges],
                ["|V̄_R|", stats.num_condensed_vertices],
                ["|Ē_R|", stats.num_condensed_edges],
                ["RTC pairs", stats.rtc_pairs],
                ["R+_G pairs", stats.full_closure_pairs],
                ["avg SCC size", f"{stats.average_scc_size:.2f}"],
                ["shared-size ratio", f"{stats.shared_size_ratio:.2f}"],
            ],
        )
    )
    return 0


def _cmd_stats(args) -> int:
    if args.connect:
        return _stats_remote(args)
    if args.prometheus or args.watch is not None:
        print(
            "error: --prometheus/--watch need --connect host:port",
            file=sys.stderr,
        )
        return 2
    if args.graph is None:
        print(
            "error: stats needs a graph file (or --connect host:port)",
            file=sys.stderr,
        )
        return 2
    graph = load_edge_list(args.graph)
    if args.json:
        print(
            json.dumps(
                {
                    "graph": args.graph,
                    "vertices": graph.num_vertices,
                    "edges": graph.num_edges,
                    "labels": graph.num_labels,
                    "density_per_label": graph.average_degree_per_label(),
                },
                indent=2,
            )
        )
        return 0
    print(
        format_table(
            ["|V|", "|E|", "|Σ|", "|E|/(|V||Σ|)"],
            [
                [
                    graph.num_vertices,
                    graph.num_edges,
                    graph.num_labels,
                    f"{graph.average_degree_per_label():.4f}",
                ]
            ],
        )
    )
    return 0


def _stats_remote(args) -> int:
    """``stats --connect``: live server stats, metrics text, or a watch loop."""
    import time as time_module

    from repro.server import Client

    def emit(client) -> None:
        if args.prometheus:
            sys.stdout.write(client.metrics())
            sys.stdout.flush()
            return
        stats = client.stats()
        if args.json:
            print(json.dumps(stats, indent=2, default=str))
            return
        scheduler = stats.get("scheduler", {})
        latency = scheduler.get("latency", {})
        print(
            format_table(
                [
                    "admitted",
                    "completed",
                    "in-flight",
                    "qps",
                    "p50",
                    "p95",
                    "p99",
                ],
                [
                    [
                        scheduler.get("admitted", 0),
                        scheduler.get("completed", 0),
                        scheduler.get("in_flight", 0),
                        f"{scheduler.get('qps', 0.0):.1f}",
                        format_seconds(latency.get("p50")),
                        format_seconds(latency.get("p95")),
                        format_seconds(latency.get("p99")),
                    ]
                ],
            )
        )

    with Client.connect(args.connect) as client:
        if args.watch is None:
            emit(client)
            return 0
        try:
            while True:
                emit(client)
                time_module.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def _cmd_trace(args) -> int:
    """Render recorded trace trees as indented phase breakdowns."""
    from repro.obs import SlowQueryLog, render_trace

    entries = SlowQueryLog.read(args.path)
    if not entries:
        print(f"error: no trace entries in {args.path}", file=sys.stderr)
        return 1
    entries.sort(key=lambda entry: entry.get("elapsed", 0.0), reverse=True)
    if args.limit is not None:
        entries = entries[: args.limit]
    if args.json:
        print(json.dumps(entries, indent=2, default=str))
        return 0
    for index, entry in enumerate(entries):
        if index:
            print()
        # A slow-log entry wraps its trace; a raw trace file *is* one.
        trace = entry.get("trace")
        if trace is None and "spans" in entry:
            trace = entry
        queries = entry.get("queries")
        if queries:
            print(
                f"slow query ({format_seconds(entry.get('elapsed'))}, "
                f"threshold {format_seconds(entry.get('threshold'))}): "
                + "; ".join(str(query) for query in queries)
            )
        if trace:
            print(render_trace(trace))
        for query, plan in sorted((entry.get("plans") or {}).items()):
            print(f"plan for {query}:")
            for line in str(plan).splitlines():
                print(f"  {line}")
    return 0


def _cmd_explain(args) -> int:
    db = GraphDB.open(args.graph)
    print(db.explain(args.query).describe())
    return 0


def _cmd_lint(args) -> int:
    """``repro lint`` -- the static invariant checker of
    :mod:`repro.analysis`."""
    from repro.analysis import all_rules, run_lint

    if args.explain is not None:
        rule = all_rules().get(args.explain)
        if rule is None:
            known = ", ".join(sorted(all_rules()))
            print(
                f"error: unknown rule {args.explain!r}; known rules: {known}",
                file=sys.stderr,
            )
            return 2
        print(f"{rule.id} [{rule.severity}] {rule.name}")
        print()
        print(rule.rationale)
        return 0

    def split(values: list) -> list | None:
        flat = [
            item.strip()
            for value in values
            for item in value.split(",")
            if item.strip()
        ]
        return flat or None

    paths = args.paths
    if not paths:
        import repro

        paths = [repro.__path__[0]]
    try:
        result = run_lint(
            paths, select=split(args.select), ignore=split(args.ignore)
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.render_json() if args.json else result.render_text())
    return result.exit_code


def _cmd_dot(args) -> int:
    graph = load_edge_list(args.graph)
    if args.view == "graph":
        print(viz.multigraph_to_dot(graph))
        return 0
    if not args.query:
        print("error: --query is required for this view", file=sys.stderr)
        return 2
    if args.view == "nfa":
        print(viz.nfa_to_dot(compile_nfa(parse_query(args.query))))
        return 0
    reduction = reduce_graph(graph, args.query)
    if args.view == "reduced":
        print(viz.digraph_to_dot(reduction.gr))
    else:
        print(viz.condensation_to_dot(reduction.condensation))
    return 0


_COMMANDS = {
    "query": _cmd_query,
    "serve": _cmd_serve,
    "reduce": _cmd_reduce,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "explain": _cmd_explain,
    "lint": _cmd_lint,
    "dot": _cmd_dot,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
