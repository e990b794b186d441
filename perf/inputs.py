"""Seed -> benchmark inputs: a labeled edge list and a fixed op script.

Everything here is plain data built with :mod:`random`; nothing is
imported from the program under test, so a change to the program's own
generators cannot move the benchmark's inputs.  The program receives
only what this module returns.

The graph model is the paper's: R-MAT edges (quadrant probabilities
0.57/0.19/0.19/0.05) with a uniformly random label per edge.  Queries
are the paper's batch units ``Pre.(R)+.Post`` with ``R`` a concatenation
of one to three labels whose evaluation is non-empty.

Each workload's graph is drawn once, from the workload's name; ``--seed``
draws the queries, their order in the op script and the edges the
clients toggle.  At the sizes the time cap allows (<= 256 vertices) the
closure structure of two R-MAT draws differs by +-20 % in cost, which
moved ``cluster_cut`` throughput by 0.3 (quartile distance over median)
between seeds against 0.06 with the graph held; comparisons between two
commits run equal seeds, so they see equal graphs either way.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from random import Random

RMAT_THRESHOLDS = (0.57, 0.76, 0.95)  # cumulative a, a+b, a+b+c


def labels_of(num_labels: int) -> list[str]:
    return [f"l{index}" for index in range(num_labels)]


def rmat_edges(rng: Random, scale: int, num_edges: int, num_labels: int) -> list[tuple]:
    """``num_edges`` distinct ``(source, label, target)`` R-MAT triples."""
    labels = labels_of(num_labels)
    seen: set[tuple] = set()
    edges: list[tuple] = []
    ab, abc = RMAT_THRESHOLDS[1], RMAT_THRESHOLDS[2]
    a = RMAT_THRESHOLDS[0]
    while len(edges) < num_edges:
        source = target = 0
        for level in range(scale):
            draw = rng.random()
            if draw < a:
                continue
            if draw < ab:
                target |= 1 << level
            elif draw < abc:
                source |= 1 << level
            else:
                source |= 1 << level
                target |= 1 << level
        edge = (source, rng.choice(labels), target)
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return edges


def connect_components(edges: list[tuple], label: str) -> list[tuple]:
    """Chain the weakly connected components with ``label`` bridge edges.

    The giant-component shape: component-disjoint partitioning cannot
    spread the result over shards, so the cluster must cut edges.
    """
    parent: dict = {}

    def find(vertex):
        parent.setdefault(vertex, vertex)
        while parent[vertex] != vertex:
            parent[vertex] = parent[parent[vertex]]
            vertex = parent[vertex]
        return vertex

    for source, _label, target in edges:
        parent[find(source)] = find(target)
    representatives = sorted({find(vertex) for vertex in list(parent)})
    present = set(edges)
    bridged = list(edges)
    for left, right in zip(representatives, representatives[1:]):
        if (left, label, right) not in present:
            bridged.append((left, label, right))
    return bridged


def sequence_is_nonempty(edges: list[tuple], sequence: list[str]) -> bool:
    """Whether some path spells ``sequence`` (frontier sweep, no program code)."""
    targets_by_label: dict = {}
    for source, label, target in edges:
        targets_by_label.setdefault(label, {}).setdefault(source, set()).add(target)
    first = targets_by_label.get(sequence[0], {})
    frontier = set().union(*first.values()) if first else set()
    for label in sequence[1:]:
        step = targets_by_label.get(label, {})
        frontier = set().union(*(step.get(vertex, ()) for vertex in frontier))
    return bool(frontier)


def query_sets(
    rng: Random,
    edges: list[tuple],
    num_labels: int,
    num_sets: int,
    lengths: tuple,
    rpqs: int,
) -> list[tuple[str, list[str]]]:
    """``num_sets`` distinct ``(R, [Pre.(R)+.Post, ...])`` multiple-RPQ sets.

    ``R`` lengths cycle through ``lengths``; bodies of one length are
    drawn without replacement from all non-empty label sequences of that
    length (reshuffled when used up), and every set holds exactly
    ``rpqs`` distinct queries.  Two seeds therefore draw the same mix of
    cost classes and differ only in which labels fill them.
    """
    labels = labels_of(num_labels)
    affixes = [(pre, post) for pre in labels for post in labels]
    pools: dict[int, list] = {}
    sets: list[tuple[str, list[str]]] = []
    seen: set[tuple] = set()
    while len(sets) < num_sets:
        length = lengths[len(sets) % len(lengths)]
        if not pools.get(length):
            pools[length] = [
                sequence
                for sequence in itertools.product(labels, repeat=length)
                if sequence_is_nonempty(edges, sequence)
            ]
            rng.shuffle(pools[length])
        body = ".".join(pools[length].pop())
        queries = [f"{pre}.({body})+.{post}" for pre, post in rng.sample(affixes, rpqs)]
        key = (body, tuple(sorted(queries)))
        if key not in seen:
            seen.add(key)
            sets.append((body, queries))
    return sets


@dataclass
class Inputs:
    """What one workload run hands to the program."""

    edges: list[tuple]
    num_labels: int
    #: Distinct queries (serve/cluster workloads) -- indices go in scripts.
    queries: list[str] = field(default_factory=list)
    #: Distinct closure bodies of ``queries`` (what a deployment watches).
    bodies: list[str] = field(default_factory=list)
    #: ``batch_sets`` only: the multiple-RPQ sets, one op each.
    sets: list[list[str]] = field(default_factory=list)
    #: One op list per client.  An op is ``["q", query_index]`` or
    #: ``["u", client_index]`` (toggle that client's private edge).
    scripts: list[list[list]] = field(default_factory=list)
    #: Private edge each client toggles (hub -> fresh vertex).
    toggle_edges: list[tuple] = field(default_factory=list)

    def digest(self) -> str:
        document = {
            "edges": [list(edge) for edge in self.edges],
            "queries": self.queries,
            "sets": self.sets,
            "scripts": self.scripts,
            "toggle_edges": [list(edge) for edge in self.toggle_edges],
        }
        encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode()).hexdigest()


def toggle_edges(edges: list[tuple], num_labels: int, clients: int) -> list[tuple]:
    """One private edge per client: hub ``i`` -> a fresh vertex, label ``i``.

    Hubs are the highest out-degree vertices (ties by vertex id), so the
    toggled edge reaches much of the graph and watchers have work to do;
    the fresh target keeps clients from ever colliding.
    """
    degree: dict = {}
    for source, _label, _target in edges:
        degree[source] = degree.get(source, 0) + 1
    ranked = sorted(degree, key=lambda vertex: (-degree[vertex], vertex))
    labels = labels_of(num_labels)
    return [
        (ranked[index % len(ranked)], labels[index % num_labels], f"bench-w{index}")
        for index in range(clients)
    ]


def client_scripts(
    rng: Random, num_queries: int, clients: int, ops_per_client: int, update_every: int
) -> list[list[list]]:
    """Closed-loop scripts; every ``update_every``-th op toggles an edge.

    Each client walks its own shuffled cycle over all queries, so every
    pass asks every distinct query about equally often.
    """
    scripts = []
    for client in range(clients):
        order = list(range(num_queries))
        rng.shuffle(order)
        script, reads = [], 0
        for position in range(ops_per_client):
            if update_every and (position + 1) % update_every == 0:
                script.append(["u", client])
            else:
                script.append(["q", order[reads % num_queries]])
                reads += 1
        scripts.append(script)
    return scripts


def make_inputs(spec: dict, seed: int) -> Inputs:
    """Build one workload's inputs from its size ``spec`` and ``seed``."""
    rng = Random(f"{spec['name']}-{seed}")
    num_labels = spec["labels"]
    edges = rmat_edges(
        Random(f"{spec['name']}-graph"), spec["scale"], spec["edges"], num_labels
    )
    if spec.get("connected"):
        edges = connect_components(edges, labels_of(num_labels)[0])
    sets = query_sets(
        rng, edges, num_labels, spec["sets"], spec["lengths"], spec["rpqs"]
    )
    bodies = sorted({body for body, _queries in sets})
    if spec["name"] == "batch_sets":
        return Inputs(
            edges, num_labels, bodies=bodies, sets=[queries for _body, queries in sets]
        )
    queries = sorted({query for _body, qs in sets for query in qs})
    rng.shuffle(queries)
    clients = spec["clients"]
    update_every = spec.get("update_every", 0)
    return Inputs(
        edges,
        num_labels,
        queries=queries,
        bodies=bodies,
        scripts=client_scripts(
            rng, len(queries), clients, spec["ops_per_client"], update_every
        ),
        toggle_edges=toggle_edges(edges, num_labels, clients) if update_every else [],
    )
