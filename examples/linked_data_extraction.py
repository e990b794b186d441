"""Information extraction from linked open data (RDF-style graph).

The paper's third motivating application is "extracting information from
linked open data".  This example loads a small RDF-ish knowledge graph
from an edge-list file (written on the fly to show the IO path), then runs
SPARQL-property-path-style queries:

* transitive subclass reasoning:   ``subclass_of+``
* type inference through classes:  ``type.(subclass_of)*``
* influence chains between people: ``influenced_by+``
* co-location discovery:           ``born_in|works_in``

Shows each query's static evaluation plan (its DNF clauses and batch
units) and the semantic RTC cache sharing language-equal closure bodies
written two ways.

Run:  python examples/linked_data_extraction.py
"""

import tempfile
from pathlib import Path

from repro import GraphDB

EDGE_LIST = """\
# A toy slice of a linked-data graph: people, places, classes.
writer subclass_of artist
artist subclass_of person
person subclass_of agent
painter subclass_of artist
poet subclass_of writer
novelist subclass_of writer
orwell type novelist
orwell born_in motihari
orwell works_in london
orwell influenced_by swift
swift type writer
swift born_in dublin
swift influenced_by more
more type writer
more born_in london
woolf type novelist
woolf born_in london
woolf influenced_by orwell
plath type poet
plath influenced_by woolf
picasso type painter
picasso born_in malaga
picasso works_in paris
"""

QUERIES = [
    "subclass_of+",
    "type.(subclass_of)*",
    "influenced_by+",
    "born_in|works_in",
]


def main() -> None:
    # GraphDB.open reads the edge list straight off disk (the IO path).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "linked_data.txt"
        path.write_text(EDGE_LIST)
        db = GraphDB.open(path)
    graph = db.graph
    print(f"knowledge graph: {graph.num_vertices} resources, "
          f"{graph.num_edges} triples, predicates {sorted(graph.labels())}")

    # -- each query's batch units, before anything is evaluated ----------
    print("\nevaluation plans:")
    for query in QUERIES:
        print(db.explain(query).describe())

    answers = dict(zip(QUERIES, db.execute_many(QUERIES)))

    # Transitive typing: every class orwell belongs to.
    orwell_types = sorted(
        target for source, target in answers["type.(subclass_of)*"]
        if source == "orwell"
    )
    print(f"\norwell's inferred types: {orwell_types}")

    # Influence ancestry of plath.
    influences = sorted(
        target for source, target in answers["influenced_by+"]
        if source == "plath"
    )
    print(f"plath's influence ancestry: {influences}")

    # -- semantic cache: two spellings of one closure language -------------
    semantic = GraphDB.open(graph, engine="rtc", cache_mode="semantic")
    semantic.execute_many(
        ["type.(subclass_of.()|subclass_of)+", "type.(subclass_of)+"]
    )
    stats = semantic.engine.rtc_cache.stats
    print(f"\nsemantic cache across equivalent spellings: "
          f"entries={stats.entries} (1 means shared), hits={stats.hits}")


if __name__ == "__main__":
    main()
