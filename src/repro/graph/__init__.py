"""Graph substrate: the paper's data model and every reduction target.

Public surface:

* :class:`LabeledMultigraph` -- the edge-labeled directed multigraph
  ``G = (V, E, f, Sigma, l)`` RPQs run against (paper Section II-A);
* :class:`DiGraph` -- unlabeled simple digraph, the type of both reduction
  products ``G_R`` and ``Ḡ_R``;
* SCC / condensation (:func:`tarjan_scc`, :func:`kosaraju_scc`,
  :func:`condense`, :class:`Condensation`) -- the vertex-level reduction;
* transitive-closure algorithms (:func:`tc_bfs`, :func:`tc_warshall`,
  :func:`tc_purdom`, :func:`tc_nuutila`, :func:`transitive_closure_pairs`,
  :func:`scc_closure`, :func:`dag_closure_bitsets`);
* edge-list IO (:func:`load_edge_list`, :func:`dump_edge_list`);
* deterministic builders (:func:`paper_figure1_graph`, ...).
"""

from repro.graph.builders import (
    digraph_cycle,
    digraph_path,
    labeled_complete,
    labeled_cycle,
    labeled_path,
    layered_graph,
    paper_figure1_graph,
)
from repro.graph.digraph import DiGraph
from repro.graph.io import dump_edge_list, load_edge_list
from repro.graph.multigraph import LabeledMultigraph
from repro.graph.scc import Condensation, condense, kosaraju_scc, tarjan_scc
from repro.graph.transitive_closure import (
    dag_closure_bitsets,
    scc_closure,
    tc_bfs,
    tc_nuutila,
    tc_purdom,
    tc_warshall,
    transitive_closure_pairs,
)

__all__ = [
    "LabeledMultigraph",
    "DiGraph",
    "Condensation",
    "condense",
    "tarjan_scc",
    "kosaraju_scc",
    "tc_bfs",
    "tc_warshall",
    "tc_purdom",
    "tc_nuutila",
    "transitive_closure_pairs",
    "scc_closure",
    "dag_closure_bitsets",
    "load_edge_list",
    "dump_edge_list",
    "paper_figure1_graph",
    "labeled_path",
    "labeled_cycle",
    "labeled_complete",
    "layered_graph",
    "digraph_path",
    "digraph_cycle",
]
