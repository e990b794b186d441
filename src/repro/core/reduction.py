"""RPQ-based graph reduction -- paper Section III.

Two levels:

* :func:`edge_level_reduce` (``G -> G_R``, Section III-A): evaluate ``R``
  on ``G``; every result pair becomes one unlabeled edge.  Vertices not on
  any satisfying path disappear, labels disappear (every edge "is" R), and
  parallel satisfying paths collapse -- the three reduction aspects the
  paper lists.
* :func:`vertex_level_reduce` (``G_R -> Ḡ_R``, Section III-B): condense
  SCCs (re-exported from :mod:`repro.graph.scc`).

:func:`reduce_graph` chains both and returns the full
:class:`ReductionResult`, including the statistics that Figs. 12-13 plot
(``|V_R|`` vs ``|V̄_R|`` etc.).

The evaluation of ``R`` itself is pluggable: Algorithm 1 computes ``R_G``
by a *recursive* RTCSharing call (so nested closures reuse cached RTCs);
standalone users get the automaton evaluator by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro.core.rtc import ReducedTransitiveClosure, compute_rtc
from repro.graph.digraph import DiGraph
from repro.graph.multigraph import LabeledMultigraph
from repro.graph.scc import Condensation, condense
from repro.regex.ast import RegexNode
from repro.regex.parser import parse
from repro.rpq.evaluate import eval_rpq

__all__ = [
    "edge_level_reduce",
    "vertex_level_reduce",
    "reduce_graph",
    "ReductionResult",
]

# An RPQ evaluator: (graph, query AST) -> set of vertex pairs.
Evaluator = Callable[[LabeledMultigraph, RegexNode], set]


def edge_level_reduce(
    graph: LabeledMultigraph,
    query: str | RegexNode,
    evaluator: Evaluator | None = None,
) -> DiGraph:
    """Edge-level reduction ``G -> G_R`` for RPQ ``R`` (Section III-A).

    ``E_R = {(v_i, v_j) | some path from v_i to v_j satisfies R}``; the
    result is an unlabeled simple digraph whose vertex set contains exactly
    the endpoints of satisfying paths.
    """
    node = parse(query)
    if evaluator is None:
        pairs: Iterable[tuple[object, object]] = eval_rpq(graph, node)
    else:
        pairs = evaluator(graph, node)
    return DiGraph.from_pairs(pairs)


def vertex_level_reduce(reduced: DiGraph) -> Condensation:
    """Vertex-level reduction ``G_R -> Ḡ_R`` (Section III-B)."""
    return condense(reduced)


@dataclass(frozen=True)
class ReductionResult:
    """Everything the two-level reduction of ``G`` for ``R`` produces."""

    gr: DiGraph
    rtc: ReducedTransitiveClosure

    @property
    def condensation(self) -> Condensation:
        """``Ḡ_R`` with its SCC map -- the RTC's vertex-keyed view."""
        return self.rtc.condensation

    @property
    def num_gr_vertices(self) -> int:
        """``|V_R|`` (Fig. 13's FullSharing series)."""
        return self.gr.num_vertices

    @property
    def num_gr_edges(self) -> int:
        """``|E_R|``."""
        return self.gr.num_edges

    @property
    def num_condensed_vertices(self) -> int:
        """``|V̄_R|`` (Fig. 13's RTCSharing series)."""
        return self.condensation.num_sccs

    @property
    def num_condensed_edges(self) -> int:
        """``|Ē_R|``."""
        return self.condensation.dag.num_edges

    @property
    def average_scc_size(self) -> float:
        """Average vertices per SCC -- the paper's Yago2s diagnostic."""
        return self.condensation.average_scc_size()


def reduce_graph(
    graph: LabeledMultigraph,
    query: str | RegexNode,
    evaluator: Evaluator | None = None,
) -> ReductionResult:
    """Run both reduction levels and compute the RTC for ``R``.

    Convenience wrapper for examples, stats and tests; the engines drive
    the same pieces individually so they can time each phase separately.
    """
    gr = edge_level_reduce(graph, query, evaluator)
    return ReductionResult(gr=gr, rtc=compute_rtc(gr))
