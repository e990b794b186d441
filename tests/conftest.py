"""Shared fixtures for the test suite.

The oracle implementations live in :mod:`oracle_helpers` (same directory,
importable because pytest inserts this directory into ``sys.path``); the
fixtures here hand them to tests as plain callables.
"""

import pytest

from oracle_helpers import oracle_networkx_eval, oracle_path_enumeration
from repro.graph.builders import paper_figure1_graph
from repro.graph.multigraph import LabeledMultigraph


@pytest.fixture
def fig1():
    """The paper's Fig. 1 running-example graph."""
    return paper_figure1_graph()


@pytest.fixture
def oracle_eval():
    """The networkx product-graph oracle as a callable."""
    return oracle_networkx_eval


@pytest.fixture
def oracle_paths():
    """The path-enumeration + stdlib-re oracle as a callable."""
    return oracle_path_enumeration


@pytest.fixture
def tiny_graph():
    """A 4-vertex graph with cycles and two labels; exhaustive for oracles."""
    return LabeledMultigraph.from_edges(
        [
            (0, "a", 1),
            (1, "b", 2),
            (2, "a", 0),
            (2, "b", 3),
            (3, "a", 3),
            (1, "a", 3),
        ]
    )


@pytest.fixture
def planning_calls(monkeypatch):
    """Counts real parses (``tokenize``) and plan DNF walks (``to_dnf``).

    A :func:`~repro.core.plan.plan_for` hit does neither; a served read
    of a repeated text must leave both counts where they were.
    """
    import repro.core.plan as plan_module
    import repro.regex.parser as parser_module

    calls = {"parse": 0, "dnf": 0}
    tokenize, walk = parser_module.tokenize, plan_module.to_dnf

    def counted_tokenize(text):
        calls["parse"] += 1
        return tokenize(text)

    def counted_walk(node, max_clauses=4096):
        calls["dnf"] += 1
        return walk(node, max_clauses)

    monkeypatch.setattr(parser_module, "tokenize", counted_tokenize)
    monkeypatch.setattr(plan_module, "to_dnf", counted_walk)
    return calls
