"""Database-style facade over the RPQ engines: ``repro.db``.

The paper's contribution is *sharing* one reduced transitive closure
across many RPQs; this package makes that lifecycle the public API
instead of an engine-construction detail:

* :class:`GraphDB` -- a session owning the graph, the engine and its
  shared caches (``open`` / ``prepare`` / ``execute`` /
  ``execute_many`` / ``update`` / ``close``);
* :class:`PreparedQuery` -- a query's shared plan (parse + DNF +
  batch-unit decomposition, done once per process), executable many
  times, with an ``explain()`` plan;
* :class:`ResultSet` -- result pairs plus per-phase timings,
  shared-structure statistics, lazy evaluation, ``to_json()`` and
  ``to_dot()``;
* the **engine registry** -- :func:`register_engine` /
  :func:`available_engines` / :func:`create_engine`, so third-party
  engines plug in by name next to the built-in ``"no"`` / ``"full"`` /
  ``"rtc"`` without touching :mod:`repro.core.engines`.

>>> from repro.db import GraphDB
>>> from repro.graph import paper_figure1_graph
>>> db = GraphDB.open(paper_figure1_graph())
>>> sorted(db.execute("d.(b.c)+.c"))
[(7, 3), (7, 5)]
"""

from repro.db.prepared import PreparedQuery
from repro.db.registry import (
    available_engines,
    create_engine,
    get_engine_class,
    register_engine,
    unregister_engine,
)
from repro.db.resultset import ExecutionStats, ResultSet
from repro.db.session import GraphDB
from repro.errors import UnknownEngineError

__all__ = [
    "GraphDB",
    "PreparedQuery",
    "ResultSet",
    "ExecutionStats",
    "register_engine",
    "unregister_engine",
    "get_engine_class",
    "available_engines",
    "create_engine",
    "UnknownEngineError",
]
