"""repro -- Regular Path Query evaluation sharing a Reduced Transitive Closure.

A from-scratch Python reproduction of

    Na, Moon, Yi, Whang, Hyun:
    "Regular Path Query Evaluation Sharing a Reduced Transitive Closure
    Based on Graph Reduction", ICDE 2022 (arXiv:2111.06918).

Quickstart::

    from repro import GraphDB

    db = GraphDB.open([
        (0, "d", 1), (1, "b", 2), (2, "c", 1), (2, "c", 3),
    ])
    result = db.execute("d.(b.c)+.c")   # a ResultSet
    pairs = result.pairs

The top-level package re-exports the most commonly used names; the full
surface lives in the subpackages:

* :mod:`repro.db`       -- the session facade: :class:`GraphDB`,
  :class:`PreparedQuery`, :class:`ResultSet`, the engine registry;
* :mod:`repro.graph`    -- graph data model, SCC, transitive closures;
* :mod:`repro.regex`    -- RPQ syntax, automata, language equality;
* :mod:`repro.rpq`      -- automaton / join evaluation primitives;
* :mod:`repro.core`     -- graph reduction, the RTC, the three engines;
* :mod:`repro.relalg`   -- the paper's relational-algebra expressions;
* :mod:`repro.datasets` -- R-MAT and Table-IV dataset stand-ins;
* :mod:`repro.workloads`-- the Section V-A multiple-RPQ-set generator;
* :mod:`repro.bench`    -- the experiment harness behind ``benchmarks/``;
* :mod:`repro.server`   -- the concurrent, sharing-aware query server
  (``repro serve`` / ``repro.server.Client``);
* :mod:`repro.cluster`  -- the sharded serving layer, one session per
  shard behind a router (``repro serve --shards N``).
"""

from repro.core.batch_unit import BatchUnitOptions
from repro.core.engines import (
    FullSharingEngine,
    NoSharingEngine,
    RTCSharingEngine,
)
from repro.core.reduction import edge_level_reduce, reduce_graph, vertex_level_reduce
from repro.core.rtc import ReducedTransitiveClosure, compute_rtc
from repro.db import (
    GraphDB,
    PreparedQuery,
    ResultSet,
    available_engines,
    create_engine,
    register_engine,
)
from repro.errors import (
    AdmissionError,
    DeadlineExpiredError,
    ERROR_CODES,
    EvaluationError,
    GraphError,
    ProtocolError,
    ReproError,
    ResultTooLargeError,
    RPQSyntaxError,
    ServerError,
    UnknownEngineError,
    UnknownLabelError,
)
from repro.graph.digraph import DiGraph
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.parser import parse
from repro.rpq.evaluate import eval_rpq

__version__ = "1.15.0"

__all__ = [
    "GraphDB",
    "PreparedQuery",
    "ResultSet",
    "register_engine",
    "available_engines",
    "create_engine",
    "LabeledMultigraph",
    "DiGraph",
    "parse",
    "eval_rpq",
    "RTCSharingEngine",
    "FullSharingEngine",
    "NoSharingEngine",
    "BatchUnitOptions",
    "ReducedTransitiveClosure",
    "compute_rtc",
    "edge_level_reduce",
    "vertex_level_reduce",
    "reduce_graph",
    "ERROR_CODES",
    "ReproError",
    "GraphError",
    "RPQSyntaxError",
    "EvaluationError",
    "UnknownLabelError",
    "UnknownEngineError",
    "ServerError",
    "AdmissionError",
    "DeadlineExpiredError",
    "ProtocolError",
    "ResultTooLargeError",
    "__version__",
]
