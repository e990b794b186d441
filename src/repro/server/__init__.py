"""``repro.server`` -- a concurrent, sharing-aware RPQ query server.

The subsystem that turns the library into a service: an asyncio
JSON-lines TCP front end (:class:`QueryServer`, ``repro serve`` on the
CLI) over one :class:`~repro.db.GraphDB` session, with

* a **sharing-aware scheduler** (:class:`SharingScheduler`) that
  micro-batches in-flight queries by common Kleene-closure body, so
  concurrent clients amortise one reduced transitive closure exactly
  like the paper's multiple-RPQ sets do;
* a **worker pool** of threads that all evaluate on the session's one
  engine and its lock-protected shared-data cache;
* **admission control**: a bounded queue (backpressure as
  :class:`~repro.errors.AdmissionError`), per-request deadlines
  (:class:`~repro.errors.DeadlineExpiredError`), exclusive updates;
* live **metrics** (QPS, latency percentiles, batch sizes, cache hits)
  behind the ``stats`` protocol verb;
* a small blocking :class:`Client` mirroring the session API.

>>> from repro.db import GraphDB
>>> from repro.server import Client, ServerThread
>>> from repro.graph import paper_figure1_graph
>>> with ServerThread(GraphDB.open(paper_figure1_graph())) as handle:
...     with Client(*handle.address) as client:
...         sorted(client.query("d.(b.c)+.c").pairs)
[(7, 3), (7, 5)]
"""

from repro.server.client import Client, QueryResult
from repro.server.metrics import ServerMetrics
from repro.server.scheduler import SharingScheduler
from repro.server.service import QueryServer, ServerConfig, ServerThread

__all__ = [
    "Client",
    "QueryResult",
    "QueryServer",
    "ServerConfig",
    "ServerThread",
    "ServerMetrics",
    "SharingScheduler",
]
