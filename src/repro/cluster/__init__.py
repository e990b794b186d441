"""``repro.cluster`` -- a sharded RPQ serving layer.

Scales the single-node :mod:`repro.server` stack out: one graph is
partitioned into shards (:func:`partition_graph` -- component-disjoint
by default, or ``strategy="edge-cut"`` for graphs a single giant
component would otherwise pin to one shard; the router then joins
per-shard partial paths over the partition's cut-edge relation), each
shard is one :class:`~repro.db.GraphDB` session behind its own
:class:`~repro.server.SharingScheduler` in the router's process
(``GraphCluster.backend(i)`` is shard ``i``'s scheduler, ``.db`` its
session), and a :class:`ClusterRouter` speaks the existing JSON-lines
protocol over the :class:`GraphCluster` router, so the unchanged
:class:`~repro.server.Client` talks to a cluster exactly as it talks to
one server.

>>> from repro.cluster import ClusterConfig, ClusterRouter, GraphCluster
>>> from repro.server import Client, ServerThread
>>> from repro.graph import paper_figure1_graph
>>> cluster = GraphCluster.open(
...     paper_figure1_graph(), config=ClusterConfig(shards=2)
... )
>>> with ServerThread(ClusterRouter(cluster)) as handle:
...     with Client(*handle.address) as client:
...         sorted(client.query("d.(b.c)+.c").pairs)
[(7, 3), (7, 5)]
"""

from repro.cluster.partition import (
    PARTITION_STRATEGIES,
    GraphPartition,
    partition_graph,
    weakly_connected_components,
)
from repro.cluster.service import (
    ClusterConfig,
    ClusterRouter,
    GraphCluster,
)

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "GraphCluster",
    "GraphPartition",
    "partition_graph",
    "weakly_connected_components",
    "PARTITION_STRATEGIES",
]
