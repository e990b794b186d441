"""``repro.bitset`` -- the bit-parallel evaluation kernel.

Relations are word-parallel Python big-int bitmaps (stdlib-only: ``|``,
``&``, shifts, ``int.bit_count()``) from the first traversal step to
the result boundary:

* :class:`VertexInterner` -- dense int ids for arbitrary hashable
  vertices, stable across updates (ids are never reused) and persisted
  through :mod:`repro.storage` snapshots so warm restarts keep the
  interning; :func:`bit_indexes` is the one set-bit decoder;
* :class:`PairBitmap` -- a ``src_id -> dst bitmap`` pair relation with
  O(words) union/intersection and ``int.bit_count()`` cardinality;
* :mod:`repro.bitset.kernel` -- frontier BFS over the automaton product
  as OR-sweeps of the graph's label-indexed adjacency rows
  (:meth:`repro.graph.multigraph.LabeledMultigraph.bit_rows`) and
  bitmap label joins.

One rule selects the evaluator everywhere: **bits unless counters are
attached**.  The tuple-set evaluators of :mod:`repro.rpq` run only with
an :class:`~repro.rpq.counters.OpCounters` (the paper's Table 3 tallies
count per-edge work a bitmap sweep never does) and are the reference
the ``tests/bitset`` identity suite compares this package against.
"""

from repro.bitset.interner import VertexInterner, bit_indexes
from repro.bitset.pairbitmap import PairBitmap
from repro.bitset.kernel import (
    eval_label_sequence_bits,
    eval_rpq_bits,
)

__all__ = [
    "VertexInterner",
    "PairBitmap",
    "bit_indexes",
    "eval_label_sequence_bits",
    "eval_rpq_bits",
]
