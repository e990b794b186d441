"""RPQ evaluation substrate.

Public surface:

* :func:`eval_rpq` -- automaton product-BFS evaluation of a full RPQ
  (Section II-B / Example 2 semantics), used by the NoSharing baseline and
  for closure-free clauses;
* :func:`eval_rpq_from` -- one traversal from a fixed start vertex;
* :func:`summarise_shard` -- the start-independent shard summary the
  cluster's boundary join closes over edge-cut partitions;
* :func:`eval_label_sequence` / :func:`eval_labels_from` -- join-based
  evaluation of closure-free label sequences (rare-label-first option);
* :class:`RestrictedEvaluator` -- ``EvalRestrictedRPQ(Post, v_k)``;
* :class:`OpCounters` -- operation tallies for the ablation benches.
"""

from repro.rpq.counters import OpCounters
from repro.rpq.dfa_eval import eval_dfa_from, eval_rpq_dfa
from repro.rpq.evaluate import candidate_starts, check_alphabet, eval_rpq, eval_rpq_from
from repro.rpq.label_join import eval_label_sequence, eval_labels_from
from repro.rpq.partial import ShardSummary, summarise_shard
from repro.rpq.restricted import RestrictedEvaluator, as_label_sequence
from repro.rpq.witness import Witness, eval_rpq_with_witness

__all__ = [
    "OpCounters",
    "eval_rpq_dfa",
    "eval_dfa_from",
    "eval_rpq",
    "eval_rpq_from",
    "candidate_starts",
    "check_alphabet",
    "eval_label_sequence",
    "eval_labels_from",
    "summarise_shard",
    "ShardSummary",
    "RestrictedEvaluator",
    "as_label_sequence",
    "eval_rpq_with_witness",
    "Witness",
]
