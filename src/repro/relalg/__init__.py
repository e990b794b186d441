"""Relational-algebra substrate: executable form of the paper's Eq. (1)-(10).

Public surface:

* :class:`Relation` -- set-semantics relations with select / project /
  join / rename / union;
* expression nodes (:class:`Scan`, :class:`Select`, :class:`Project`,
  :class:`Rename`, :class:`Join`, :class:`Union`);
* builders for the paper's formal expressions
  (:func:`concat_expression` for Lemma 4, :func:`theorem2_expression` for
  Theorem 2, :func:`batch_unit_expression` for Eq. (6)-(10)).
"""

from repro.relalg.builders import (
    batch_unit_expression,
    concat_expression,
    pairs_relation,
    rtc_relation,
    scc_relation,
    theorem2_expression,
)
from repro.relalg.expression import (
    Join,
    Project,
    RelExpr,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.relalg.relation import Relation

__all__ = [
    "Relation",
    "RelExpr",
    "Scan",
    "Select",
    "Project",
    "Rename",
    "Join",
    "Union",
    "pairs_relation",
    "scc_relation",
    "rtc_relation",
    "concat_expression",
    "theorem2_expression",
    "batch_unit_expression",
]
