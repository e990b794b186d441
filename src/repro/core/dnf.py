"""Disjunctive normal form of an RPQ, closures treated as literals.

RTCSharing (Algorithm 1, line 2) first converts the query to a logically
equivalent DNF, "treating each outermost Kleene closure as a literal"
[15].  A DNF here is a union of *clauses*; each clause is a concatenation
of literals, where a literal is either

* a single edge label, or
* an outermost Kleene closure ``B+`` / ``B*`` (:class:`ClosureLiteral`
  with an arbitrary body ``B``, which may itself contain anything).

Conversion rules (language-preserving, checked by property tests):

* ``A | B``      -> clauses(A) + clauses(B)
* ``A . B``      -> pairwise concatenation of clauses (distributivity)
* ``A+`` / ``A*``-> a single closure literal (left intact)
* ``A?``         -> the epsilon clause plus clauses(A)
* ``epsilon``    -> the empty clause ``()``

Clauses are deduplicated while preserving first-occurrence order, so a
query like ``(a|a).b`` yields one clause.  The number of clauses can grow
exponentially in pathological queries; :func:`to_dnf` raises past
``max_clauses`` (default :data:`MAX_CLAUSES`) rather than silently
truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.regex.ast import (
    EPSILON,
    Concat,
    Epsilon,
    Label,
    Optional,
    Plus,
    RegexNode,
    Star,
    Union,
    concat,
    union,
)

__all__ = [
    "MAX_CLAUSES",
    "ClosureLiteral",
    "Clause",
    "to_dnf",
    "clause_to_regex",
    "dnf_to_regex",
]

#: The DNF blow-up guard: a query with more clauses is refused.
MAX_CLAUSES = 4096


@dataclass(frozen=True)
class ClosureLiteral:
    """An outermost Kleene closure kept opaque by the DNF conversion.

    ``kind`` is ``"+"`` or ``"*"``; ``body`` is the closed sub-expression
    ``R`` whose RTC the engine will share.
    """

    body: RegexNode
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("+", "*"):
            raise ValueError(f"closure kind must be '+' or '*', got {self.kind!r}")

    def to_regex(self) -> RegexNode:
        """Back to an AST node (``Plus`` or ``Star``)."""
        return Plus(self.body) if self.kind == "+" else Star(self.body)

    def __str__(self) -> str:
        return f"({self.body}){self.kind}"


# A clause is a tuple of literals; each literal is a Label or a ClosureLiteral.
Clause = tuple


def to_dnf(node: RegexNode, max_clauses: int = MAX_CLAUSES) -> list[Clause]:
    """Convert an RPQ AST to its closure-literal DNF (list of clauses)."""

    def convert(expr: RegexNode) -> list[Clause]:
        if isinstance(expr, Epsilon):
            return [()]
        if isinstance(expr, Label):
            return [(expr,)]
        if isinstance(expr, (Plus, Star)):
            kind = "+" if isinstance(expr, Plus) else "*"
            return [(ClosureLiteral(body=expr.body, kind=kind),)]
        if isinstance(expr, Optional):
            return _dedup([()] + convert(expr.body))
        if isinstance(expr, Union):
            clauses: list[Clause] = []
            for alternative in expr.alternatives:
                clauses.extend(convert(alternative))
            return _dedup(clauses)
        if isinstance(expr, Concat):
            clauses = [()]
            for part in expr.parts:
                part_clauses = convert(part)
                clauses = [
                    left + right for left in clauses for right in part_clauses
                ]
                if len(clauses) > max_clauses:
                    raise EvaluationError(
                        f"DNF of query exceeds {max_clauses} clauses; rewrite the query"
                    )
            return _dedup(clauses)
        raise TypeError(f"unknown regex node {expr!r}")

    clauses = convert(node)
    if len(clauses) > max_clauses:
        raise EvaluationError(
            f"DNF of query exceeds {max_clauses} clauses; rewrite the query"
        )
    return clauses


def _dedup(clauses: list[Clause]) -> list[Clause]:
    """Drop duplicate clauses, keeping first-occurrence order."""
    seen: set[Clause] = set()
    unique: list[Clause] = []
    for clause in clauses:
        if clause not in seen:
            seen.add(clause)
            unique.append(clause)
    return unique


def clause_to_regex(clause: Clause) -> RegexNode:
    """Rebuild the AST of one clause (used for EvalRPQwithoutKC)."""
    parts: list[RegexNode] = []
    for literal in clause:
        if isinstance(literal, ClosureLiteral):
            parts.append(literal.to_regex())
        else:
            parts.append(literal)
    if not parts:
        return EPSILON
    return concat(*parts)


def dnf_to_regex(clauses: list[Clause]) -> RegexNode:
    """Rebuild a single AST for the whole DNF (tests check language equality)."""
    if not clauses:
        raise ValueError("a DNF must have at least one clause")
    return union(*(clause_to_regex(clause) for clause in clauses))
