"""Relational-algebra expression trees.

The paper manipulates batch units *symbolically* -- Eq. (3)-(10) are
algebra expressions, not code.  This module gives those expressions an
explicit tree form with an evaluator and a printer, so the library can

* build the exact expression of Lemma 4 / Theorem 2 / Eq. (6)-(10)
  (:mod:`repro.relalg.builders`),
* evaluate it with textbook operator semantics, and
* compare the result against the optimised imperative Algorithm 2
  (the tests' strongest internal consistency check).

Nodes are immutable; :meth:`RelExpr.evaluate` returns a
:class:`~repro.relalg.relation.Relation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relalg.relation import Relation

__all__ = [
    "RelExpr",
    "Scan",
    "Select",
    "Project",
    "Rename",
    "Join",
    "Union",
]


class RelExpr:
    """Base class of relational-algebra expression nodes."""

    def evaluate(self) -> Relation:
        """Evaluate the subtree bottom-up."""
        raise NotImplementedError

    def to_algebra(self) -> str:
        """A textual rendering close to the paper's notation."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_algebra()


@dataclass(frozen=True)
class Scan(RelExpr):
    """A named base relation (``Pre_G``, ``SCC``, ``R̄+_G``, ...)."""

    relation: Relation
    label: str

    def evaluate(self) -> Relation:
        return self.relation

    def to_algebra(self) -> str:
        return self.label


@dataclass(frozen=True)
class Select(RelExpr):
    """``sigma_{column = value}(child)``."""

    child: RelExpr
    column: str
    value: object

    def evaluate(self) -> Relation:
        return self.child.evaluate().select_eq(self.column, self.value)

    def to_algebra(self) -> str:
        return f"σ[{self.column}={self.value}]({self.child.to_algebra()})"


@dataclass(frozen=True)
class Project(RelExpr):
    """``pi_columns(child)``."""

    child: RelExpr
    columns: tuple[str, ...]

    def evaluate(self) -> Relation:
        return self.child.evaluate().project(self.columns)

    def to_algebra(self) -> str:
        return f"π[{', '.join(self.columns)}]({self.child.to_algebra()})"


@dataclass(frozen=True)
class Rename(RelExpr):
    """``rho_mapping(child)`` -- the paper's ``ρ_SSCC`` / ``ρ_ESCC``."""

    child: RelExpr
    mapping: tuple[tuple[str, str], ...]  # ((old, new), ...)

    def evaluate(self) -> Relation:
        return self.child.evaluate().rename(dict(self.mapping))

    def to_algebra(self) -> str:
        renames = ", ".join(f"{old}→{new}" for old, new in self.mapping)
        return f"ρ[{renames}]({self.child.to_algebra()})"


@dataclass(frozen=True)
class Join(RelExpr):
    """Equi-join ``left ⋈_{left_column = right_column} right``."""

    left: RelExpr
    right: RelExpr
    left_column: str
    right_column: str

    def evaluate(self) -> Relation:
        return self.left.evaluate().join(
            self.right.evaluate(), self.left_column, self.right_column
        )

    def to_algebra(self) -> str:
        return (
            f"({self.left.to_algebra()} ⋈[{self.left_column}="
            f"{self.right_column}] {self.right.to_algebra()})"
        )


@dataclass(frozen=True)
class Union(RelExpr):
    """Set union of two schema-compatible expressions."""

    left: RelExpr
    right: RelExpr

    def evaluate(self) -> Relation:
        return self.left.evaluate().union(self.right.evaluate())

    def to_algebra(self) -> str:
        return f"({self.left.to_algebra()} ∪ {self.right.to_algebra()})"
