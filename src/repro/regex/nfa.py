"""Thompson construction and epsilon-free NFAs for RPQ evaluation.

RPQ engines evaluate a query by simulating a finite automaton while
traversing the graph (paper Section II-B, Example 2).  This module compiles
a :class:`~repro.regex.ast.RegexNode` into:

1. an epsilon-NFA via the classic Thompson construction
   (:class:`EpsilonNFA`, one start state, one accept state), then
2. an epsilon-free, trim :class:`LabelNFA` whose transition function is
   total on its state set and whose states carry pre-computed epsilon
   closures -- the representation every product traversal consumes.
   *Trim* means every state is reachable from ``start`` and reaches an
   accepting state; moreover only the states with a label transition
   and the accept state survive closing.  Any other state would only
   multiply product nodes (one per vertex it is paired with) that
   never yield an answer.

:class:`LabelNFA` exposes the two facts the evaluator's pruning needs:

* ``nullable`` -- whether the language contains the empty word, in which
  case every vertex pair ``(v, v)`` satisfies the query;
* ``first_labels`` -- the labels that can begin a match, used to restrict
  the set of traversal start vertices (a standard optimisation also used
  by the Yakovets-style baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.regex.ast import (
    Concat,
    Epsilon,
    Label,
    Optional,
    Plus,
    RegexNode,
    Star,
    Union,
)

__all__ = ["EpsilonNFA", "LabelNFA", "thompson", "compile_nfa"]


@dataclass
class EpsilonNFA:
    """A Thompson NFA: one start state, one accept state, eps transitions.

    ``transitions`` maps ``state -> label -> set(states)``;
    ``epsilon_transitions`` maps ``state -> set(states)``.
    """

    num_states: int = 0
    start: int = 0
    accept: int = 0
    transitions: dict[int, dict[str, set[int]]] = field(default_factory=dict)
    epsilon_transitions: dict[int, set[int]] = field(default_factory=dict)

    def new_state(self) -> int:
        state = self.num_states
        self.num_states += 1
        return state

    def add_transition(self, source: int, label: str, target: int) -> None:
        self.transitions.setdefault(source, {}).setdefault(label, set()).add(target)

    def add_epsilon(self, source: int, target: int) -> None:
        self.epsilon_transitions.setdefault(source, set()).add(target)

    def epsilon_closure(self, states: set[int]) -> frozenset[int]:
        """All states reachable from ``states`` via epsilon transitions."""
        closure = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for successor in self.epsilon_transitions.get(state, ()):
                if successor not in closure:
                    closure.add(successor)
                    stack.append(successor)
        return frozenset(closure)


def thompson(node: RegexNode) -> EpsilonNFA:
    """Compile an AST into a Thompson epsilon-NFA."""
    nfa = EpsilonNFA()

    def build(expr: RegexNode) -> tuple[int, int]:
        """Return (entry, exit) states of the fragment for ``expr``."""
        if isinstance(expr, Epsilon):
            entry = nfa.new_state()
            exit_ = nfa.new_state()
            nfa.add_epsilon(entry, exit_)
            return entry, exit_
        if isinstance(expr, Label):
            entry = nfa.new_state()
            exit_ = nfa.new_state()
            nfa.add_transition(entry, expr.name, exit_)
            return entry, exit_
        if isinstance(expr, Concat):
            entry, current_exit = build(expr.parts[0])
            for part in expr.parts[1:]:
                next_entry, next_exit = build(part)
                nfa.add_epsilon(current_exit, next_entry)
                current_exit = next_exit
            return entry, current_exit
        if isinstance(expr, Union):
            entry = nfa.new_state()
            exit_ = nfa.new_state()
            for alternative in expr.alternatives:
                alt_entry, alt_exit = build(alternative)
                nfa.add_epsilon(entry, alt_entry)
                nfa.add_epsilon(alt_exit, exit_)
            return entry, exit_
        if isinstance(expr, Plus):
            body_entry, body_exit = build(expr.body)
            entry = nfa.new_state()
            exit_ = nfa.new_state()
            nfa.add_epsilon(entry, body_entry)
            nfa.add_epsilon(body_exit, exit_)
            nfa.add_epsilon(body_exit, body_entry)  # repeat
            return entry, exit_
        if isinstance(expr, Star):
            body_entry, body_exit = build(expr.body)
            entry = nfa.new_state()
            exit_ = nfa.new_state()
            nfa.add_epsilon(entry, body_entry)
            nfa.add_epsilon(body_exit, exit_)
            nfa.add_epsilon(body_exit, body_entry)
            nfa.add_epsilon(entry, exit_)  # skip
            return entry, exit_
        if isinstance(expr, Optional):
            body_entry, body_exit = build(expr.body)
            entry = nfa.new_state()
            exit_ = nfa.new_state()
            nfa.add_epsilon(entry, body_entry)
            nfa.add_epsilon(body_exit, exit_)
            nfa.add_epsilon(entry, exit_)
            return entry, exit_
        raise TypeError(f"unknown regex node {expr!r}")

    entry, exit_ = build(node)
    nfa.start = entry
    nfa.accept = exit_
    return nfa


@dataclass(frozen=True)
class LabelNFA:
    """Epsilon-free NFA over edge labels, ready for product traversal.

    ``delta`` maps ``state -> label -> frozenset(states)`` where every
    target set is already epsilon-closed; ``start`` is the epsilon-closed
    initial state set.  The automaton is trim: every state is reachable
    from ``start`` and reaches some state of ``accepts``, and every state
    in ``start``, ``accepts`` and every target set is a key of ``delta``.
    """

    start: frozenset[int]
    accepts: frozenset[int]
    delta: dict[int, dict[str, frozenset[int]]]
    nullable: bool
    first_labels: frozenset[str]
    labels: frozenset[str]

    @property
    def num_states(self) -> int:
        return len(self.delta)

    def step(self, states: frozenset[int], label: str) -> frozenset[int]:
        """All states reachable from ``states`` by one ``label`` edge."""
        result: set[int] = set()
        delta = self.delta
        for state in states:
            targets = delta[state].get(label)
            if targets:
                result.update(targets)
        return frozenset(result)

    def is_accepting(self, states: frozenset[int]) -> bool:
        """True when the state set contains an accept state."""
        return not self.accepts.isdisjoint(states)

    def accepts_word(self, word: list[str] | tuple[str, ...]) -> bool:
        """Membership test for a label sequence (used by tests/oracles)."""
        states = self.start
        for label in word:
            states = self.step(states, label)
            if not states:
                return False
        return self.is_accepting(states)


def compile_nfa(node: RegexNode) -> LabelNFA:
    """Compile an AST into the trim, epsilon-free :class:`LabelNFA`.

    The construction closes every transition target over epsilon edges, so
    the simulator never has to chase epsilons at traversal time -- the
    per-edge work during graph traversal is a single dictionary lookup.
    Closed sets keep only the states that matter after closing: those
    with a label transition, plus the accept state.  Any other Thompson
    state just passes epsilons on -- it steps nowhere itself, and its
    acceptance is carried by the accept state its closure contains -- so
    a product traversal would only pair it with every vertex for nothing.

    The result is trim.  A regex has no empty-set operator, so every
    label occurrence lies on some accepted word: each kept state is
    reachable from ``start`` and reaches the accept state.  States keep
    their Thompson numbers, so two compilations of one query agree on
    every state id.
    """
    eps_nfa = thompson(node)
    accept = eps_nfa.accept
    kept = set(eps_nfa.transitions) | {accept}
    closures: dict[int, frozenset[int]] = {
        state: eps_nfa.epsilon_closure({state}) & kept
        for state in range(eps_nfa.num_states)
    }
    start = closures[eps_nfa.start]
    delta: dict[int, dict[str, frozenset[int]]] = {
        state: {
            label: frozenset().union(*(closures[target] for target in targets))
            for label, targets in eps_nfa.transitions.get(state, {}).items()
        }
        for state in sorted(kept)
    }
    return LabelNFA(
        start=start,
        accepts=frozenset((accept,)),
        delta=delta,
        nullable=accept in start,
        first_labels=frozenset(label for state in start for label in delta[state]),
        labels=frozenset(label for out in delta.values() for label in out),
    )
