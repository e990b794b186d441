"""Parser for the textual form of regular path queries.

The concrete syntax follows the paper's notation with ASCII conveniences::

    a.(b.c)+.c         the paper's  d·(b·c)+·c  (the middle dot also works)
    a|b                alternation
    (a.b)*.b+          closures
    a?                 option (= ()|a)
    ()                 epsilon (the empty word)
    <has part>         quoted label when the name is not an identifier

Concatenation may be written with ``.``, with the typographic ``·``, or by
simple juxtaposition (``(a|b)c``).  Operator precedence, loosest to
tightest: ``|``  <  concatenation  <  postfix ``+ * ?``.

:func:`parse` returns an immutable :class:`~repro.regex.ast.RegexNode`;
:class:`~repro.errors.RPQSyntaxError` carries the character offset of the
first offending token.

Every layer below the parser walks the AST recursively, so a query may
nest at most :data:`MAX_NESTING` groups and postfix operators around any
label (``((a)+)*`` nests 4); past that it is a syntax error, raised at
the ``(`` or operator that crosses the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RPQSyntaxError
from repro.regex.ast import (
    EPSILON,
    Label,
    Optional,
    Plus,
    RegexNode,
    Star,
    concat,
    union,
)

__all__ = ["MAX_NESTING", "parse", "tokenize", "Token"]

#: Most groups plus postfix operators a query may nest around one label.
MAX_NESTING = 100

_SYMBOLS = {".", "·", "|", "+", "*", "?", "(", ")"}


@dataclass(frozen=True)
class Token:
    """One lexical token: a ``kind`` (``label`` or a symbol), text, offset."""

    kind: str
    text: str
    position: int


def tokenize(query: str) -> list[Token]:
    """Split a query string into tokens; raises on stray characters."""
    tokens: list[Token] = []
    i = 0
    length = len(query)
    while i < length:
        ch = query[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            kind = "." if ch == "·" else ch
            tokens.append(Token(kind, ch, i))
            i += 1
            continue
        if ch == "<":
            end = query.find(">", i + 1)
            if end == -1:
                raise RPQSyntaxError("unterminated quoted label '<...'", i)
            name = query[i + 1 : end]
            if not name:
                raise RPQSyntaxError("empty quoted label '<>'", i)
            tokens.append(Token("label", name, i))
            i = end + 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (query[i].isalnum() or query[i] == "_"):
                i += 1
            tokens.append(Token("label", query[start:i], start))
            continue
        raise RPQSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._index = 0
        self._groups = 0  # currently open '(' groups

    def _nest(self, nesting: int, token: Token) -> int:
        """``nesting`` inside the open groups; raises past the bound."""
        if self._groups + nesting > MAX_NESTING:
            raise RPQSyntaxError(
                f"query nests deeper than {MAX_NESTING} groups and closures",
                token.position,
            )
        return nesting

    def _peek(self) -> Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._peek()
        if token is None:
            raise RPQSyntaxError(f"expected {kind!r}, found end of query", len(self._source))
        if token.kind != kind:
            raise RPQSyntaxError(
                f"expected {kind!r}, found {token.text!r}", token.position
            )
        return self._advance()

    def parse(self) -> RegexNode:
        if not self._tokens:
            raise RPQSyntaxError("empty query", 0)
        node, _nesting = self._union()
        trailing = self._peek()
        if trailing is not None:
            raise RPQSyntaxError(
                f"unexpected {trailing.text!r} after complete query",
                trailing.position,
            )
        return node

    # Each rule returns its node and the groups plus postfix operators it
    # nests around its deepest label.
    def _union(self) -> tuple[RegexNode, int]:
        node, nesting = self._concat()
        alternatives = [node]
        while True:
            token = self._peek()
            if token is None or token.kind != "|":
                break
            self._advance()
            node, inner = self._concat()
            alternatives.append(node)
            nesting = max(nesting, inner)
        if len(alternatives) == 1:
            return alternatives[0], nesting
        return union(*alternatives), nesting

    def _concat(self) -> tuple[RegexNode, int]:
        node, nesting = self._postfix()
        parts = [node]
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind == ".":
                self._advance()
            # Juxtaposition: the next token can begin an atom.
            elif token.kind not in ("label", "("):
                break
            node, inner = self._postfix()
            parts.append(node)
            nesting = max(nesting, inner)
        if len(parts) == 1:
            return parts[0], nesting
        return concat(*parts), nesting

    def _postfix(self) -> tuple[RegexNode, int]:
        node, nesting = self._atom()
        while True:
            token = self._peek()
            if token is None or token.kind not in ("+", "*", "?"):
                break
            self._advance()
            nesting = self._nest(nesting + 1, token)
            if token.kind == "+":
                node = Plus(node)
            elif token.kind == "*":
                node = Star(node)
            else:
                node = Optional(node)
        return node, nesting

    def _atom(self) -> tuple[RegexNode, int]:
        token = self._peek()
        if token is None:
            raise RPQSyntaxError("expected a label or '('", len(self._source))
        if token.kind == "label":
            self._advance()
            return Label(token.text), 0
        if token.kind == "(":
            self._advance()
            inner = self._peek()
            if inner is not None and inner.kind == ")":
                self._advance()
                return EPSILON, 0
            self._groups += 1
            self._nest(0, token)  # bounds the descent before it recurses
            node, nesting = self._union()
            self._expect(")")
            self._groups -= 1
            return node, self._nest(nesting + 1, token)
        raise RPQSyntaxError(
            f"expected a label or '(', found {token.text!r}", token.position
        )


def parse(query: str | RegexNode) -> RegexNode:
    """Parse a query string into an AST (idempotent on AST input)."""
    if isinstance(query, RegexNode):
        return query
    return _Parser(tokenize(query), query).parse()
