"""Tests for the RPQ query parser."""

import pytest

from repro.core.engines import FullSharingEngine, NoSharingEngine, RTCSharingEngine
from repro.errors import RPQSyntaxError
from repro.regex.ast import (
    EPSILON,
    Label,
    Optional,
    Plus,
    Star,
    concat,
    union,
)
from repro.regex.parser import MAX_NESTING, parse, tokenize


class TestTokenizer:
    def test_identifiers_and_symbols(self):
        tokens = tokenize("ab.(c)+")
        assert [(t.kind, t.text) for t in tokens] == [
            ("label", "ab"),
            (".", "."),
            ("(", "("),
            ("label", "c"),
            (")", ")"),
            ("+", "+"),
        ]

    def test_middle_dot_is_concat(self):
        tokens = tokenize("a·b")
        assert [t.kind for t in tokens] == ["label", ".", "label"]

    def test_quoted_label(self):
        tokens = tokenize("<has part>.a")
        assert tokens[0].kind == "label"
        assert tokens[0].text == "has part"

    def test_unterminated_quote(self):
        with pytest.raises(RPQSyntaxError, match="unterminated"):
            tokenize("<oops")

    def test_empty_quote(self):
        with pytest.raises(RPQSyntaxError, match="empty quoted"):
            tokenize("<>")

    def test_stray_character(self):
        with pytest.raises(RPQSyntaxError, match="unexpected character"):
            tokenize("a @ b")

    def test_whitespace_ignored(self):
        assert len(tokenize("  a  .  b  ")) == 3


class TestParser:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a", Label("a")),
            ("a.b", concat(Label("a"), Label("b"))),
            ("a·b", concat(Label("a"), Label("b"))),
            ("a|b", union(Label("a"), Label("b"))),
            ("a+", Plus(Label("a"))),
            ("a*", Star(Label("a"))),
            ("a?", Optional(Label("a"))),
            ("()", EPSILON),
            ("(a)", Label("a")),
            ("(a.b)+", Plus(concat(Label("a"), Label("b")))),
            ("a.b|c", union(concat(Label("a"), Label("b")), Label("c"))),
            ("(a|b).c", concat(union(Label("a"), Label("b")), Label("c"))),
            ("a++", Plus(Plus(Label("a")))),
            ("a*?", Optional(Star(Label("a")))),
            ("<x y>.b", concat(Label("x y"), Label("b"))),
        ],
    )
    def test_structures(self, text, expected):
        assert parse(text) == expected

    def test_juxtaposition_concat(self):
        assert parse("(a|b)c") == concat(union(Label("a"), Label("b")), Label("c"))
        assert parse("a b") == concat(Label("a"), Label("b"))

    def test_adjacent_identifiers_are_one_label(self):
        # "ab" is a single label, not a . b.
        assert parse("ab") == Label("ab")

    def test_precedence_full_query(self):
        # The paper's d·(b·c)+·c.
        expected = concat(
            Label("d"), Plus(concat(Label("b"), Label("c"))), Label("c")
        )
        assert parse("d.(b.c)+.c") == expected

    def test_parse_is_idempotent_on_ast(self):
        node = parse("a.(b|c)+")
        assert parse(node) is node

    def test_roundtrip_through_to_string(self):
        for text in ["a.(b.c)+.c", "(a.b)*.b+.(a.b+.c)+", "a|b.c?", "(a|b)+.c"]:
            node = parse(text)
            assert parse(node.to_string()) == node

    @pytest.mark.parametrize(
        "bad",
        ["", "  ", "|a", "a|", "a.", ".a", "(a", "a)", "+", "a||b", "()+(",],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(RPQSyntaxError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(RPQSyntaxError) as excinfo:
            parse("a . . b")
        assert excinfo.value.position is not None


#: One query of each way to nest, at nesting ``n`` (``n`` even).
NESTED = {
    "groups": lambda n: "(" * n + "b" + ")" * n,
    "closed groups": lambda n: "(" * (n // 2) + "b" + ")+" * (n // 2),
    "postfix": lambda n: "b" + "+" * n,
    "chain": lambda n: "(b." * n + "c" + ")" * n,
}


class TestNesting:
    @pytest.mark.parametrize("shape", NESTED)
    def test_past_the_bound_is_a_syntax_error(self, shape):
        with pytest.raises(RPQSyntaxError, match="nests deeper than 100"):
            parse(NESTED[shape](MAX_NESTING + 2))

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(" * 600 + "a" + ")" * 600, 100),  # the 101st '('
            ("b" + "+" * 1000, 101),  # the 101st '+'
            ("(" * 51 + "b" + ")+" * 51, 151),  # the '+' that makes 101
            ("(b." * 101 + "c" + ")" * 101, 300),
        ],
        ids=["groups", "postfix", "closed groups", "chain"],
    )
    def test_the_error_points_at_the_crossing_token(self, text, position):
        with pytest.raises(RPQSyntaxError) as excinfo:
            parse(text)
        assert excinfo.value.position == position

    @pytest.mark.parametrize("shape", NESTED)
    def test_at_the_bound_answers_like_the_oracle(self, shape, fig1):
        text = NESTED[shape](MAX_NESTING)
        node = parse(text)
        assert parse(node.to_string()) == node
        expected = NoSharingEngine(fig1).evaluate(text)
        for mode in ("syntactic", "semantic"):
            assert RTCSharingEngine(fig1, cache_mode=mode).evaluate(text) == expected
        assert FullSharingEngine(fig1).evaluate(text) == expected
