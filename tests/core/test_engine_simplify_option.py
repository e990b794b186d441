"""Simplifying a query before evaluation: same answers, less shared work.

Engines evaluate queries as given; a caller that wants the rewriter
evaluates ``simplify(parse(query))``.
"""

import pytest

from repro.core.engines import FullSharingEngine, NoSharingEngine, RTCSharingEngine
from repro.db import GraphDB
from repro.regex.parser import parse
from repro.regex.simplify import simplify

ENGINES = [NoSharingEngine, FullSharingEngine, RTCSharingEngine]


@pytest.mark.parametrize("engine_class", ENGINES)
class TestSimplifyOption:
    def test_results_identical(self, fig1, engine_class):
        for query in ["(((b.c)+)+)+", "(b|b).c", "d.((b.c)+)?", "(c*)*.b"]:
            plain = engine_class(fig1).evaluate(query)
            simplified = engine_class(fig1).evaluate(simplify(parse(query)))
            assert plain == simplified, query

    def test_off_by_default(self, fig1, engine_class):
        # Engines evaluate the query as given, and there is no option
        # that turns the rewriter on, on the engine or on a session.
        with pytest.raises(TypeError):
            engine_class(fig1, simplify_queries=True)
        engine_name = {
            NoSharingEngine: "no",
            FullSharingEngine: "full",
            RTCSharingEngine: "rtc",
        }[engine_class]
        with pytest.raises(TypeError):
            GraphDB.open(fig1, engine=engine_name, simplify_queries=True)


class TestSimplifyReducesWork:
    def test_fewer_cache_entries_for_nested_closures(self, fig1):
        # (((b.c)+)+)+ evaluates three nested RTCs without simplification;
        # with it, only the innermost body's RTC is computed.
        plain = RTCSharingEngine(fig1)
        plain.evaluate("(((b.c)+)+)+")
        rewriting = RTCSharingEngine(fig1)
        rewriting.evaluate(simplify(parse("(((b.c)+)+)+")))
        assert rewriting.rtc_cache.stats.entries < plain.rtc_cache.stats.entries

    def test_simplified_cache_key_is_canonical_spelling(self, fig1):
        engine = RTCSharingEngine(fig1)
        engine.evaluate(simplify(parse("(((b.c)+)+)+")))
        assert "b.c" in engine.rtc_cache._entries
