"""Engine-registry tests: registration, override, errors."""

import pytest

from repro.core.engines import (
    FullSharingEngine,
    NoSharingEngine,
    RPQEngine,
    RTCSharingEngine,
)
from repro.db import GraphDB
from repro.db.registry import (
    available_engines,
    create_engine,
    get_engine_class,
    register_engine,
    reset_registry,
    unregister_engine,
)
from repro.errors import ReproError, UnknownEngineError


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with the built-in-only registry."""
    reset_registry()
    yield
    reset_registry()


class ReverseEngine(NoSharingEngine):
    """Toy third-party engine: evaluates on the reversed query results."""

    name = "Reverse"

    def _evaluate_node(self, node):
        return {(b, a) for a, b in super()._evaluate_node(node)}


class TestBuiltins:
    def test_defaults_registered(self):
        assert available_engines() == ("full", "no", "rtc")
        assert get_engine_class("no") is NoSharingEngine
        assert get_engine_class("full") is FullSharingEngine
        assert get_engine_class("rtc") is RTCSharingEngine

    def test_case_insensitive(self):
        assert get_engine_class("RTC") is RTCSharingEngine

    def test_create_engine(self, fig1):
        engine = create_engine("rtc", fig1, cache_mode="semantic")
        assert isinstance(engine, RTCSharingEngine)
        assert engine.rtc_cache.mode == "semantic"


class TestRegistration:
    def test_register_and_use(self, fig1):
        register_engine("reverse", ReverseEngine)
        assert "reverse" in available_engines()
        engine = create_engine("reverse", fig1)
        assert engine.evaluate("b.c") == {
            (b, a) for a, b in NoSharingEngine(fig1).evaluate("b.c")
        }

    def test_decorator_form(self):
        @register_engine("deco")
        class DecoEngine(NoSharingEngine):
            pass

        assert get_engine_class("deco") is DecoEngine

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine("rtc", ReverseEngine)

    def test_replace_override(self, fig1):
        register_engine("rtc", ReverseEngine, replace=True)
        assert get_engine_class("rtc") is ReverseEngine
        # GraphDB picks the override up by name.
        db = GraphDB.open(fig1, engine="rtc")
        assert isinstance(db.engine, ReverseEngine)

    def test_reregistering_same_class_is_idempotent(self):
        register_engine("reverse", ReverseEngine)
        register_engine("reverse", ReverseEngine)  # no replace= needed

    def test_unregister(self):
        register_engine("reverse", ReverseEngine)
        unregister_engine("reverse")
        assert "reverse" not in available_engines()
        with pytest.raises(UnknownEngineError):
            unregister_engine("reverse")

    def test_bad_names_and_classes(self):
        with pytest.raises(TypeError):
            register_engine("", ReverseEngine)
        with pytest.raises(TypeError):
            register_engine(None, ReverseEngine)
        with pytest.raises(TypeError):
            register_engine("thing", object())


class TestUnknownEngine:
    def test_error_type_and_payload(self, fig1):
        with pytest.raises(UnknownEngineError) as info:
            create_engine("warp", fig1)
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)
        assert info.value.name == "warp"
        assert info.value.available == ("full", "no", "rtc")

    def test_graphdb_open_raises(self, fig1):
        with pytest.raises(UnknownEngineError):
            GraphDB.open(fig1, engine="warp")


class TestThirdPartyEngines:
    def test_create_engine_resolves_builtins(self, fig1):
        assert isinstance(create_engine("no", fig1), NoSharingEngine)

    def test_create_engine_resolves_registry_additions(self, fig1):
        register_engine("reverse", ReverseEngine)
        assert isinstance(create_engine("reverse", fig1), ReverseEngine)

    def test_third_party_usable_from_graphdb_without_touching_core(self, fig1):
        register_engine("reverse", ReverseEngine)
        db = GraphDB.open(fig1, engine="reverse")
        assert isinstance(db.engine, ReverseEngine)
        assert isinstance(db.engine, RPQEngine)


class TestMinimalDuckTypedEngine:
    """The registry's documented floor: constructible + evaluate() only."""

    class TinyEngine:
        def __init__(self, graph, **kwargs):
            self.graph = graph

        def evaluate(self, query):
            from repro.rpq.evaluate import eval_rpq

            return eval_rpq(self.graph, query)

    def test_full_session_lifecycle(self, fig1):
        register_engine("tiny", self.TinyEngine)
        with GraphDB.open(fig1, engine="tiny") as db:
            result = db.execute("b.c")
            assert result == self.TinyEngine(fig1).evaluate("b.c")
            assert result.shared_pairs == 0  # no shared_data_size(): default
            db.update(add=[(100, "b", 101)])  # no reset_cache(): tolerated
            assert db.stats()["queries_evaluated"] == 0
        assert db.closed  # close() survived the missing reset_cache too

    def test_cli_query_with_minimal_engine(self, fig1, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import dump_edge_list

        register_engine("tiny", self.TinyEngine)
        path = tmp_path / "g.txt"
        dump_edge_list(fig1, path)
        assert main(["query", str(path), "b.c", "--engine", "tiny"]) == 0
        assert "| 5" in capsys.readouterr().out
