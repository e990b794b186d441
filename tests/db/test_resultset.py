"""ResultSet tests: set-likeness, laziness, renderings, engine parity."""

import json

import pytest

from repro.core.engines import (
    FullSharingEngine,
    NoSharingEngine,
    RTCSharingEngine,
)
from repro.core.timing import ALL_PHASES
from repro.db import GraphDB, ResultSet
from repro.db.resultset import ExecutionStats
from repro.obs import phase_totals

ENGINES = {
    "no": NoSharingEngine,
    "full": FullSharingEngine,
    "rtc": RTCSharingEngine,
}

WORKLOAD = [
    "d.(b.c)+.c",
    "a.(b.c)+",
    "(b.c)+.c",
    "b.c",
    "a|d",
    "d.(b.c)*.e?",
]


class TestCrossEngineParity:
    """The acceptance-criteria round-trip: open -> prepare -> execute_many
    equals direct legacy-engine evaluation, for every engine."""

    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_matches_legacy_evaluate(self, fig1, engine_name):
        db = GraphDB.open(fig1, engine=engine_name)
        prepared = [db.prepare(query) for query in WORKLOAD]
        results = db.execute_many(prepared)
        legacy = ENGINES[engine_name](fig1)
        for query, result in zip(WORKLOAD, results):
            assert result == legacy.evaluate(query), query
            assert result.engine == engine_name

    def test_engines_agree_with_each_other(self, fig1):
        all_results = [
            GraphDB.open(fig1, engine=name).execute_many(WORKLOAD)
            for name in sorted(ENGINES)
        ]
        first, *rest = all_results
        for other in rest:
            assert first == other


class TestSetLikeness:
    @pytest.fixture
    def result(self, fig1):
        return GraphDB.open(fig1).execute("d.(b.c)+.c")

    def test_equality_both_ways(self, result):
        assert result == {(7, 3), (7, 5)}
        assert result == frozenset({(7, 3), (7, 5)})
        assert not result == {(7, 3)}
        assert result != {(7, 3)}
        assert not result == "not a set"

    def test_len_contains_bool_iter(self, result):
        assert len(result) == 2
        assert (7, 3) in result and (1, 2) not in result
        assert bool(result)
        assert list(result) == [(7, 3), (7, 5)]  # deterministic order

    @pytest.mark.parametrize("engine", sorted(ENGINES))  # bitmap- and set-valued
    @pytest.mark.parametrize("lazy", [False, True])
    def test_row_access(self, fig1, engine, lazy):
        result = GraphDB.open(fig1, engine=engine).execute("(b.c)+", lazy=lazy)
        pairs = set(GraphDB.open(fig1).execute("(b.c)+"))
        assert sorted(result.starts()) == sorted({start for start, _ in pairs})
        for start in result.starts():
            assert sorted(result.ends_of(start)) == sorted(
                end for source, end in pairs if source == start
            )
        assert result.ends_of(7) == () == result.ends_of("unknown")

    def test_count_property(self, result):
        assert result.count == 2

    def test_hashable(self, result):
        assert hash(result) == hash(frozenset({(7, 3), (7, 5)}))

    def test_empty_result_falsy(self, fig1):
        assert not GraphDB.open(fig1).execute("zz")  # label not in alphabet


class TestLaziness:
    def test_deferred_until_touched(self, fig1):
        db = GraphDB.open(fig1)
        result = db.execute("d.(b.c)+.c", lazy=True)
        assert not result.is_materialised
        assert db.engine.queries_evaluated == 0
        assert "deferred" in repr(result)
        assert result.pairs == {(7, 3), (7, 5)}
        assert result.is_materialised
        assert db.engine.queries_evaluated == 1

    def test_materialises_once(self, fig1):
        db = GraphDB.open(fig1)
        result = db.execute("b.c", lazy=True)
        result.pairs
        result.pairs
        assert db.engine.queries_evaluated == 1

    def test_stats_touch_materialises(self, fig1):
        result = GraphDB.open(fig1).execute("b.c", lazy=True)
        assert result.total_time >= 0.0
        assert result.is_materialised

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ResultSet("q", "rtc")
        with pytest.raises(ValueError):
            ResultSet("q", "rtc", pairs=set(), fetch=lambda: (set(), ExecutionStats()))


class TestStatistics:
    def test_phase_times_attributed_per_query(self, fig1):
        db = GraphDB.open(fig1)
        result = db.execute("d.(b.c)+.c")
        assert set(result.phase_times) <= set(ALL_PHASES) | {"materialise"}
        assert result.total_time > 0.0
        assert result.shared_pairs == 3

    def test_library_reads_reach_the_phase_ledger(self, fig1):
        db = GraphDB.open(fig1)
        before = phase_totals()
        db.execute("d.(b.c)+.c")
        after = phase_totals()
        for phase in ("rtc", "evaluate"):
            assert after.get(phase, 0.0) > before.get(phase, 0.0), phase

    def test_decode_is_timed_as_materialise_phase(self, fig1):
        # The rtc engine hands back a packed bitmap; turning it into
        # tuples is part of what the caller waits for, so it is a phase
        # of its own and counted in the total.
        result = GraphDB.open(fig1).execute("d.(b.c)+.c")
        phases = result.phase_times
        assert phases["materialise"] > 0.0
        assert result.total_time >= sum(phases.values()) * 0.99
        assert "materialise" in result.to_dict()["timings"]["phases"]

    def test_set_valued_results_have_no_materialise_phase(self, fig1):
        # The Full baseline joins tuple sets; nothing is left to decode.
        result = GraphDB.open(fig1, engine="full").execute("d.(b.c)+.c")
        assert "materialise" not in result.phase_times

    def test_no_sharing_engine_reports_zero_shared(self, fig1):
        result = GraphDB.open(fig1, engine="no").execute("d.(b.c)+.c")
        assert result.shared_pairs == 0


class TestRenderings:
    def test_to_dict_and_json(self, fig1):
        result = GraphDB.open(fig1).execute("d.(b.c)+.c")
        payload = result.to_dict()
        assert payload["query"] == "d.(b.c)+.c"
        assert payload["engine"] == "rtc"
        assert payload["count"] == 2
        assert payload["pairs"] == [[7, 3], [7, 5]]
        assert payload["shared_pairs"] == 3
        assert payload["timings"]["total"] > 0.0
        assert json.loads(result.to_json(indent=2)) == json.loads(result.to_json())

    def test_to_json_stringifies_exotic_vertices(self):
        result = ResultSet("q", "rtc", pairs={((1, 2), "v")})
        decoded = json.loads(result.to_json())
        assert decoded["count"] == 1

    def test_to_dot(self, fig1):
        dot = GraphDB.open(fig1).execute("d.(b.c)+.c").to_dot()
        assert dot.startswith('digraph "Results" {')
        assert '"7" -> "3";' in dot and '"7" -> "5";' in dot
        assert dot.endswith("}")

    def test_to_dot_escapes_quotes_and_backslashes(self):
        result = ResultSet("q", "rtc", pairs={('say "hi"', "back\\slash")})
        dot = result.to_dot(name='my "graph"')
        assert 'digraph "my \\"graph\\"" {' in dot
        assert '"say \\"hi\\"" -> "back\\\\slash";' in dot
