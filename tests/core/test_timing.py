"""Per-call phase timing: every evaluation's phases are its own.

One engine serves several threads at once (the server's workers all
evaluate on the session's engine), so a call's phases come from the
dict :func:`call_phases` opens on the calling thread, and the engine's
totals are counted under its lock.
"""

import sys
import threading
import time

import pytest

from repro.core import engines as engines_module
from repro.core.engines import RTCSharingEngine, evaluate_plan
from repro.core.plan import plan_for
from repro.core.timing import (
    ALL_PHASES,
    PHASE_PRE_JOIN,
    PHASE_REMAINDER,
    PHASE_SHARED_DATA,
    call_phases,
    measure,
)
from repro.db import GraphDB, register_engine, unregister_engine
from repro.server import Client, ServerConfig, ServerThread


class TestMeasure:
    def test_accumulates_spans_into_the_open_dict(self):
        with call_phases() as phases:
            with measure("x"):
                time.sleep(0.002)
            with measure("x"):
                time.sleep(0.002)
        assert phases["x"] >= 0.004

    def test_records_nothing_without_an_open_dict(self):
        with measure("stray"):
            pass
        with call_phases() as phases:
            pass
        assert phases == {}

    def test_nested_call_restores_the_outer_dict(self):
        with call_phases() as outer:
            with measure("a"):
                pass
            with call_phases() as inner:
                with measure("b"):
                    pass
            with measure("c"):
                pass
        assert set(outer) == {"a", "c"}
        assert set(inner) == {"b"}

    def test_records_even_on_exception(self):
        with call_phases() as phases:
            with pytest.raises(RuntimeError):
                with measure("risky"):
                    time.sleep(0.001)
                    raise RuntimeError("boom")
        assert phases["risky"] > 0

    def test_phase_constants(self):
        assert ALL_PHASES == (PHASE_SHARED_DATA, PHASE_PRE_JOIN, PHASE_REMAINDER)


class TestConcurrentCallsOnOneEngine:
    def test_each_call_holds_only_its_own_phases(self, fig1, monkeypatch):
        """A opens its call, B opens its call, A measures and returns,
        then B measures and returns: interleaved, not nested."""
        engine = RTCSharingEngine(fig1)
        a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()
        real = engines_module.compute_rtc

        def gated(rg):
            name = threading.current_thread().name
            if name == "A":
                a_in.set()
                assert b_in.wait(timeout=10)
            elif name == "B":
                b_in.set()
                assert a_done.wait(timeout=10)
            return real(rg)

        monkeypatch.setattr(engines_module, "compute_rtc", gated)
        calls: dict = {}

        def run_a():
            calls["A"] = evaluate_plan(engine, plan_for("d.(b.c)+.c"))
            a_done.set()

        def run_b():
            assert a_in.wait(timeout=10)
            calls["B"] = evaluate_plan(engine, plan_for("a.(b)+"))

        threads = [
            threading.Thread(target=run_a, name="A"),
            threading.Thread(target=run_b, name="B"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert set(calls["A"][0]) == {(7, 3), (7, 5)}
        for name in ("A", "B"):
            _pairs, elapsed, phases = calls[name]
            assert set(phases) == set(ALL_PHASES), name
            assert sum(phases.values()) <= elapsed, name
        assert engine.queries_evaluated == 2


class SlowCountingEngine(RTCSharingEngine):
    """Stores ``queries_evaluated`` slowly, so the read and the write of
    ``queries_evaluated += 1`` are far apart: two threads counting at
    once lose an update unless the engine counts under its lock."""

    @property
    def queries_evaluated(self) -> int:
        return self._queries

    @queries_evaluated.setter
    def queries_evaluated(self, value: int) -> None:
        # Longer than a switch interval: no read of this engine is ever
        # timed warm enough for the inline lane, so all take the pool.
        time.sleep(2 * sys.getswitchinterval())
        self._queries = value


class TestServedCounts:
    @pytest.fixture
    def slow_counting(self):
        register_engine("slow-counting", SlowCountingEngine)
        yield "slow-counting"
        unregister_engine("slow-counting")

    def test_every_read_is_counted_once(self, fig1, slow_counting):
        threads_count, reads = 4, 6
        texts = ["a.(b.c)+", "(b)+", "d.(b.c)+.c", "(c)+.b"]
        db = GraphDB.open(fig1, engine=slow_counting)
        expected = {text: set(GraphDB.open(fig1).execute(text)) for text in texts}
        failures: list = []
        with ServerThread(db, ServerConfig(workers=threads_count)) as handle:
            barrier = threading.Barrier(threads_count)

            def client(text):
                with Client(*handle.address) as connection:
                    barrier.wait(timeout=10)
                    for _ in range(reads):
                        if connection.query(text).pairs != expected[text]:
                            failures.append(text)

            workers = [
                threading.Thread(target=client, args=(text,)) for text in texts
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        assert db.stats()["queries_evaluated"] == threads_count * reads


class TestUpdateRepairIsNotCounted:
    def test_the_next_query_after_a_rebuild_has_no_build_phase(self, fig1):
        db = GraphDB.open(fig1)
        assert PHASE_SHARED_DATA in db.execute("a.(b.c)+").phase_times
        # Ten new starts of b.c paths outnumber G_R's rows: the repair
        # re-evaluates the body (build_rtc) instead of patching rows.
        db.update(add=[(10 + index, "b", 2) for index in range(10)])
        assert db.rtc_cache.snapshot_stats().repairs == {"reevaluated": 1}
        hits = db.rtc_cache.snapshot_stats().hits
        result = db.execute("a.(b.c)+")
        assert db.rtc_cache.snapshot_stats().hits == hits + 1
        assert PHASE_SHARED_DATA not in result.phase_times
        assert set(result.phase_times) >= {PHASE_PRE_JOIN, PHASE_REMAINDER}
