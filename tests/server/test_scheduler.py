"""Scheduler unit tests: grouping, admission, deadlines, updates."""

import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.core.cache import make_key_function
from repro.core.plan import closure_group_key, plan_for
from repro.core.engines import NoSharingEngine, RTCSharingEngine
from repro.db import GraphDB, register_engine, unregister_engine
from repro.errors import AdmissionError, DeadlineExpiredError, ServerError
from repro.regex.parser import parse
from repro.server import Client, ServerConfig, ServerThread
from repro.server.scheduler import (
    QueryJob,
    SharingScheduler,
    group_jobs,
)

KEY = make_key_function("syntactic")
#: 8192 DNF clauses: past MAX_CLAUSES, refused in milliseconds.
WIDE = ".".join(["(a|b)"] * 13)


def job(text: str) -> QueryJob:
    plan = plan_for(text)
    return QueryJob(
        text=text,
        plan=plan,
        group_key=closure_group_key(plan.node, KEY),
        future=Future(),
    )


class TestGroupKey:
    def test_same_body_same_key(self):
        first = closure_group_key(parse("a.(b.c)+"), KEY)
        second = closure_group_key(parse("d.(b.c)+.c"), KEY)
        assert first == second != ""

    def test_different_bodies_differ(self):
        assert closure_group_key(parse("a.(b.c)+"), KEY) != closure_group_key(
            parse("a.(c.b)+"), KEY
        )

    def test_closure_free_is_empty(self):
        assert closure_group_key(parse("a.b.c"), KEY) == ""

    def test_nested_bodies_contribute(self):
        flat = closure_group_key(parse("(b)+"), KEY)
        nested = closure_group_key(parse("((b)+.c)+"), KEY)
        assert flat != nested
        assert KEY(parse("b")) in nested

    def test_semantic_mode_identifies_equal_languages(self):
        semantic = make_key_function("semantic")
        assert closure_group_key(
            parse("(a.b|a.c)+"), semantic
        ) == closure_group_key(parse("(a.(b|c))+"), semantic)


class TestKeyFunctionMode:
    def test_semantic_session_batches_by_semantic_keys(self, fig1):
        """Regression: the scheduler's key mode must follow the
        session's cache mode even though the cache is empty (and hence
        falsy -- it defines __len__) at construction time."""
        db = GraphDB.open(fig1, engine="rtc", cache_mode="semantic")
        scheduler = SharingScheduler(db, start=False)
        assert scheduler.cache_mode == "semantic"
        assert plan_for("(a.b|a.c)+").group_key(scheduler.cache_mode) == plan_for(
            "(a.(b|c))+"
        ).group_key(scheduler.cache_mode)

    def test_syntactic_session_keeps_syntactic_keys(self, fig1):
        db = GraphDB.open(fig1, engine="rtc")
        scheduler = SharingScheduler(db, start=False)
        assert scheduler.cache_mode == "syntactic"
        assert plan_for("(a.b|a.c)+").group_key(scheduler.cache_mode) != plan_for(
            "(a.(b|c))+"
        ).group_key(scheduler.cache_mode)


class TestGrouping:
    def test_groups_by_key_preserving_order(self):
        jobs = [
            job("a.(b.c)+"),
            job("x.y"),
            job("d.(b.c)+.c"),
            job("(c.b)+"),
        ]
        groups = group_jobs(jobs)
        assert [[item.text for item in group] for group in groups] == [
            ["a.(b.c)+", "d.(b.c)+.c"],
            ["x.y"],
            ["(c.b)+"],
        ]

    def test_single_group(self):
        groups = group_jobs([job("(b.c)+"), job("(b.c)+")])
        assert len(groups) == 1 and len(groups[0]) == 2

    def test_uncomputed_keys_group_with_closure_free(self):
        pending = QueryJob(text="(b.c)+", plan=plan_for("(b.c)+"), future=Future())
        assert pending.group_key is None
        groups = group_jobs([pending, job("x.y")])
        assert len(groups) == 1


class ReversingEngine(NoSharingEngine):
    """Answers the inverse relation when built with ``reverse=True``."""

    def __init__(self, graph, reverse: bool = False, **options) -> None:
        super().__init__(graph, **options)
        self.reverse = reverse

    def _evaluate_node(self, node):
        pairs = super()._evaluate_node(node)
        return {(end, start) for start, end in pairs} if self.reverse else pairs


class TestServedSessionOptions:
    @pytest.fixture
    def reversing(self):
        register_engine("reversing", ReversingEngine)
        yield "reversing"
        unregister_engine("reversing")

    def test_served_session_answers_like_the_session(self, fig1, reversing):
        db = GraphDB.open(fig1, engine=reversing, reverse=True)
        expected = set(db.execute("d.(b.c)+.c"))
        assert expected == {(3, 7), (5, 7)}
        with ServerThread(db, ServerConfig()) as handle:
            with Client(*handle.address) as client:
                assert client.query("d.(b.c)+.c").pairs == expected

    def test_a_served_session_builds_one_engine(self, fig1):
        built = []

        class Counting(RTCSharingEngine):
            def __init__(self, graph, **options) -> None:
                super().__init__(graph, **options)
                built.append(self)

        register_engine("counting", Counting)
        try:
            db = GraphDB.open(fig1, engine="counting")
            with ServerThread(db, ServerConfig(workers=3)) as handle:
                with Client(*handle.address) as client:
                    for _ in range(4):  # cold reads take the pool, warm ones not
                        client.query("a.(b.c)+")
                stats = handle.server.scheduler.stats()
            assert built == [db.engine]
            assert db.stats()["queries_evaluated"] == 4
            assert stats["completed"] == 4
        finally:
            unregister_engine("counting")


class TestAdmission:
    def test_queue_full_rejects(self, fig1):
        scheduler = SharingScheduler(
            GraphDB.open(fig1), workers=1, max_queue=2, start=False
        )
        scheduler.submit("a.(b.c)+")
        scheduler.submit("a.(b.c)+")
        with pytest.raises(AdmissionError, match="queue is full"):
            scheduler.submit("a.(b.c)+")
        assert scheduler.metrics.rejected == 1
        assert scheduler.metrics.admitted == 2
        scheduler.stop()

    def test_rejected_update_when_full(self, fig1):
        scheduler = SharingScheduler(
            GraphDB.open(fig1), workers=1, max_queue=1, start=False
        )
        scheduler.submit("a.(b.c)+")
        with pytest.raises(AdmissionError):
            scheduler.submit_update(add=[("x", "b", "y")])
        scheduler.stop()

    def test_queued_jobs_fail_on_stop(self, fig1):
        scheduler = SharingScheduler(
            GraphDB.open(fig1), workers=1, max_queue=4, start=False
        )
        future = scheduler.submit("a.(b.c)+")
        scheduler.stop()
        with pytest.raises(ServerError, match="shutting down"):
            future.result(timeout=5)
        # The outcome ledger balances: nothing reads as still in flight.
        assert scheduler.metrics.snapshot()["in_flight"] == 0

    def test_cancelled_jobs_leave_ledger_balanced(self, fig1):
        scheduler = SharingScheduler(
            GraphDB.open(fig1), workers=1, max_queue=4, start=False
        )
        future = scheduler.submit("a.(b.c)+")
        assert future.cancel()
        scheduler.stop()
        snapshot = scheduler.metrics.snapshot()
        assert snapshot["cancelled"] == 1
        assert snapshot["in_flight"] == 0

    def test_submit_after_stop_raises(self, fig1):
        scheduler = SharingScheduler(GraphDB.open(fig1), workers=1)
        scheduler.stop()
        with pytest.raises(ServerError, match="shutting down"):
            scheduler.submit("a")


class TestDeadlines:
    def test_expired_job_is_dropped(self, fig1):
        scheduler = SharingScheduler(
            GraphDB.open(fig1), workers=1, start=False
        )
        future = scheduler.submit("a.(b.c)+", timeout=0.0)
        time.sleep(0.01)  # guarantee the deadline is in the past
        scheduler.start()
        with pytest.raises(DeadlineExpiredError):
            future.result(timeout=5)
        assert scheduler.metrics.expired == 1
        scheduler.stop()

    def test_generous_deadline_completes(self, fig1):
        scheduler = SharingScheduler(GraphDB.open(fig1), workers=1)
        future = scheduler.submit("d.(b.c)+.c", timeout=30.0)
        pairs, elapsed = future.result(timeout=5)
        assert pairs == {(7, 3), (7, 5)}
        assert elapsed >= 0.0
        scheduler.stop()


class TestExecution:
    def test_results_match_direct_evaluation(self, fig1):
        db = GraphDB.open(fig1)
        scheduler = SharingScheduler(db, workers=2)
        queries = ["d.(b.c)+.c", "a.(b.c)+", "(b.c)+.c", "b.c"]
        futures = [scheduler.submit(query) for query in queries]
        served = [future.result(timeout=10)[0] for future in futures]
        scheduler.stop()
        expected = [
            set(result) for result in GraphDB.open(fig1).execute_many(queries)
        ]
        assert served == expected

    def test_sharing_across_submissions_hits_cache(self, fig1):
        db = GraphDB.open(fig1)
        scheduler = SharingScheduler(db, workers=2)
        futures = [
            scheduler.submit(query)
            for query in ["a.(b.c)+", "d.(b.c)+.c", "(b.c)+.c"]
        ]
        for future in futures:
            future.result(timeout=10)
        stats = scheduler.stats()
        scheduler.stop()
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hits"] >= 2

    def test_evaluation_error_goes_to_future(self, fig1):
        scheduler = SharingScheduler(GraphDB.open(fig1, engine="rtc"), workers=1)
        future = scheduler.submit(WIDE)
        with pytest.raises(Exception, match="clauses"):
            future.result(timeout=10)
        assert scheduler.metrics.failed == 1
        scheduler.stop()

    def test_batched_queries_counted(self, fig1):
        scheduler = SharingScheduler(GraphDB.open(fig1), workers=1)
        scheduler.submit("b.c").result(timeout=10)
        scheduler.stop()
        assert scheduler.metrics.batches >= 1
        assert scheduler.metrics.max_batch_size >= 1


class TestUpdates:
    def test_update_applies_and_invalidates(self, fig1):
        db = GraphDB.open(fig1)
        scheduler = SharingScheduler(db, workers=2)
        before = scheduler.submit("(b.c)+").result(timeout=10)[0]
        scheduler.submit_update(add=[(8, "b", 1)]).result(timeout=10)
        after = scheduler.submit("(b.c)+").result(timeout=10)[0]
        scheduler.stop()
        assert db.graph.has_edge(8, "b", 1)
        assert before != after
        assert after == set(GraphDB.open(db.graph).execute("(b.c)+"))

    def test_failed_update_surfaces(self, fig1):
        db = GraphDB.open(fig1)
        scheduler = SharingScheduler(db, workers=1)
        future = scheduler.submit_update(remove=[("missing", "b", "gone")])
        with pytest.raises(Exception):
            future.result(timeout=10)
        scheduler.stop()

    def test_update_repairs_watchers(self, fig1):
        db = GraphDB.open(fig1)
        watcher = db.watch("b.c")
        scheduler = SharingScheduler(db, workers=1)
        assert not watcher.reaches(5, 2)
        scheduler.submit_update(add=[(5, "b", 0), (0, "c", 2)]).result(
            timeout=10
        )
        scheduler.stop()
        assert watcher.reaches(5, 2)


class Gate:
    """Holds the scheduler's workers inside ``evaluate`` until released.

    Wraps the session engine of a (not yet started) scheduler: the first
    ``hold`` evaluations block on the gate, every evaluation is logged.
    """

    def __init__(self, scheduler: SharingScheduler, hold: int = 1) -> None:
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        self.log: list[tuple] = []
        self._hold = hold
        self._lock = threading.Lock()
        engine = scheduler.db.engine
        engine.evaluate = self._wrap(engine.evaluate)

    def _wrap(self, evaluate):
        def gated(query):
            text = plan_for(query).node.to_string()
            with self._lock:
                held = self._hold > 0
                self._hold -= 1
            if held:
                self.entered.release()
                assert self.release.wait(timeout=10)
            self.log.append(("start", text))
            result = evaluate(query)
            self.log.append(("end", text))
            return result

        return gated


def busy_scheduler(graph, workers: int = 1, **options):
    """A started scheduler whose every worker is held inside a query."""
    scheduler = SharingScheduler(
        GraphDB.open(graph), workers=workers, start=False, **options
    )
    gate = Gate(scheduler, hold=workers)
    scheduler.start()
    blockers = []
    for _ in range(workers):  # one at a time: each must get its own worker
        blockers.append(scheduler.submit("b.c"))
        assert gate.entered.acquire(timeout=5)
    return scheduler, gate, blockers


def wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.001)
    return False


def resolved(stats: dict) -> int:
    return (
        stats["completed"]
        + stats["expired"]
        + stats["failed"]
        + stats["cancelled"]
        + stats["updates"]
    )


class TestWorkConservingDispatch:
    """The window is spent only while every worker is busy."""

    WINDOW = 0.5

    def test_idle_scheduler_adds_no_window(self, fig1):
        scheduler = SharingScheduler(
            GraphDB.open(fig1), workers=2, batch_window=self.WINDOW
        )
        scheduler.submit("a.(b.c)+").result(timeout=5)  # warm the cache
        started = time.monotonic()
        scheduler.submit("a.(b.c)+").result(timeout=5)
        elapsed = time.monotonic() - started
        scheduler.stop()
        assert elapsed < self.WINDOW / 5

    def test_a_finishing_worker_leaves_an_idle_dispatcher_asleep(self, fig1):
        scheduler = SharingScheduler(GraphDB.open(fig1), workers=2)
        notify_all = scheduler._wake.notify_all
        notified = []  # who was waiting for a worker at each notify

        def counting_notify_all():
            notified.append(scheduler._awaiting_worker)
            notify_all()

        scheduler._wake.notify_all = counting_notify_all
        scheduler.submit("a.(b.c)+").result(timeout=5)
        assert wait_until(lambda: not scheduler._inflight)
        # The arrival woke the dispatcher; the worker finishing, with
        # nobody waiting for a worker, woke no one.
        assert notified == [0]
        scheduler.drain()
        scheduler.stop()

    def test_second_worker_is_used_while_the_first_is_busy(self, fig1):
        scheduler = SharingScheduler(
            GraphDB.open(fig1), workers=2, batch_window=self.WINDOW, start=False
        )
        gate = Gate(scheduler, hold=1)
        scheduler.start()
        blocker = scheduler.submit("b.c")
        assert gate.entered.acquire(timeout=5)
        started = time.monotonic()
        scheduler.submit("a.(b.c)+").result(timeout=5)
        elapsed = time.monotonic() - started
        gate.release.set()
        blocker.result(timeout=5)
        scheduler.stop()
        assert elapsed < self.WINDOW / 5

    def test_already_queued_jobs_leave_together(self, fig1):
        scheduler = SharingScheduler(
            GraphDB.open(fig1), workers=2, batch_window=self.WINDOW, start=False
        )
        futures = [
            scheduler.submit(query)
            for query in ["a.(b.c)+", "d.(b.c)+.c", "(b.c)+.c", "(a.b)+"]
        ]
        started = time.monotonic()
        scheduler.start()
        for future in futures:
            future.result(timeout=5)
        elapsed = time.monotonic() - started
        scheduler.stop()
        assert scheduler.metrics.batches == 2
        assert scheduler.metrics.max_batch_size == 3
        assert elapsed < self.WINDOW / 5

    def test_saturated_worker_still_forms_one_micro_batch(self, fig1):
        scheduler, gate, blockers = busy_scheduler(fig1, batch_window=5.0)
        futures = []
        for query in ["a.(b.c)+", "d.(b.c)+.c", "(b.c)+.c"]:
            futures.append(scheduler.submit(query))
            time.sleep(0.005)  # separate arrivals, one collection
        assert wait_until(lambda: scheduler.stats()["queue_depth"] == 0)
        assert not any(future.done() for future in futures)
        started = time.monotonic()
        gate.release.set()  # the worker finishing ends the collection
        for future in blockers + futures:
            future.result(timeout=5)
        elapsed = time.monotonic() - started
        scheduler.stop()
        assert scheduler.metrics.batches == 2  # the blocker, then all three
        assert scheduler.metrics.max_batch_size == 3
        assert elapsed < 1.0  # woken by the worker, not by the 5 s window

    def test_window_bounds_the_wait_while_saturated(self, fig1):
        scheduler, gate, blockers = busy_scheduler(fig1, batch_window=0.05)
        future = scheduler.submit("a.(b.c)+")
        # The window runs out with the worker still held: the batch goes
        # to the pool's own queue and in-flight rises to two.
        assert wait_until(lambda: len(scheduler._inflight) == 2)
        assert not future.done()
        gate.release.set()
        future.result(timeout=5)
        scheduler.stop()

    def test_max_batch_bounds_a_saturated_collection(self, fig1):
        scheduler, gate, blockers = busy_scheduler(
            fig1, batch_window=5.0, max_batch=2
        )
        futures = [scheduler.submit("a.(b.c)+") for _ in range(4)]
        # Two full collections leave without waiting for the window.
        assert wait_until(lambda: len(scheduler._inflight) == 3)
        gate.release.set()
        for future in blockers + futures:
            future.result(timeout=5)
        scheduler.stop()
        assert scheduler.metrics.max_batch_size == 2

    def test_update_waits_for_the_batch_collected_before_it(self, fig1):
        expected_stale = set(GraphDB.open(fig1).execute("(b.c)+"))
        scheduler, gate, blockers = busy_scheduler(fig1, batch_window=5.0)
        db = scheduler.db
        apply_update = db.update

        def logged_update(**changes):
            gate.log.append(("update", None))
            apply_update(**changes)

        db.update = logged_update
        before = scheduler.submit("(b.c)+")
        assert wait_until(lambda: scheduler.stats()["queue_depth"] == 0)
        update = scheduler.submit_update(add=[(8, "b", 1)])
        after = scheduler.submit("(b.c)+")
        time.sleep(0.02)
        assert not db.graph.has_edge(8, "b", 1)  # a worker is still busy
        gate.release.set()
        update.result(timeout=5)
        stale, fresh = before.result(timeout=5)[0], after.result(timeout=5)[0]
        scheduler.stop()
        assert gate.log == [
            ("start", "b.c"),
            ("end", "b.c"),
            ("start", "(b.c)+"),
            ("end", "(b.c)+"),
            ("update", None),
            ("start", "(b.c)+"),
            ("end", "(b.c)+"),
        ]
        assert stale == expected_stale
        assert fresh == set(GraphDB.open(db.graph).execute("(b.c)+"))
        assert stale != fresh

    def test_drain_sees_a_popped_but_undispatched_job(self, fig1):
        scheduler, gate, blockers = busy_scheduler(fig1, batch_window=5.0)
        collected = scheduler.submit("a.(b.c)+")
        assert wait_until(lambda: scheduler.stats()["queue_depth"] == 0)
        drained = threading.Event()

        def drain() -> None:
            scheduler.drain()
            drained.set()

        thread = threading.Thread(target=drain)
        thread.start()
        assert not drained.wait(timeout=0.05)
        gate.release.set()
        assert drained.wait(timeout=5)
        thread.join()
        assert collected.done()
        scheduler.stop()

    def test_ledger_balances_after_a_mixed_burst(self, fig1):
        db = GraphDB.open(fig1, engine="rtc")
        scheduler = SharingScheduler(db, workers=2, batch_window=0.002, start=False)
        futures = [scheduler.submit("a.(b.c)+") for _ in range(6)]
        futures.append(scheduler.submit("(b.c)+", timeout=0.0))  # expires
        futures.append(scheduler.submit(WIDE))  # fails: 8192 clauses
        cancelled = scheduler.submit("b.c")
        assert cancelled.cancel()
        futures.append(scheduler.submit_update(add=[(8, "b", 1)]))
        futures.append(scheduler.submit_update(remove=[("no", "b", "edge")]))
        futures.extend(scheduler.submit("d.(b.c)+.c") for _ in range(6))
        time.sleep(0.005)
        scheduler.start()
        scheduler.drain()
        assert all(future.done() for future in futures)
        stats = scheduler.metrics.snapshot()
        scheduler.stop()
        assert stats["admitted"] == 17 == resolved(stats)
        assert (stats["completed"], stats["expired"], stats["cancelled"]) == (12, 1, 1)
        assert (stats["failed"], stats["updates"]) == (2, 1)
        assert stats["in_flight"] == 0

    def test_stop_during_a_saturated_collection(self, fig1):
        scheduler, gate, blockers = busy_scheduler(fig1, batch_window=5.0)
        collected = scheduler.submit("a.(b.c)+")
        assert wait_until(lambda: scheduler.stats()["queue_depth"] == 0)
        stopper = threading.Thread(target=scheduler.stop)
        stopper.start()
        time.sleep(0.02)
        gate.release.set()  # a worker wake-up lands on a stopping dispatcher
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        assert collected.result(timeout=1)[0] == set(
            GraphDB.open(fig1).execute("a.(b.c)+")
        )
        stats = scheduler.metrics.snapshot()
        assert stats["failed"] == 0
        assert stats["admitted"] == 2 == stats["completed"]
        with pytest.raises(ServerError, match="shutting down"):
            scheduler.submit("a")

    def test_ledger_survives_a_contended_burst(self, fig1):
        """More submitters than cores, a 10 us switch interval, updates
        mixed in: a lost wake-up would hang a future, a lost in-flight
        entry would let an update overlap a read or unbalance the ledger."""
        db = GraphDB.open(fig1)
        scheduler = SharingScheduler(
            db, workers=3, max_queue=4096, batch_window=0.001, max_batch=4
        )
        queries = ["a.(b.c)+", "d.(b.c)+.c", "(b.c)+.c", "(a|b)+", "b.c"]
        futures: list[Future] = []
        lock = threading.Lock()

        def submitter(index: int) -> None:
            for step in range(40):
                if step % 10 == 9:
                    edge = (100 + index, "b", 200 + step)
                    future = scheduler.submit_update(add=[edge])
                else:
                    future = scheduler.submit(queries[(index + step) % len(queries)])
                with lock:
                    futures.append(future)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for future in futures:
                future.result(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        stats = scheduler.metrics.snapshot()
        served = scheduler.submit("(b.c)+").result(timeout=10)[0]
        scheduler.stop()
        assert stats["admitted"] == 320 == resolved(stats)
        assert (stats["completed"], stats["updates"], stats["failed"]) == (288, 32, 0)
        assert db.graph.num_edges == fig1.num_edges  # same object: 16 + 32
        assert served == set(GraphDB.open(db.graph, engine="no").execute("(b.c)+"))
