"""The inline lane: a warm, fast read is evaluated on the submitting thread.

A read whose closure bodies are all cached, on an idle scheduler, whose
last evaluation took less than one interpreter switch interval, runs
where it was submitted -- the event loop, for a served read -- instead
of hopping to a worker and back.  It is admitted, counted, deadline
checked, traced and drained like a pooled read; everything else takes
the pool.
"""

import sys
import threading
import time

import pytest

from repro.db import GraphDB
from repro.errors import DeadlineExpiredError
from repro.obs import Tracer
from repro.server import Client, ServerThread
from repro.server.scheduler import SharingScheduler

WARM = "a.(b.c)+"


class Lanes:
    """Logs the thread every evaluation of a scheduler's engine runs on.

    ``hold`` makes the next evaluation block inside the engine until
    ``release`` is set (``entered`` is released once it is held);
    ``slow`` makes every evaluation take twice the switch interval.
    """

    def __init__(self, scheduler: SharingScheduler) -> None:
        self.threads: list[str] = []
        self.hold = False
        self.slow = False
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        engine = scheduler.db.engine
        engine.evaluate = self._wrap(engine.evaluate)

    def _wrap(self, evaluate):
        def logged(query):
            self.threads.append(threading.current_thread().name)
            if self.hold:
                self.hold = False
                self.entered.release()
                assert self.release.wait(timeout=10)
            if self.slow:
                time.sleep(2 * sys.getswitchinterval())
            return evaluate(query)

        return logged

    @property
    def last(self) -> str:
        return self.threads[-1]


def idle(scheduler: SharingScheduler) -> None:
    """Wait until the pool's last batch has left ``_inflight``."""
    deadline = time.monotonic() + 5
    while scheduler._inflight or scheduler._dispatching:
        assert time.monotonic() < deadline, "the scheduler never went idle"
        time.sleep(0.001)


def warmed(graph, workers: int = 2):
    """A started scheduler whose ``WARM`` read has been timed warm."""
    scheduler = SharingScheduler(GraphDB.open(graph), workers=workers, start=False)
    lanes = Lanes(scheduler)
    scheduler.start()
    # The first sighting takes the pool and builds the RTC; the second
    # is timed warm.
    for _ in range(2):
        scheduler.submit(WARM).result(timeout=5)
        idle(scheduler)
    return scheduler, lanes


def resolved(stats: dict) -> int:
    return (
        stats["completed"]
        + stats["expired"]
        + stats["failed"]
        + stats["cancelled"]
        + stats["updates"]
    )


class TestInlineRead:
    def test_a_warm_read_runs_on_the_caller_and_is_counted(self, fig1):
        scheduler, lanes = warmed(fig1)
        assert lanes.threads[0].startswith("repro-worker")
        before = scheduler.metrics.snapshot()
        future = scheduler.submit(WARM)
        assert future.done()  # resolved before submit returned
        assert lanes.last == threading.current_thread().name
        after = scheduler.metrics.snapshot()
        scheduler.stop()
        assert future.result()[0] == set(GraphDB.open(fig1).execute(WARM))
        for key in ("admitted", "completed", "batches"):
            assert after[key] == before[key] + 1
        assert after["in_flight"] == 0

    def test_an_inline_read_honours_its_deadline(self, fig1):
        scheduler, lanes = warmed(fig1)
        evaluations = len(lanes.threads)
        future = scheduler.submit(WARM, timeout=0.0)
        assert future.done()
        with pytest.raises(DeadlineExpiredError):
            future.result()
        assert len(lanes.threads) == evaluations  # never evaluated
        stats = scheduler.metrics.snapshot()
        scheduler.stop()
        assert stats["expired"] == 1 and stats["admitted"] == resolved(stats)

    def test_a_traced_inline_read_has_the_pooled_spans(self, fig1):
        scheduler, lanes = warmed(fig1)
        tracer = Tracer()
        root = tracer.begin("query")
        future = scheduler.submit(WARM, trace=(tracer, root.span_id))
        assert future.done() and lanes.last == threading.current_thread().name
        tracer.finish(root)
        scheduler.stop()
        spans = {span["name"]: span for span in tracer.to_wire()["spans"]}
        for wait in ("admission_wait", "batch_wait"):
            assert spans[wait]["parent"] == root.span_id
            assert spans[wait]["dur"] == 0.0
        evaluate = spans["evaluate"]
        assert evaluate["parent"] == root.span_id
        assert evaluate["attrs"]["query"] == WARM
        assert evaluate["attrs"]["cache_hits"] >= 1
        assert evaluate["attrs"]["cache_misses"] == 0
        phases = {
            span["name"]
            for span in tracer.to_wire()["spans"]
            if span["parent"] == evaluate["id"]
        }
        assert phases and phases <= {"rtc", "pre_join", "remainder"}

    def test_an_update_admitted_during_an_inline_read_waits_for_it(self, fig1):
        scheduler, lanes = warmed(fig1)
        before = scheduler.submit(WARM).result()[0]
        idle(scheduler)
        lanes.hold = True
        reader = threading.Thread(
            target=lambda: outcome.append(scheduler.submit(WARM)), name="reader"
        )
        outcome = []
        reader.start()
        assert lanes.entered.acquire(timeout=5)
        assert lanes.last == "reader"  # held inline, on the reader's thread
        update = scheduler.submit_update(add=[(8, "b", 1)])
        time.sleep(0.05)
        assert not update.done()
        assert not scheduler.db.graph.has_edge(8, "b", 1)
        lanes.release.set()
        reader.join(timeout=5)
        update.result(timeout=5)
        after = scheduler.submit("(b.c)+").result(timeout=5)[0]
        scheduler.stop()
        assert outcome[0].result()[0] == before  # read the graph before the update
        assert after == set(GraphDB.open(scheduler.db.graph).execute("(b.c)+"))


class TestPoolReads:
    def test_a_text_never_timed_takes_the_pool(self, fig1):
        scheduler, lanes = warmed(fig1)
        scheduler.submit("d.(b.c)+.c").result(timeout=5)
        scheduler.stop()
        assert lanes.last.startswith("repro-worker")

    def test_a_read_with_a_cold_body_takes_the_pool(self, fig1):
        scheduler, lanes = warmed(fig1)
        scheduler.shared_cache.clear()
        scheduler.submit(WARM).result(timeout=5)
        idle(scheduler)
        assert lanes.last.startswith("repro-worker")
        scheduler.submit(WARM).result(timeout=5)  # warm again: inline
        scheduler.stop()
        assert lanes.last == threading.current_thread().name

    def test_a_plan_timed_above_the_switch_interval_takes_the_pool(self, fig1):
        scheduler, lanes = warmed(fig1)
        lanes.slow = True
        scheduler.submit(WARM).result(timeout=5)  # timed slow, inline
        idle(scheduler)
        lanes.slow = False
        scheduler.submit(WARM).result(timeout=5)
        idle(scheduler)
        slow_plan_lane = lanes.last
        scheduler.submit(WARM).result(timeout=5)  # timed fast again
        scheduler.stop()
        assert slow_plan_lane.startswith("repro-worker")
        assert lanes.last == threading.current_thread().name

    def test_a_busy_scheduler_queues_the_read(self, fig1):
        scheduler, lanes = warmed(fig1)
        lanes.hold = True
        blocker = scheduler.submit("d.(b.c)+.c")  # never timed: the pool
        assert lanes.entered.acquire(timeout=5)
        queued = scheduler.submit(WARM)
        assert not queued.done()
        lanes.release.set()
        queued.result(timeout=5)
        blocker.result(timeout=5)
        scheduler.stop()
        assert lanes.last.startswith("repro-worker")


class TestLedger:
    def test_the_ledger_balances_over_inline_pooled_and_update_traffic(self, fig1):
        scheduler, lanes = warmed(fig1)
        texts = [WARM, "d.(b.c)+.c", "(b.c)+", "b.c"]
        errors = []

        def client(index: int) -> None:
            try:
                for round_ in range(25):
                    if index == 0 and round_ % 5 == 0:
                        edge = (100 + round_, "b", 200 + round_)
                        scheduler.submit_update(add=[edge]).result(timeout=10)
                    else:
                        scheduler.submit(texts[(index + round_) % 4]).result(timeout=10)
            except BaseException as error:  # noqa: BLE001 -- re-raised below
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(index,), name=f"client-{index}")
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        scheduler.drain()
        stats = scheduler.metrics.snapshot()
        scheduler.stop()
        assert not errors
        assert stats["admitted"] == resolved(stats) == 2 + 95 + 5
        assert stats["updates"] == 5 and stats["in_flight"] == 0
        lanes_used = {name.split("-")[0] for name in lanes.threads}
        assert {"client", "repro"} <= lanes_used  # both lanes served reads


class TestServedLanes:
    def test_a_warm_served_read_is_evaluated_on_the_event_loop(self, fig1):
        db = GraphDB.open(fig1)
        with ServerThread(db) as handle, Client(*handle.address) as client:
            scheduler = handle.server.scheduler
            lanes = Lanes(scheduler)
            for _ in range(2):  # the first read builds, the second is timed warm
                expected = client.query(WARM).pairs
                idle(scheduler)
            for _ in range(3):
                assert client.query(WARM).pairs == expected
        assert lanes.threads[0].startswith("repro-worker")
        assert lanes.threads[-3:] == ["repro-server"] * 3
