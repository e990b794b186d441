"""The sharing-aware scheduler: micro-batches grouped by closure body.

The paper's economics -- many RPQs become cheap once they share one
reduced transitive closure -- only pay off under concurrency if the
server notices *which* in-flight queries share a closure body.  This
scheduler does exactly that:

1.  Every submitted query is keyed by the set of Kleene-closure bodies
    it contains (:meth:`~repro.core.plan.Plan.group_key`, the same
    canonical keys the engine caches use, so ``"syntactic"``/
    ``"semantic"`` cache modes group identically to how they share).
    The key comes from the query's shared
    :class:`~repro.core.plan.Plan`: the dispatcher reads
    ``plan.group_key(mode)``, which walks the plan's units the first
    time any thread asks for that text and mode and is a lookup ever
    after; the workers evaluate the same plan's batch units.
2.  A dispatcher thread is *work-conserving*: it takes the head job
    plus whatever is already queued, partitions that by group key
    (:func:`group_jobs`) and hands each group to the worker pool as one
    micro-batch **at once** whenever fewer than ``workers`` micro-batches
    are in flight -- an idle server adds no wait.  Only while every
    worker is busy does it keep collecting, woken by an arrival or by a
    worker finishing, for at most ``batch_window`` seconds and
    :data:`MAX_BATCH` jobs; so batches form under saturation, where a read
    would have queued anyway, and nowhere else.
3.  Workers are plain threads that all evaluate on the session's one
    engine (``db.engine``): an engine keeps no per-call timing state --
    each call's phases are its own
    (:func:`~repro.core.engines.evaluate_plan`) -- and reads the
    **shared, lock-protected RTC cache**.  That cache,
    not the window, is the sharing mechanism: the first query on a body
    computes the RTC and every later one -- same batch or not, same
    worker or not -- hits the cache.  Concurrent first-contact misses
    on one body across workers are collapsed by the cache's
    ``get_or_compute`` in-flight latch (see :mod:`repro.core.cache`);
    grouping a saturated queue by body keeps even the latch wait rare
    by landing a body's queries on one worker back to back.

4.  A warm read skips all of the above.  Evaluation is pure-Python
    work that holds the GIL, so at serving size the hop to a worker and
    back costs more than the read itself.  :meth:`SharingScheduler.submit`
    therefore evaluates a read on the calling thread -- the event loop,
    for a served read -- on the same engine, when every closure
    body of its plan is in the shared cache (``Plan.bodies`` +
    ``peek``), nothing is queued, in flight or being applied, and the
    text's last evaluation here took less than
    :func:`sys.getswitchinterval` (the slice a worker thread would have
    run before yielding anyway).  Such a read is admitted, counted as a
    batch of one, deadline checked, traced under the same span names
    (zero-length ``admission_wait`` / ``batch_wait``) and registered in
    the in-flight set, so an update still drains it first.  Cold
    bodies, a busy scheduler, pending updates and slow or never-timed
    texts take the pool as before.

Admission control is a bounded queue (a full one surfaces as
:class:`~repro.errors.AdmissionError` *before* any work happens) plus a
per-request deadline: workers drop expired jobs with
:class:`~repro.errors.DeadlineExpiredError` instead of evaluating them.

Graph updates are exclusive: the dispatcher stops collecting, dispatches
what it holds, drains every in-flight micro-batch, applies the update
through the (thread-safe) :class:`~repro.db.GraphDB` session -- which
repairs, in place, the cached RTCs whose body reads a label the update
carried, leaving every other entry as it was for the next read to hit --
and only then resumes query dispatch.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.engines import evaluate_plan
from repro.core.plan import PLAN_MEMO_LIMIT, Plan, plan_for
from repro.db.session import GraphDB
from repro.errors import AdmissionError, DeadlineExpiredError, ReproError, ServerError
from repro.obs import activate, get_registry
from repro.server.metrics import ServerMetrics

__all__ = [
    "QueryJob",
    "UpdateJob",
    "SharingScheduler",
    "group_jobs",
]

#: Sentinel telling the dispatcher thread to exit.
_STOP = object()

#: Upper bound on the jobs of one collection, window or not.
MAX_BATCH = 64


@dataclass
class QueryJob:
    """One admitted query waiting for (or undergoing) evaluation.

    ``group_key`` is ``None`` until the dispatcher reads it off the plan
    -- a plan's first key walks the query's DNF, which must happen on
    the dispatcher thread, never on the submitting (event-loop) thread.
    """

    text: str
    plan: Plan
    future: Future
    group_key: str | None = None
    deadline: float | None = None  # time.monotonic() deadline, None = none
    enqueued_at: float = field(default_factory=time.monotonic)
    # ``(tracer, parent_span_id)`` when the request is traced; None (the
    # overwhelmingly common case) costs nothing anywhere below.
    trace: tuple | None = None
    # Set by the dispatcher on pop; stays None for a read evaluated
    # inline, which never queues.
    dequeued_at: float | None = None

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


@dataclass
class UpdateJob:
    """An exclusive graph update waiting for the dispatcher."""

    add: tuple
    remove: tuple
    future: Future
    trace: tuple | None = None


def group_jobs(jobs: list[QueryJob]) -> list[list[QueryJob]]:
    """Partition a drained batch into micro-batches by group key.

    Order-preserving both across groups (first arrival wins) and within
    a group, so batching never reorders one client's pipeline.  Jobs
    whose key was never computed (``None``) group with the closure-free
    ones.
    """
    groups: dict[str, list[QueryJob]] = {}
    for job in jobs:
        groups.setdefault(job.group_key or "", []).append(job)
    return list(groups.values())


class SharingScheduler:
    """Bounded-queue admission + sharing-aware micro-batch dispatch.

    Parameters
    ----------
    db:
        The (thread-safe) session; updates and stats go through it, and
        every read, inline or pooled, evaluates on its engine.
    workers:
        Worker threads = concurrent micro-batches.
    max_queue:
        Admission bound: jobs waiting for dispatch beyond the in-flight
        batches.  Full queue -> :class:`~repro.errors.AdmissionError`.
    batch_window:
        While every worker is busy: the longest the dispatcher keeps
        collecting after the first job of a batch (seconds).  With a
        worker free a batch leaves at once and the window is not used.
    start:
        Pass ``False`` to create the scheduler stopped (tests use this
        to fill the queue deterministically), then call :meth:`start`.
    """

    def __init__(
        self,
        db: GraphDB,
        workers: int = 4,
        max_queue: int = 256,
        batch_window: float = 0.005,
        start: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.db = db
        self.workers = workers
        self.batch_window = batch_window
        self.metrics = ServerMetrics()
        # Always-on per-phase wall-time ledger; evaluations publish
        # themselves (evaluate_plan), the scheduler adds update_apply.
        self._phase_seconds = get_registry().counter(
            "repro_phase_seconds_total",
            "Wall seconds spent per engine/storage phase.",
            labels=("phase",),
        )
        cache = self.shared_cache
        # `is not None`, not truthiness: the cache defines __len__ and is
        # always empty at construction, so `if cache` would silently key
        # a semantic-mode scheduler syntactically.
        #: The cache mode the group keys follow (the shared cache's own).
        self.cache_mode = cache.mode if cache is not None else "syntactic"
        self.max_queue = max_queue
        # Admitted jobs awaiting dispatch and the micro-batches in flight
        # share one condition: an arrival and a worker finishing are the
        # two events the dispatcher (and drain) wait for.  A finishing
        # worker notifies only while someone waits *for a worker*
        # (`_awaiting_worker`): waking a dispatcher that is idle for
        # want of jobs costs two thread switches per read and buys
        # nothing.
        self._jobs: deque = deque()
        self._inflight: set[Future] = set()
        self._wake = threading.Condition()
        self._awaiting_worker = 0
        # True from the moment the dispatcher pops work until that work
        # is in ``_inflight`` (an update: until it is applied) -- the
        # window in which neither the queue nor ``_inflight`` shows it.
        self._dispatching = False
        # Query text -> (engine seconds of its last evaluation here, the
        # distinct closure-body keys of its plan): the inline gate.
        self._timings: dict[str, tuple[float, tuple[str, ...]]] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-worker"
        )
        # Serialises admission against shutdown: once stop() flips
        # _stopped under this lock, no submit can slip a job past the
        # shutdown drain (which would leave its future forever pending).
        self._admission_lock = threading.Lock()
        self._dispatcher: threading.Thread | None = None
        self._running = False
        self._stopped = False
        if start:
            self.start()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._running or self._stopped:
            return
        self._running = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def stop(self) -> None:
        """Drain, stop the dispatcher and the pool; fail leftover jobs."""
        with self._admission_lock:
            if self._stopped:
                return
            self._stopped = True
        was_running = self._running
        self._running = False
        if was_running and self._dispatcher is not None:
            with self._wake:
                self._jobs.append(_STOP)
                self._wake.notify_all()
            self._dispatcher.join()
        self._pool.shutdown(wait=True)
        self._drain_inflight()  # an inline read admitted before the flip
        # Jobs still queued (submitted before _stopped flipped but never
        # dispatched) are failed loudly rather than silently dropped.
        # Nothing else touches the queue any more.
        while self._jobs:
            job = self._jobs.popleft()
            if job is _STOP:
                continue
            if job.future.set_running_or_notify_cancel():
                self.metrics.record_failed()
                job.future.set_exception(self._closed_error())
            else:
                self.metrics.record_cancelled()

    def drain(self) -> None:
        """Block until every currently admitted job has resolved.

        Waits on the metrics conservation law (admitted == completed +
        expired + failed + cancelled + updates) rather than the queue
        size -- a job the dispatcher has popped but not yet handed to the
        pool lives in neither the queue nor the in-flight set, and must
        not slip through.  A quiescence point, not a barrier against
        new work: jobs admitted *while* draining extend the wait.  Used
        by the cluster backends for graceful close and by tests.
        """
        while self._running and self.metrics.in_flight():
            time.sleep(0.001)
        self._drain_inflight()

    @staticmethod
    def _closed_error() -> ServerError:
        error = ServerError("server is shutting down")
        error.code = "closed"
        return error

    # -- admission -------------------------------------------------------
    def submit(
        self,
        text: str,
        plan: Plan | None = None,
        timeout: float | None = None,
        trace: tuple | None = None,
    ) -> Future:
        """Admit one query; returns a future of ``(pairs, engine_time)``.

        A warm read on an idle scheduler is evaluated here, on the
        calling thread, and its future is resolved on return
        (:meth:`_evaluate_inline`); every other read is queued for the
        pool.  ``plan`` is the text's :func:`~repro.core.plan.plan_for`
        plan when the caller already holds it.  Raises
        :class:`~repro.errors.AdmissionError` when the queue is full
        (backpressure) and :class:`~repro.errors.ServerError` after
        :meth:`stop`.  Parse errors propagate as
        :class:`~repro.errors.RPQSyntaxError` before admission.  The
        batching group key is read later, on the dispatcher thread,
        so a pathological query cannot stall the submitting thread.
        ``trace`` is an optional ``(tracer, parent_span_id)`` pair; the
        worker then records admission-wait / batch-wait / evaluate spans
        for this job.
        """
        if plan is None:
            plan = plan_for(text)
        job = QueryJob(
            text=text,
            plan=plan,
            future=Future(),
            deadline=(time.monotonic() + timeout) if timeout is not None else None,
            trace=trace,
        )
        if not self._evaluate_inline(job):
            self._admit(job)
        return job.future

    def _evaluate_inline(self, job: QueryJob) -> bool:
        """The inline lane (item 4 of the module docstring): evaluate
        ``job`` on the calling thread and return True when its gate
        passes, else return False for the caller to queue it.  A longer
        evaluation would stall the caller (the event loop) past the
        slice a worker thread would have yielded at."""
        timing = self._timings.get(job.text)
        if timing is None or timing[0] >= sys.getswitchinterval():
            return False
        if timing[1]:
            cache = self.shared_cache
            if cache is None or any(cache.peek(key) is None for key in timing[1]):
                return False
        with self._admission_lock:
            if self._stopped:
                raise self._closed_error()
            with self._wake:
                if self._jobs or self._inflight or self._dispatching:
                    return False
                self._inflight.add(job.future)
                self.metrics.record_admitted()
        self.metrics.record_batch(1)
        try:
            self._run_job(job)
        finally:
            self._forget_inflight(job.future)
        return True

    def submit_update(
        self, add=(), remove=(), block: bool = False, trace: tuple | None = None
    ) -> Future:
        """Admit an exclusive graph update; returns a future of ``None``.

        ``block=True`` waits for a queue slot instead of raising
        :class:`~repro.errors.AdmissionError` when the queue is full --
        the admission mode the cluster's shards use, where the router has
        already committed the update's routing state.  Never
        call it from a latency-sensitive thread (it can wait for a whole
        batch to drain).
        """
        job = UpdateJob(
            add=tuple(add), remove=tuple(remove), future=Future(), trace=trace
        )
        self._admit(job, block=block)
        return job.future

    def _admit(self, job, block: bool = False) -> None:
        """Enqueue under the admission lock (atomic w.r.t. :meth:`stop`).

        The blocking mode polls instead of holding the admission lock
        through a blocking ``put`` -- :meth:`stop` takes the same lock,
        so a blocked holder would deadlock shutdown.  Each probe
        re-checks ``_stopped`` under the lock, preserving the invariant
        that no job enters the queue after the shutdown drain.
        """
        while True:
            with self._admission_lock:
                if self._stopped:
                    raise self._closed_error()
                with self._wake:
                    depth = len(self._jobs)
                    if depth < self.max_queue:
                        self._jobs.append(job)
                        self._wake.notify_all()
                        self.metrics.record_admitted()
                        return
                if not block:
                    self.metrics.record_rejected()
                    raise AdmissionError(queue_depth=depth)
            time.sleep(0.001)

    # -- dispatch --------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch, then = self._collect()
            # A plan's first key (a DNF walk) runs here, on the
            # dispatcher -- admission threads only parse; later reads
            # of the text find it on the plan.
            for job in batch:
                if job.group_key is None:
                    job.group_key = job.plan.group_key(self.cache_mode)
            futures = []
            for group in group_jobs(batch):
                self.metrics.record_batch(len(group))
                futures.append(self._pool.submit(self._run_batch, group))
            with self._wake:
                self._inflight.update(futures)
                self._dispatching = then is not None and then is not _STOP
            for future in futures:
                future.add_done_callback(self._forget_inflight)
            if then is _STOP:
                return
            if then is not None:
                try:
                    self._execute_update(then)
                finally:
                    with self._wake:
                        self._dispatching = False

    def _collect(self) -> tuple[list[QueryJob], object]:
        """The next queries to dispatch and what follows them.

        Blocks for a first item, then takes what is already queued.  With
        a worker free that is the batch; only while all ``workers`` are
        busy does it wait -- for an arrival or a worker finishing, at
        most ``batch_window`` seconds and :data:`MAX_BATCH` jobs.  An update
        or the stop sentinel ends the collection and is returned as the
        second element (``None`` otherwise) for the caller to act on
        *after* dispatching the batch.
        """
        batch: list[QueryJob] = []
        window_end = None
        with self._wake:
            while True:
                while self._jobs and len(batch) < MAX_BATCH:
                    item = self._jobs.popleft()
                    self._dispatching = True
                    if item is _STOP or isinstance(item, UpdateJob):
                        return batch, item
                    item.dequeued_at = time.monotonic()
                    batch.append(item)
                if not batch:
                    self._wake.wait()
                    continue
                if len(batch) >= MAX_BATCH or len(self._inflight) < self.workers:
                    return batch, None
                if window_end is None:
                    window_end = batch[0].dequeued_at + self.batch_window
                remaining = window_end - time.monotonic()
                if remaining <= 0:
                    return batch, None
                self._await_worker(remaining)

    def _await_worker(self, timeout: float | None = None) -> None:
        """Wait on ``_wake`` (held) as one a finishing worker must notify."""
        self._awaiting_worker += 1
        try:
            self._wake.wait(timeout)
        finally:
            self._awaiting_worker -= 1

    def _forget_inflight(self, future: Future) -> None:
        with self._wake:
            self._inflight.discard(future)
            if self._awaiting_worker:
                self._wake.notify_all()

    def _drain_inflight(self) -> None:
        with self._wake:
            while self._inflight:
                self._await_worker()

    def _record_wait_spans(self, job: QueryJob):
        """Retroactive admission/batch-wait spans + the live evaluate span.

        Queue waits are measured with monotonic timestamps; the spans'
        wall-clock starts are reconstructed by offsetting ``time.time()``
        backwards by the monotonic age, which keeps the whole trace on
        one wall-clock axis across processes.
        """
        tracer, parent = job.trace
        now_mono = time.monotonic()
        now_wall = time.time()  # repro: noqa[RPR601] -- reconstructs wall-clock span starts by offsetting monotonic ages; waits themselves are monotonic
        if job.dequeued_at is None:  # evaluated inline: it never waited
            waits = ((now_wall, 0.0), (now_wall, 0.0))
        else:
            dequeued = job.dequeued_at
            waits = (
                (now_wall - (now_mono - job.enqueued_at), dequeued - job.enqueued_at),
                (now_wall - (now_mono - dequeued), now_mono - dequeued),
            )
        for name, (start, duration) in zip(("admission_wait", "batch_wait"), waits):
            tracer.record(name, parent, start, duration)
        cache = self.shared_cache
        cache_before = cache.snapshot_stats() if cache is not None else None
        return tracer.begin("evaluate", parent=parent), cache_before

    def _finish_evaluate_span(self, job, span, phases, cache_before) -> None:
        """Close the evaluate span with phase children and cache deltas."""
        tracer, _ = job.trace
        offset = span.start
        for phase, seconds in phases.items():
            # Phase children are laid out sequentially from the call's
            # per-phase sums (phases keep sums, not intervals).
            tracer.record(phase, span.span_id, offset, seconds)
            offset += seconds
        attrs: dict = {"query": job.text}
        cache = self.shared_cache
        if cache is not None and cache_before is not None:
            after = cache.snapshot_stats()
            attrs["cache_hits"] = after.hits - cache_before.hits
            attrs["cache_misses"] = after.misses - cache_before.misses
        tracer.finish(span, **attrs)

    def _run_batch(self, jobs: list[QueryJob]) -> None:
        """Worker body: evaluate one micro-batch, job by job."""
        for job in jobs:
            self._run_job(job)

    def _run_job(self, job: QueryJob) -> None:
        """Evaluate one admitted job and resolve its future."""
        # Claim the future first: once running, a late cancel() (e.g.
        # all-or-nothing admission rollback) cannot race our
        # set_result/set_exception below.
        if not job.future.set_running_or_notify_cancel():
            self.metrics.record_cancelled()
            return
        if job.expired:
            self.metrics.record_expired()
            job.future.set_exception(
                DeadlineExpiredError(f"deadline expired before evaluating {job.text!r}")
            )
            return
        eval_span = cache_before = None
        if job.trace is not None:
            eval_span, cache_before = self._record_wait_spans(job)
        engine = self.db.engine
        try:
            if job.trace is not None:
                with activate(job.trace[0], eval_span.span_id):
                    pairs, elapsed, phases = evaluate_plan(engine, job.plan)
            else:
                pairs, elapsed, phases = evaluate_plan(engine, job.plan)
        except Exception as error:  # noqa: BLE001  # repro: noqa[RPR701] -- evaluation outcome boundary: the error becomes the job future's result, never lost
            if job.trace is not None:
                job.trace[0].finish(eval_span, error=type(error).__name__)
            self.metrics.record_failed()
            job.future.set_exception(error)
            return
        if job.trace is not None:
            self._finish_evaluate_span(job, eval_span, phases, cache_before)
        self._note_timing(job, elapsed)
        self.metrics.record_completed(time.monotonic() - job.enqueued_at)
        job.future.set_result((pairs, elapsed))

    def _note_timing(self, job: QueryJob, elapsed: float) -> None:
        """Remember what the inline gate reads about ``job``'s text."""
        timing = self._timings.get(job.text)
        if timing is not None:
            self._timings[job.text] = (elapsed, timing[1])
            return
        try:
            bodies = tuple(set(job.plan.bodies(self.cache_mode)))
        except ReproError:  # a DNF past the bound: never inline
            return
        if len(self._timings) >= PLAN_MEMO_LIMIT:
            self._timings.clear()
        self._timings[job.text] = (elapsed, bodies)

    def _execute_update(self, job: UpdateJob) -> None:
        """Apply one update exclusively: drain workers first."""
        tracer = parent = None
        if job.trace is not None:
            tracer, parent = job.trace
            drain_span = tracer.begin("update_drain", parent=parent)
        self._drain_inflight()
        if tracer is not None:
            tracer.finish(drain_span)
        if not job.future.set_running_or_notify_cancel():
            self.metrics.record_cancelled()
            return
        apply_span = (
            tracer.begin("update_apply", parent=parent)
            if tracer is not None
            else None
        )
        started = time.perf_counter()
        try:
            if tracer is not None:
                # Ambient activation lets the storage layer hang its
                # wal_append / checkpoint spans under update_apply.
                with activate(tracer, apply_span.span_id):
                    self.db.update(add=job.add, remove=job.remove)
            else:
                self.db.update(add=job.add, remove=job.remove)
        except Exception as error:  # noqa: BLE001  # repro: noqa[RPR701] -- update outcome boundary: the error becomes the job future's result, never lost
            if tracer is not None:
                tracer.finish(apply_span, error=type(error).__name__)
            self.metrics.record_failed()
            job.future.set_exception(error)
        else:
            self._phase_seconds.inc(
                time.perf_counter() - started, phase="update_apply"
            )
            if tracer is not None:
                tracer.finish(apply_span)
            self.metrics.record_update()
            job.future.set_result(None)

    # -- introspection ---------------------------------------------------
    @property
    def shared_cache(self):
        """The session engine's shared-data cache (None for ``no``).

        Checked against None explicitly: an *empty* cache is falsy (it
        has ``__len__``), and an idle engine's cache is exactly that.
        """
        engine = self.db.engine
        cache = getattr(engine, "rtc_cache", None)
        if cache is not None:
            return cache
        return getattr(engine, "closure_cache", None)

    def stats(self) -> dict:
        """Scheduler metrics merged with queue and shared-cache state."""
        stats = self.metrics.snapshot()
        stats["queue_depth"] = len(self._jobs)
        stats["workers"] = self.workers
        cache = self.shared_cache
        if cache is not None:
            cache_stats = cache.snapshot_stats()
            stats["cache"] = {
                "mode": cache.mode,
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "entries": cache_stats.entries,
                "hit_rate": cache_stats.hit_rate,
                # update-repair outcome -> count (RTC caches only)
                "repairs": cache_stats.repairs,
            }
        return stats
