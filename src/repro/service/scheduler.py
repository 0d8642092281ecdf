"""Worker pools and the scheduling loop of the experiment service.

The scheduler owns the full job lifecycle between "a spec arrived" and
"a terminal record exists":

* **Submission** validates the spec, consults the on-disk
  :class:`~repro.service.store.ResultCache` (a hit is answered
  immediately — ``DONE``, ``cache_hit=True`` — without queueing
  anything), then enqueues into the fair :class:`JobQueue`.
* **Dispatch** moves pending records from the queue to the
  least-loaded worker pool's backlog, preserving the queue's fair
  order at the moment of dispatch.
* **Execution** happens in per-pool thread executors: the simulation
  runs under its own fresh metrics registry (see
  :func:`~repro.service.jobs.execute_instrumented`) and the snapshot is
  merged into the daemon's registry afterwards, on the loop thread —
  the same aggregation discipline as
  :func:`~repro.engine.parallel.run_trials`, and the reason the service
  never touches the (thread-unsafe) ambient telemetry global.
* **Work stealing**: an idle worker whose own backlog is empty takes
  the oldest job from the longest sibling backlog, so one pool stuck
  behind a slow sweep cannot idle the rest of the daemon.
* **Resilience** reuses the library's primitives: transient failures
  retry under a :class:`~repro.resilience.retry.RetryPolicy`
  (deterministic jittered backoff, permanent errors never retried); a
  per-experiment :class:`~repro.resilience.breaker.CircuitBreaker`
  fails jobs fast while an experiment keeps crashing; sweeps run with a
  per-key checkpoint directory so a daemon restart resumes rather than
  recomputes.

Everything except the executor call happens on the daemon's event
loop, so the scheduler's state needs no locks.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..errors import (
    ConfigError,
    JobNotFoundError,
    ServiceError,
    ServiceUnavailableError,
)
from ..resilience.breaker import CircuitBreaker
from ..resilience.retry import RetryPolicy
from ..telemetry.registry import MetricsRegistry
from .jobs import EXPERIMENTS, execute_instrumented, validate_spec
from .protocol import JobRecord, JobSpec, JobState, next_job_id, spec_to_wire
from .queue import JobQueue
from .store import ResultCache

__all__ = ["Scheduler", "WorkerPool", "LATENCY_EDGES_MS"]

#: Fixed latency buckets (milliseconds) for ``service.latency_ms``.
LATENCY_EDGES_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


class WorkerPool:
    """One named pool: a backlog deque plus a thread executor."""

    def __init__(self, name: str, *, workers: int) -> None:
        self.name = name
        self.workers = workers
        self.backlog: deque[JobRecord] = deque()
        self.running = 0
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"repro-{name}"
        )

    @property
    def load(self) -> int:
        """Jobs this pool is responsible for right now."""
        return len(self.backlog) + self.running

    def shutdown(self) -> None:
        self.executor.shutdown(wait=True, cancel_futures=True)


class Scheduler:
    """The job lifecycle engine behind the daemon (and tests)."""

    def __init__(self, *, registry: MetricsRegistry,
                 cache: ResultCache | None = None,
                 queue: JobQueue | None = None,
                 pools: int = 2, workers_per_pool: int = 2,
                 retry: RetryPolicy | None = None,
                 breaker_failures: int = 3, breaker_cooldown: int = 8,
                 checkpoint_root: str | Path | None = None) -> None:
        if pools < 1:
            raise ConfigError(f"pools must be >= 1, got {pools}")
        if workers_per_pool < 1:
            raise ConfigError(
                f"workers_per_pool must be >= 1, got {workers_per_pool}"
            )
        self.registry = registry
        self.cache = cache
        self.queue = queue if queue is not None else JobQueue(
            registry=registry
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.retry.validate()
        self.pools = [
            WorkerPool(f"pool-{index}", workers=workers_per_pool)
            for index in range(pools)
        ]
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.jobs: dict[str, JobRecord] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_failures = breaker_failures
        self._breaker_cooldown = breaker_cooldown
        self._seq = itertools.count(1)
        self._started_at: dict[str, float] = {}
        self._done_events: dict[str, asyncio.Event] = {}
        self._submitted = asyncio.Event()
        self._dispatched = asyncio.Event()
        self._tasks: list[asyncio.Task] = []
        self._running = False
        #: Set during graceful shutdown: new submissions are refused
        #: with 503 while admitted work runs to completion.
        self.draining = False

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Spawn the dispatcher and every pool's worker tasks."""
        if self._running:
            return
        self._running = True
        self._tasks.append(asyncio.create_task(self._dispatch_loop(),
                                               name="repro-dispatch"))
        for pool in self.pools:
            for index in range(pool.workers):
                self._tasks.append(asyncio.create_task(
                    self._worker_loop(pool),
                    name=f"repro-{pool.name}-w{index}",
                ))

    async def stop(self) -> None:
        """Cancel the loops and shut the executors down."""
        self._running = False
        self._submitted.set()
        self._dispatched.set()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        for pool in self.pools:
            pool.shutdown()

    # -- submission / inspection --------------------------------------

    def _breaker_for(self, experiment: str) -> CircuitBreaker:
        breaker = self._breakers.get(experiment)
        if breaker is None:
            # name=None: the breaker's own telemetry hook uses the
            # ambient registry, which the service deliberately avoids;
            # trips are counted into the explicit registry below.
            breaker = CircuitBreaker(
                failure_threshold=self._breaker_failures,
                cooldown=self._breaker_cooldown,
            )
            self._breakers[experiment] = breaker
        return breaker

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit a spec: cache answer, queue it, or refuse (429/400).

        Runs on the event loop thread.  Raises ``ServiceError`` for a
        malformed spec, ``QueueFullError`` under backpressure and
        ``ServiceUnavailableError`` while the daemon is draining.
        """
        if self.draining:
            self.registry.inc("service.jobs.rejected_draining")
            raise ServiceUnavailableError(
                "daemon is draining: finishing admitted jobs, "
                "refusing new ones"
            )
        validate_spec(spec)
        seq = next(self._seq)
        record = JobRecord(job_id=next_job_id(), spec=spec, seq=seq)
        started = time.perf_counter()
        self._started_at[record.job_id] = started
        if spec.deadline_ms is not None:
            record.deadline_at = started + spec.deadline_ms / 1000.0
        if self.cache is not None:
            payload = self.cache.get(spec.key())
            if payload is not None:
                record.state = JobState.DONE
                record.result = payload
                record.cache_hit = True
                self.jobs[record.job_id] = record
                self.registry.inc("service.jobs.submitted")
                self.registry.inc("service.jobs.cache_hits")
                self._finalize(record)
                return record
        self.queue.submit(record)  # raises QueueFullError when saturated
        self.jobs[record.job_id] = record
        self.registry.inc("service.jobs.submitted")
        self._done_events[record.job_id] = asyncio.Event()
        self._submitted.set()
        return record

    def get(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job that has not finished.

        Pending jobs (in the queue or a pool backlog) are removed;
        a running job is marked cancelled and its result dropped when
        the worker returns.  Cancelling a terminal job is an error.
        """
        record = self.get(job_id)
        if record.done:
            raise ServiceError(
                f"job {job_id} already {record.state}; nothing to cancel"
            )
        if record.state == JobState.PENDING:
            try:
                self.queue.cancel(job_id)
            except JobNotFoundError:
                # Already dispatched to a pool backlog: remove it there.
                for pool in self.pools:
                    match = [r for r in pool.backlog
                             if r.job_id == job_id]
                    if match:
                        pool.backlog.remove(match[0])
                        break
                record.state = JobState.CANCELLED
        else:  # RUNNING: the worker drops the result on return.
            record.state = JobState.CANCELLED
        self.registry.inc("service.jobs.cancelled")
        self._finalize(record)
        return record

    async def wait(self, job_id: str, *, timeout: float | None = None
                   ) -> JobRecord:
        """Await a job's terminal record (tests and in-process callers)."""
        record = self.get(job_id)
        if record.done:
            return record
        event = self._done_events.get(job_id)
        if event is None:
            return record
        await asyncio.wait_for(event.wait(), timeout)
        return self.get(job_id)

    def backlog(self) -> int:
        """Jobs admitted but not yet terminal."""
        return len(self.queue) + sum(pool.load for pool in self.pools)

    # -- graceful shutdown --------------------------------------------

    def start_draining(self) -> None:
        """Refuse new submissions; admitted jobs keep running."""
        if not self.draining:
            self.draining = True
            self.registry.inc("service.drains")

    async def drain(self, timeout_s: float = 30.0) -> int:
        """Wait for the backlog to empty; cancel what outlives it.

        Runs on the event loop.  Returns the number of jobs that could
        not be finished in time — they are cancelled (with the usual
        bookkeeping) rather than silently dropped, so
        ``ServiceThread.__exit__``'s empty-queue assertion means what
        it says.
        """
        self.start_draining()
        deadline = time.monotonic() + timeout_s
        while self.backlog() > 0 and time.monotonic() < deadline:
            self._submitted.set()  # keep the dispatcher churning
            await asyncio.sleep(0.01)
        leftovers = list(self.queue.drain())
        for pool in self.pools:
            leftovers.extend(pool.backlog)
            pool.backlog.clear()
        for record in leftovers:
            if not record.done:
                record.state = JobState.CANCELLED
                record.error = "daemon shut down before the job ran"
                self.registry.inc("service.jobs.cancelled")
                self._finalize(record)
        if leftovers:
            self.registry.inc("service.drain.aborted", len(leftovers))
        return len(leftovers)

    # -- the loops ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while self._running:
            moved = False
            while True:
                # Dispatch is capacity-limited: a pool holds at most
                # one job beyond its worker count (the slack that makes
                # stealing possible).  Everything else waits in the
                # JobQueue — which is what keeps the queue's fairness
                # and its bounded-depth backpressure meaningful.
                pool = min(self.pools, key=lambda p: p.load)
                if pool.load > pool.workers:
                    break
                record = self.queue.pop()
                if record is None:
                    break
                pool.backlog.append(record)
                self.registry.inc("service.scheduler.dispatched")
                moved = True
            if moved:
                self._dispatched.set()
            self._submitted.clear()
            await self._submitted.wait()

    def _take(self, pool: WorkerPool) -> JobRecord | None:
        """This pool's next job, stealing from the longest sibling."""
        if pool.backlog:
            return pool.backlog.popleft()
        victim = max(self.pools, key=lambda p: len(p.backlog))
        if victim is not pool and victim.backlog:
            self.registry.inc("service.scheduler.steals")
            return victim.backlog.popleft()
        return None

    async def _worker_loop(self, pool: WorkerPool) -> None:
        while self._running:
            record = self._take(pool)
            if record is None:
                self._dispatched.clear()
                await self._dispatched.wait()
                continue
            if record.state == JobState.CANCELLED:
                continue  # cancelled while sitting in a backlog
            pool.running += 1
            try:
                await self._run_job(pool, record)
            finally:
                pool.running -= 1

    def _checkpoint_dir(self, record: JobRecord) -> str | None:
        if self.checkpoint_root is None:
            return None
        runner = EXPERIMENTS.get(record.spec.experiment)
        if runner is None or not runner.supports_checkpoint:
            return None
        # Keyed by content address: a restarted daemon resumes the
        # exact same sweep from its checkpoint, any other spec misses.
        return str(self.checkpoint_root / record.spec.key())

    def _expire(self, record: JobRecord) -> None:
        record.state = JobState.EXPIRED
        record.error = (
            f"deadline of {record.spec.deadline_ms:g} ms exceeded"
        )
        self.registry.inc("service.jobs.expired")
        self._finalize(record)

    async def _run_job(self, pool: WorkerPool, record: JobRecord) -> None:
        spec = record.spec
        if (record.deadline_at is not None
                and time.perf_counter() >= record.deadline_at):
            # Expired while queued: never worth starting.
            self._expire(record)
            return
        breaker = self._breaker_for(spec.experiment)
        if not breaker.allow():
            record.state = JobState.FAILED
            record.error = (
                f"circuit open for experiment {spec.experiment!r}: "
                f"failing fast while it keeps crashing"
            )
            self.registry.inc("service.breaker.fail_fast")
            self.registry.inc("service.jobs.failed")
            self._finalize(record)
            return
        record.state = JobState.RUNNING
        record.pool = pool.name
        wire = spec_to_wire(spec)
        checkpoint_dir = self._checkpoint_dir(record)
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            attempt += 1
            record.attempts = attempt
            try:
                future = loop.run_in_executor(
                    pool.executor, execute_instrumented, wire,
                    checkpoint_dir,
                )
                if record.deadline_at is not None:
                    # The worker thread cannot be interrupted; expiry
                    # abandons the wait and drops whatever the thread
                    # eventually produces.  Swallow its late exception
                    # so the loop never logs "never retrieved".
                    future.add_done_callback(
                        lambda f: f.cancelled() or f.exception()
                    )
                    remaining = record.deadline_at - time.perf_counter()
                    payload, snapshot = await asyncio.wait_for(
                        future, timeout=max(0.0, remaining)
                    )
                else:
                    payload, snapshot = await future
            except Exception as exc:  # noqa: BLE001 - classified below
                if (isinstance(exc, asyncio.TimeoutError)
                        and record.deadline_at is not None
                        and time.perf_counter() >= record.deadline_at):
                    if record.state != JobState.CANCELLED:
                        self._expire(record)
                    else:
                        self._finalize(record)
                    return
                if (self.retry.is_transient(exc)
                        and attempt < self.retry.max_attempts):
                    self.registry.inc("service.jobs.retries")
                    await asyncio.sleep(self.retry.backoff_s(
                        attempt, seed=spec.seed, label=record.job_id,
                    ))
                    continue
                breaker.record_failure()
                if record.state != JobState.CANCELLED:
                    record.state = JobState.FAILED
                    record.error = f"{type(exc).__name__}: {exc}"
                    self.registry.inc("service.jobs.failed")
                self._finalize(record)
                return
            breaker.record_success()
            if record.state == JobState.CANCELLED:
                # Cancelled mid-flight: drop the result, keep the cache
                # warm (the computation is valid — only unwanted).
                if self.cache is not None:
                    self.cache.put(spec.key(), payload)
                self._finalize(record)
                return
            self.registry.merge_snapshot(snapshot)
            record.result = payload
            record.state = JobState.DONE
            if self.cache is not None:
                self.cache.put(spec.key(), payload)
            self.registry.inc("service.jobs.completed")
            self._finalize(record)
            return

    def _finalize(self, record: JobRecord) -> None:
        started = self._started_at.pop(record.job_id, None)
        if started is not None:
            self.registry.histogram(
                "service.latency_ms", LATENCY_EDGES_MS
            ).observe((time.perf_counter() - started) * 1000.0)
        event = self._done_events.pop(record.job_id, None)
        if event is not None:
            event.set()
        # A finished job frees pool capacity: let the dispatcher refill.
        self._submitted.set()
