"""Bounded-leak worker pool: runs calls that may hang, writes them off.

``concurrent.futures.ThreadPoolExecutor`` is the wrong tool under a
provider that can hang: ``future.cancel()`` cannot stop running work, a
hung call permanently consumes one of the pool's threads, and the
executor's non-daemon threads are joined at interpreter exit — so a
wedged provider also makes the *process* unkillable by anything short of
SIGKILL.

:class:`CancellableWorkerPool` is the serving stack's one mechanism for
writing off a hung call; the micro-batcher runs every provider flush on a
single-worker pool (its flusher):

* **daemon threads** — a hung provider can never block interpreter exit;
* **bounded waits** — callers wait on the returned :class:`Job` with a
  timeout and then :meth:`abandon <CancellableWorkerPool.abandon>` it,
  firing its :class:`~repro.serving.deadline.CancellationToken`;
* **token-checked workers** — an abandoned job that has not started yet
  is skipped entirely (it fails fast with
  :class:`~repro.serving.deadline.CancelledError` instead of wasting a
  thread);
* **bounded leak** — when a *running* job is abandoned its worker is
  counted in the ``serving.pool.hung_threads`` gauge and a replacement
  worker is spawned (up to ``max_total_threads``) so capacity never
  degrades below ``max_workers``; if the stuck call eventually returns
  (``serving.pool.recovered``), the surplus worker retires itself and the
  gauge comes back down.
"""

from __future__ import annotations

import queue
import threading

from repro.serving import metric_names as mn
from repro.serving.deadline import (
    CancellationToken,
    CancelledError,
    Deadline,
)
from repro.serving.metrics import MetricsRegistry

_STOP = object()

#: Idle-worker poll interval on the job queue.  Waking to re-check costs
#: a loop iteration; an unbounded ``get()`` would park the worker with no
#: way to bound the wait if a sentinel is ever lost.
_QUEUE_POLL_S = 0.5

#: Bound on :meth:`CancellableWorkerPool.shutdown`'s join of its workers;
#: an idle worker takes its stop sentinel at once.
_SHUTDOWN_JOIN_S = 5.0


class Job:
    """One unit of work submitted to the pool.

    Waiters call :meth:`wait`, then :meth:`result` on success or
    :meth:`abandon` on timeout.  ``abandon`` is what keeps the pool
    healthy: it fires the cancellation token (so a not-yet-started job is
    skipped, and a cooperative running job can wind down) and tells the
    pool to account for — and replace — the worker if one is stuck.
    """

    __slots__ = ("fn", "token", "done", "result_value", "error",
                 "started", "abandoned", "worker", "_lock")

    def __init__(self, fn, token: CancellationToken):
        self.fn = fn
        self.token = token
        self.done = threading.Event()
        self.result_value = None
        self.error: BaseException | None = None
        self.started = False
        self.abandoned = False
        self.worker: threading.Thread | None = None   # set when started
        self._lock = threading.Lock()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; False if ``timeout`` elapsed."""
        return self.done.wait(timeout)

    def result(self):
        """The job's return value; re-raises whatever the job raised."""
        if not self.done.is_set():
            raise RuntimeError("job has not completed")
        if self.error is not None:
            raise self.error
        return self.result_value


class CancellableWorkerPool:
    """Fixed-capacity daemon-thread pool that survives hung jobs.

    Parameters
    ----------
    max_workers:
        Target number of concurrently *usable* workers.  A worker stuck
        on an abandoned job stops counting toward this and is replaced.
    max_total_threads:
        Hard cap on threads ever alive at once — the bound on the leak a
        pathological provider can cause.  Submissions still succeed at
        the cap; they just queue until a worker frees up.
    metrics:
        Shared registry for the ``serving.pool.*`` instruments.
    """

    def __init__(self, max_workers: int = 8,
                 max_total_threads: int | None = None,
                 name_prefix: str = "repro-serving",
                 metrics: MetricsRegistry | None = None):
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.max_total_threads = max_total_threads or max_workers * 4
        if self.max_total_threads < max_workers:
            raise ValueError("max_total_threads must be >= max_workers")
        self.name_prefix = name_prefix
        self.metrics = metrics or MetricsRegistry()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._alive = 0          # worker threads currently running
        self._hung = 0           # workers stuck on abandoned jobs
        self._spawned = 0        # lifetime thread count (names/cap)
        self._workers: set[threading.Thread] = set()   # not written off
        self._closed = False
        for _ in range(max_workers):
            self._spawn_locked()

    # ------------------------------------------------------------------
    # Caller side
    # ------------------------------------------------------------------
    def submit(self, fn, token: CancellationToken | None = None) -> Job:
        """Queue ``fn`` for execution; returns its :class:`Job`."""
        if self._closed:
            raise RuntimeError("pool is closed")
        job = Job(fn, token or CancellationToken())
        self._queue.put(job)
        return job

    def abandon(self, job: Job) -> None:
        """Give up on ``job``: cancel its token, replace a stuck worker.

        Safe to call whether or not the job has started; a job that
        already finished is left untouched.
        """
        job.token.cancel()
        # job._lock serializes this against _finish, so the hung gauge
        # moves exactly once per abandon/recover pair (lock order is
        # always job._lock -> self._lock; never the reverse).
        with job._lock:
            if job.done.is_set() or job.abandoned:
                return
            job.abandoned = True
            if not job.started:
                return
            # The worker underneath is now unaccounted-for: note the hang
            # and restore capacity with a fresh thread (bounded).
            with self._lock:
                self._hung += 1
                self._workers.discard(job.worker)
                self.metrics.gauge(mn.POOL_HUNG_THREADS).set(
                    self._hung)
                if (self._alive - self._hung < self.max_workers
                        and self._alive < self.max_total_threads
                        and not self._closed):
                    self._spawn_locked()
                    self.metrics.counter(
                        mn.POOL_REPLACEMENTS).inc()

    def stats(self) -> dict:
        """Live thread accounting (feeds tests and the stats dump)."""
        with self._lock:
            return {
                "alive": self._alive,
                "hung": self._hung,
                "spawned": self._spawned,
                "max_workers": self.max_workers,
                "max_total_threads": self.max_total_threads,
            }

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _spawn_locked(self) -> None:
        self._spawned += 1
        self._alive += 1
        thread = threading.Thread(
            target=self._work,
            name=f"{self.name_prefix}-{self._spawned}",
            daemon=True)
        self._workers.add(thread)
        thread.start()

    def _work(self) -> None:
        while True:
            try:
                item = self._queue.get(timeout=_QUEUE_POLL_S)
            except queue.Empty:
                continue
            if item is _STOP:
                with self._lock:
                    self._alive -= 1
                return
            job: Job = item
            with job._lock:
                if job.token.cancelled:
                    # Skipped before it ever ran: fail fast, keep the
                    # thread for real work.
                    job.error = CancelledError("job cancelled before start")
                    job.done.set()
                    self.metrics.counter(mn.POOL_SKIPPED).inc()
                    continue
                job.started = True
                job.worker = threading.current_thread()
            try:
                job.result_value = job.fn()
            except BaseException as error:  # delivered via Job.result
                job.error = error
            was_abandoned = self._finish(job)
            if was_abandoned and self._retire_surplus():
                return

    def _finish(self, job: Job) -> bool:
        """Mark ``job`` done; returns True if it had been abandoned."""
        with job._lock:
            abandoned = job.abandoned
            if abandoned:
                # This worker was written off as hung but recovered.
                with self._lock:
                    self._hung = max(0, self._hung - 1)
                    self.metrics.gauge(mn.POOL_HUNG_THREADS).set(
                        self._hung)
            job.done.set()
        if abandoned:
            self.metrics.counter(mn.POOL_RECOVERED).inc()
        return abandoned

    def _retire_surplus(self) -> bool:
        """Exit this worker if recovery left more threads than needed."""
        with self._lock:
            if self._alive - self._hung > self.max_workers:
                self._alive -= 1
                return True
            self._workers.add(threading.current_thread())
        return False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop accepting work and stop the workers (idempotent).

        Waits a bounded time for the workers that are not written off to
        exit.  Never waits on hung threads — they are daemons, exit once
        their late call returns, and die with the process.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            alive = self._alive
            workers = list(self._workers)
        for _ in range(alive):
            self._queue.put(_STOP)
        deadline = Deadline.after(_SHUTDOWN_JOIN_S)
        for thread in workers:
            thread.join(deadline.remaining())

    def __enter__(self) -> "CancellableWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
