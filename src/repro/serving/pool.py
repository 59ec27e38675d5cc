"""The flush worker: runs calls that may hang on one live thread.

``concurrent.futures.ThreadPoolExecutor`` is the wrong tool under a
provider that can hang: ``future.cancel()`` cannot stop running work, a
hung call permanently consumes one of the pool's threads, and the
executor's non-daemon threads are joined at interpreter exit — so a
wedged provider also makes the *process* unkillable by anything short of
SIGKILL.

:class:`CancellableWorkerPool` is the serving stack's one mechanism for
writing off a hung call; the micro-batcher runs every provider flush on
it:

* **one live daemon worker** — a hung provider can never block
  interpreter exit;
* **bounded waits** — the caller waits on the returned :class:`Job` with
  a timeout and then gives it up with
  :meth:`~CancellableWorkerPool.abandon`;
* **skip before start** — an abandoned job that has not started yet is
  never run;
* **write-off** — when a *running* job is abandoned its thread is counted
  in the ``serving.pool.hung_threads`` gauge and a replacement becomes
  the live worker; if the stuck call eventually returns
  (``serving.pool.recovered``), the gauge comes back down and the
  written-off thread exits.

The pool does not cap written-off threads: the batcher's
``max_hung_flushes`` circuit breaker stops submitting while that many are
stuck.
"""

from __future__ import annotations

import queue
import threading

from repro.serving import metric_names as mn
from repro.serving.metrics import MetricsRegistry

_STOP = object()

#: Idle-worker poll interval on the job queue.  Waking to re-check costs
#: a loop iteration; an unbounded ``get()`` would park the worker with no
#: way to bound the wait if a sentinel is ever lost.
_QUEUE_POLL_S = 0.5

#: Bound on :meth:`CancellableWorkerPool.shutdown`'s join of the live
#: worker; an idle worker takes its stop sentinel at once.
_SHUTDOWN_JOIN_S = 5.0


class Job:
    """One unit of work submitted to the pool.

    The caller waits on :attr:`done`, then reads :attr:`result_value` or
    :attr:`error`, or calls :meth:`CancellableWorkerPool.abandon` on
    timeout.  ``_lock`` serializes ``abandon`` against the worker starting
    and finishing the job.
    """

    __slots__ = ("fn", "done", "result_value", "error", "started",
                 "abandoned", "_lock")

    def __init__(self, fn):
        self.fn = fn
        self.done = threading.Event()
        self.result_value = None
        self.error: BaseException | None = None
        self.started = False
        self.abandoned = False
        self._lock = threading.Lock()


class CancellableWorkerPool:
    """One live daemon worker that survives hung jobs.

    ``metrics`` is the shared registry for the ``serving.pool.*``
    instruments.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics or MetricsRegistry()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._hung = 0           # written-off threads still in their call
        self._spawned = 0        # lifetime thread count (names, stats)
        self._worker: threading.Thread | None = None   # the live one
        self._closed = False
        self._spawn_locked()

    # ------------------------------------------------------------------
    # Caller side
    # ------------------------------------------------------------------
    def submit(self, fn) -> Job:
        """Queue ``fn`` for the live worker; returns its :class:`Job`."""
        if self._closed:
            raise RuntimeError("pool is closed")
        job = Job(fn)
        self._queue.put(job)
        return job

    def abandon(self, job: Job) -> None:
        """Give up on ``job``: skip it, or write its thread off.

        Safe to call whether or not the job has started; a job that
        already finished is left untouched.
        """
        # job._lock serializes this against the worker, so the hung gauge
        # moves exactly once per abandon/recover pair (lock order is
        # always job._lock -> self._lock; never the reverse).
        with job._lock:
            if job.done.is_set() or job.abandoned:
                return
            job.abandoned = True
            if not job.started:
                return
            with self._lock:
                self._hung += 1
                self.metrics.gauge(mn.POOL_HUNG_THREADS).set(self._hung)
                if not self._closed:
                    self._spawn_locked()
                    self.metrics.counter(mn.POOL_REPLACEMENTS).inc()

    def stats(self) -> dict:
        """Thread accounting: ``hung`` written off, ``spawned`` ever."""
        with self._lock:
            return {"hung": self._hung, "spawned": self._spawned}

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _spawn_locked(self) -> None:
        self._spawned += 1
        self._worker = threading.Thread(
            target=self._work, name=f"repro-batcher-flush-{self._spawned}",
            daemon=True)
        self._worker.start()

    def _work(self) -> None:
        while True:
            try:
                item = self._queue.get(timeout=_QUEUE_POLL_S)
            except queue.Empty:
                continue
            if item is _STOP:
                return
            job: Job = item
            with job._lock:
                if job.abandoned:
                    # Skipped before it ever ran: keep the thread for
                    # real work.
                    job.error = RuntimeError("job abandoned before start")
                    job.done.set()
                    self.metrics.counter(mn.POOL_SKIPPED).inc()
                    continue
                job.started = True
            try:
                job.result_value = job.fn()
            except BaseException as error:  # delivered via Job.error
                job.error = error
            if self._finish(job):
                return   # written off: the replacement is the live worker

    def _finish(self, job: Job) -> bool:
        """Mark ``job`` done; returns True if it had been abandoned."""
        with job._lock:
            abandoned = job.abandoned
            if abandoned:
                with self._lock:
                    self._hung -= 1
                    self.metrics.gauge(mn.POOL_HUNG_THREADS).set(
                        self._hung)
            job.done.set()
        if abandoned:
            self.metrics.counter(mn.POOL_RECOVERED).inc()
        return abandoned

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop accepting work and stop the live worker (idempotent).

        Waits a bounded time for the live worker to exit.  Never waits on
        written-off threads — they are daemons, exit once their late call
        returns, and die with the process.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
        self._queue.put(_STOP)
        worker.join(_SHUTDOWN_JOIN_S)

    def __enter__(self) -> "CancellableWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
