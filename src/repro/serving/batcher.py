"""Dynamic micro-batcher: coalesce concurrent encode requests into batches.

Online traffic arrives as many small requests (often a single name each),
but the encoder's cost is dominated by per-call overhead — the transformer
forward amortises well over a batch.  :class:`MicroBatcher` sits between
caller threads and one :class:`~repro.service.providers.EmbeddingProvider`:
callers block in :meth:`encode` while their names join a shared pending
set, and a background worker flushes the set to the provider when the
first of these holds:

* it reaches ``max_batch_size`` names;
* every *counted* caller is blocked in :meth:`encode`, so no name can
  join the set before the flush would have carried it.  The owner counts
  the callers that may still add names with :meth:`caller` (the service
  holds one count per ``embed`` across its retries), so a lone caller is
  answered without waiting for the timer;
* the oldest pending name has waited ``max_wait_ms``.  This bounds the
  wait while a counted caller is outside :meth:`encode` (in retry backoff,
  say), and is the only timer rule for a batcher that counts no callers.

The worker runs one flush at a time, so under concurrent load each batch
holds the names that arrived while the previous flush ran.

Names are deduplicated **across requests**: if four threads concurrently
ask for ``"link failure"``, the provider sees it once and all four callers
share the resulting vector.

Each flush completes once, not once per name: it publishes its whole
batch (every vector, or one error for every entry) under the batcher's
lock and wakes the blocked callers with a single ``notify_all`` on a
completion condition.  That condition shares the lock but is not the one
the worker parks on, so registering names wakes only the worker and a
flush wakes only callers.  A woken caller re-checks its own entries and
waits again while any is unfinished.

Two mechanisms keep a hung or slow provider from wedging the batcher:

* **Deadline-aware waits** — :meth:`encode` accepts a
  :class:`~repro.serving.deadline.Deadline`; a caller whose budget runs
  out deregisters from its pending entries (counted in
  ``serving.abandoned_waits``) and raises
  :class:`~repro.serving.deadline.DeadlineExceeded`.  Entries with no
  remaining waiters leave the queue, so they neither hold the flush
  deadline open nor ride a future batch nobody wants.
* **Flush watchdog** — the worker submits each provider flush to its
  :class:`~repro.serving.pool.CancellableWorkerPool` (the flusher, one
  live thread) and waits at most ``flush_timeout_s`` for it.  A flush
  that blows the bound is abandoned: its entries fail with a typed
  :class:`~repro.serving.deadline.FlushTimeout` (waking every waiter so
  retry/fallback policy can engage), and the pool writes its thread off
  and starts a replacement.  Hung flush threads are tracked in the
  ``serving.pool.hung_threads`` gauge; when a late call returns, its
  result is discarded, the gauge comes back down
  (``serving.pool.recovered``) and the written-off thread exits.  With
  ``max_hung_flushes`` threads written off and still stuck, a circuit
  breaker fails each batch at once instead of submitting it, which is
  the one bound on stuck threads.

A provider result that is not ``(len(names), dim)`` fails the whole
batch with :class:`~repro.serving.store.ProviderShapeError`, counted in
``serving.batcher.errors`` like any provider error: zipping it would
leave the unmatched entries unfinished, their callers waiting out their
deadlines.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np

from repro.serving import metric_names as mn
from repro.serving.deadline import Deadline, DeadlineExceeded, FlushTimeout
from repro.serving.metrics import MetricsRegistry
from repro.serving.pool import CancellableWorkerPool
from repro.serving.store import ProviderShapeError
from repro.service.providers import EmbeddingProvider

#: Idle-worker wake interval.  The worker parks on the condition variable
#: when the queue is empty; waking every ``_IDLE_WAKE_S`` bounds the wait
#: so shutdown (or a missed notify) can never wedge it forever.
_IDLE_WAKE_S = 0.5


class _Pending:
    """One in-flight unique name, shared by every request that wants it.

    ``done``, ``vector`` and ``error`` are written once, under the
    batcher's lock, by the flush that carried the entry; waiters read
    them after seeing ``done`` under that lock.
    """

    __slots__ = ("done", "vector", "error", "enqueued_at", "waiters")

    def __init__(self, enqueued_at: float):
        self.done = False
        self.vector: np.ndarray | None = None
        self.error: BaseException | None = None
        self.enqueued_at = enqueued_at
        self.waiters = 0


class _Flush:
    """The names of one provider call."""

    __slots__ = ("names",)

    def __init__(self, names: list[str]):
        self.names = names


class MicroBatcher:
    """Request coalescer over an embedding provider.

    Flushes on size, on every counted caller waiting, or on the oldest
    name's deadline (see the module docstring).  Thread-safe; usable as a
    context manager (``with MicroBatcher(...)``) so the worker and flush
    threads are always joined.

    ``flush_timeout_s`` bounds each provider call; ``max_hung_flushes``
    bounds how many written-off flush threads may be stuck in it at once.
    """

    def __init__(self, provider: EmbeddingProvider, max_batch_size: int = 32,
                 max_wait_ms: float = 5.0, flush_timeout_s: float = 30.0,
                 max_hung_flushes: int = 8,
                 metrics: MetricsRegistry | None = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if flush_timeout_s <= 0:
            raise ValueError("flush_timeout_s must be positive")
        if max_hung_flushes < 1:
            raise ValueError("max_hung_flushes must be positive")
        self.provider = provider
        self.dim = provider.dim
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.flush_timeout_s = flush_timeout_s
        self.max_hung_flushes = max_hung_flushes
        self.metrics = metrics or MetricsRegistry()
        # One lock, two conditions: the worker parks on ``_cond``, callers
        # wait for their flushes on ``_done``.
        lock = threading.Lock()
        self._cond = threading.Condition(lock)
        self._done = threading.Condition(lock)
        self._pending: dict[str, _Pending] = {}
        # Callers counted by caller(), and callers blocked in encode().
        self._callers = 0
        self._waiting = 0
        self._closed = False
        self._flusher = CancellableWorkerPool(metrics=self.metrics)
        self.batches_flushed = 0
        self.names_encoded = 0
        self._worker = threading.Thread(target=self._run,
                                        name="repro-microbatcher",
                                        daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # Caller side
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def caller(self):
        """Count the calling thread as one that may still add names.

        While every counted caller is blocked in :meth:`encode`, pending
        names flush at once.  Hold the count across every attempt that
        may call :meth:`encode`, and only there: a counted caller that
        never encodes holds each flush to ``max_wait_ms``.  An uncounted
        caller blocked in :meth:`encode` counts as waiting too, which can
        only make a flush come sooner.
        """
        with self._cond:
            self._callers += 1
        try:
            yield
        finally:
            with self._cond:
                self._callers -= 1
                if self._pending:
                    self._cond.notify_all()

    def encode(self, names: list[str],
               deadline: Deadline | None = None) -> np.ndarray:
        """Blocking encode through the shared batch queue.

        Returns a ``(len(names), dim)`` matrix aligned with ``names``.
        Raises whatever the provider raised if the flush that carried one
        of these names failed.  With a ``deadline``, waits are bounded:
        expiry deregisters this caller from its pending entries and
        raises :class:`DeadlineExceeded`.
        """
        if not names:
            return np.zeros((0, self.dim))
        deadline = deadline or Deadline.never()
        now = time.monotonic()
        entries: dict[str, _Pending] = {}
        try:
            with self._done:
                if self._closed:
                    raise RuntimeError("MicroBatcher is closed")
                for name in names:
                    if name in entries:
                        continue
                    entry = self._pending.get(name)
                    if entry is None:
                        entry = _Pending(now)
                        self._pending[name] = entry
                    entry.waiters += 1
                    entries[name] = entry
                self._waiting += 1
                self.metrics.counter(mn.BATCHER_REQUESTS).inc()
                self.metrics.gauge(mn.BATCHER_QUEUE_DEPTH).set(
                    len(self._pending))
                self._cond.notify_all()
                try:
                    # A wake-up is any flush completing: re-check ours.
                    while not all(entry.done for entry in entries.values()):
                        timeout = deadline.wait_timeout()
                        if timeout is not None and timeout <= 0.0:
                            raise DeadlineExceeded(
                                f"encode of {len(names)} name(s) exceeded "
                                f"its deadline while waiting for a flush")
                        self._done.wait(timeout)
                finally:
                    self._waiting -= 1
        except DeadlineExceeded:
            self._abandon(entries)
            raise
        rows = []
        for name in names:
            entry = entries[name]
            if entry.error is not None:
                raise entry.error
            rows.append(entry.vector)
        return np.stack(rows)

    def _abandon(self, entries: dict[str, _Pending]) -> None:
        """Deregister a timed-out caller from its pending entries.

        Entries left with zero waiters that are still queued (the worker
        has not taken them) are dropped, so abandoned names do not hold
        the flush deadline open or occupy future batches.  Entries
        already riding an in-flight flush are left to the watchdog.
        """
        dropped = 0
        with self._cond:
            for name, entry in entries.items():
                if entry.done:
                    continue
                entry.waiters -= 1
                if entry.waiters <= 0 and self._pending.get(name) is entry:
                    del self._pending[name]
                    dropped += 1
            if dropped:
                self.metrics.gauge(mn.BATCHER_QUEUE_DEPTH).set(
                    len(self._pending))
        self.metrics.counter(mn.SERVING_ABANDONED_WAITS).inc()
        if dropped:
            self.metrics.counter(mn.BATCHER_DROPPED_NAMES).inc(
                dropped)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _take_batch(self) -> dict[str, _Pending] | None:
        """Block until a flush is due; returns the batch (None = closed)."""
        with self._cond:
            while True:
                if self._pending:
                    oldest = min(e.enqueued_at
                                 for e in self._pending.values())
                    deadline = oldest + self.max_wait_ms / 1000.0
                    now = time.monotonic()
                    if (len(self._pending) >= self.max_batch_size
                            or 0 < self._callers <= self._waiting
                            or now >= deadline or self._closed):
                        batch = {}
                        for name in list(self._pending)[:self.max_batch_size]:
                            batch[name] = self._pending.pop(name)
                        self.metrics.gauge(
                            mn.BATCHER_QUEUE_DEPTH).set(
                            len(self._pending))
                        return batch
                    self._cond.wait(timeout=deadline - now)
                elif self._closed:
                    return None
                else:
                    # Bounded idle park: a periodic wake costs one loop
                    # re-check; an unbounded wait() would rely on every
                    # state change remembering to notify.
                    self._cond.wait(timeout=_IDLE_WAKE_S)

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                break
            self._flush(batch)
        # Every flush submitted has settled, so the live flush thread is
        # idle and exits at once.
        self._flusher.shutdown()

    def _flush(self, batch: dict[str, _Pending]) -> None:
        """One provider call on the flusher, bounded by the watchdog."""
        names = list(batch)
        # Circuit breaker on the leak: with max_hung_flushes provider
        # calls already wedged, submitting another can only stack one
        # more hung thread on a dead encoder — fail fast instead.
        # Recovery of any hung call (or none ever recovering but callers
        # degrading via fallback) closes the breaker.
        if self._flusher.stats()["hung"] >= self.max_hung_flushes:
            self._fail_batch(batch, FlushTimeout(
                f"provider has {self.max_hung_flushes} hung flush(es) "
                f"outstanding; failing fast"))
            self.metrics.counter(mn.BATCHER_FAST_FAILS).inc()
            self.metrics.emit("flush_fast_fail", names=len(names))
            return
        flush = _Flush(names)
        job = self._flusher.submit(lambda: self._call_provider(flush))
        if not job.done.wait(self.flush_timeout_s):
            # Write the stuck thread off: the pool replaces it, and it
            # exits once its late call returns.
            self._flusher.abandon(job)
            if job.abandoned:   # else it completed in the race window
                self._fail_batch(batch, FlushTimeout(
                    f"provider flush of {len(names)} name(s) exceeded "
                    f"{self.flush_timeout_s:g}s"))
                self.metrics.counter(mn.SERVING_HUNG_FLUSHES).inc()
                self.metrics.emit("hung_flush", names=len(names),
                                  timeout_s=self.flush_timeout_s)
                return
        error = job.error
        if error is None and (np.shape(job.result_value)
                              != (len(names), self.dim)):
            # Zipped, a short result would leave entries unfinished.
            error = ProviderShapeError(
                f"provider returned shape {np.shape(job.result_value)} "
                f"for {len(names)} names of dim {self.dim}")
        if error is not None:
            self._fail_batch(batch, error)
            self.metrics.counter(mn.BATCHER_ERRORS).inc()
            self.metrics.emit("batch_error", names=len(names),
                              error=repr(error))
            return
        with self._done:
            for entry, vector in zip(batch.values(), job.result_value):
                entry.vector = vector
                entry.done = True
            self.batches_flushed += 1
            self.names_encoded += len(names)
            self._done.notify_all()
        self.metrics.counter(mn.BATCHER_BATCHES).inc()
        self.metrics.counter(mn.BATCHER_NAMES).inc(len(names))
        self.metrics.histogram(mn.BATCHER_BATCH_SIZE).observe(
            len(names))

    def _call_provider(self, flush: _Flush) -> np.ndarray:
        """The provider call for one flush (runs on the flusher)."""
        with self.metrics.time(mn.BATCHER_FLUSH_LATENCY):
            return self.provider.encode_names(flush.names)

    def _fail_batch(self, batch: dict[str, _Pending],
                    error: BaseException) -> None:
        """Fail every entry of ``batch`` and wake its waiters once."""
        with self._done:
            for entry in batch.values():
                entry.error = error
                entry.done = True
            self._done.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> bool:
        """Flush remaining names and stop the worker (idempotent).

        Returns True when the worker exited within ``timeout`` (every
        flush wait is bounded by the watchdog).  The worker stops the
        live flush thread on its way out; only written-off threads stuck
        in a hung provider call outlive it.
        """
        with self._cond:
            if not self._closed:
                self._closed = True
                self._cond.notify_all()
        self._worker.join(timeout)
        stopped = not self._worker.is_alive()
        if not stopped:
            self.metrics.emit("close_timeout", timeout_s=timeout)
        return stopped

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Flush counters for the metrics dump.

        ``flush_threads`` counts the flush threads started, so a healthy
        batcher reads 1; ``hung_flush_threads`` those written off and
        still stuck in the provider.
        """
        flusher = self._flusher.stats()
        with self._cond:
            return {
                "batches_flushed": self.batches_flushed,
                "names_encoded": self.names_encoded,
                "mean_batch_size": (self.names_encoded / self.batches_flushed
                                    if self.batches_flushed else 0.0),
                "pending": len(self._pending),
                "hung_flush_threads": flusher["hung"],
                "flush_threads": flusher["spawned"],
            }
