"""Fault-injection tests: the serving stack under hung/flaky encoders.

Regression suite for the hang-deadlock bug class: a provider that blocks
forever used to wedge ``MicroBatcher.encode`` (unbounded ``Event.wait``),
permanently consume retry-pool threads (≤8 hung requests deadlocked every
subsequent call), and block interpreter exit through the executor's
non-daemon threads.  Every test here runs under the hard
``@pytest.mark.timeout`` watchdog (tests/conftest.py) so a reintroduced
deadlock fails CI instead of hanging it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    CancellableWorkerPool,
    Deadline,
    DeadlineExceeded,
    EmbeddingStore,
    FaultAnalysisService,
    FlushTimeout,
    MetricsRegistry,
    MicroBatcher,
    PersistentProvider,
    ProviderShapeError,
    ServiceConfig,
    ServingError,
)
from repro.service import RandomProvider


# ----------------------------------------------------------------------
# Fault-injection providers
# ----------------------------------------------------------------------
class HangingProvider(RandomProvider):
    """Every encode blocks until :meth:`release` — a wedged encoder."""

    label = "Hanging"

    def __init__(self, dim=8):
        super().__init__(dim=dim, seed=0)
        self._release = threading.Event()
        self._lock = threading.Lock()
        self.started = 0
        self.finished = 0

    def blocked(self) -> int:
        """Threads currently stuck inside :meth:`encode_names`."""
        with self._lock:
            return self.started - self.finished

    def release(self) -> None:
        """Unwedge: every blocked (and future) call completes."""
        self._release.set()

    def encode_names(self, names):
        with self._lock:
            self.started += 1
        self._release.wait()
        with self._lock:
            self.finished += 1
        return super().encode_names(names)


class FlakyProvider(RandomProvider):
    """Hangs for the first ``hangs`` calls, then answers instantly."""

    label = "Flaky"

    def __init__(self, dim=8, hangs=1):
        super().__init__(dim=dim, seed=0)
        self.hangs = hangs
        self._release = threading.Event()
        self._lock = threading.Lock()
        self.calls = 0

    def release(self) -> None:
        self._release.set()

    def encode_names(self, names):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call <= self.hangs:
            self._release.wait()
        return super().encode_names(names)


class MisshapenProvider(RandomProvider):
    """Answers ``extra`` rows more than names asked (fewer if negative)."""

    label = "Misshapen"

    def __init__(self, dim=4, extra=-1):
        super().__init__(dim=dim, seed=0)
        self.extra = extra

    def encode_names(self, names):
        rows = super().encode_names(names)
        if self.extra < 0:
            return rows[:self.extra]
        return np.concatenate([rows, np.zeros((self.extra, self.dim))])


def _tight_config(**overrides):
    defaults = dict(max_batch_size=8, max_wait_ms=2, timeout_s=0.3,
                    max_retries=1, backoff_s=0.01, close_timeout_s=5.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _swallow(fn, *args, **kwargs):
    """Run ``fn`` ignoring its outcome — for background wedge threads
    whose success/failure depends on when teardown releases the provider."""
    try:
        fn(*args, **kwargs)
    except Exception:
        pass


def _new_flush_threads(before: set) -> list[threading.Thread]:
    """Live batcher flush threads started since ``before`` was taken."""
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-batcher-flush-")
            and thread not in before and thread.is_alive()]


def _poll(predicate, timeout=5.0, interval=0.01) -> bool:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_after_and_expiry(self):
        deadline = Deadline.after(0.05)
        assert 0.0 < deadline.remaining() <= 0.05
        assert 0.0 < deadline.wait_timeout() <= 0.05
        time.sleep(0.06)
        assert deadline.remaining() == 0.0
        assert deadline.wait_timeout() == 0.0

    def test_never(self):
        deadline = Deadline.never()
        assert deadline.remaining() == float("inf")
        assert deadline.wait_timeout() is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)


# ----------------------------------------------------------------------
# Flush worker pool: one live worker
# ----------------------------------------------------------------------
class TestCancellableWorkerPool:
    @pytest.mark.timeout(30)
    def test_submit_result_and_error(self):
        with CancellableWorkerPool() as pool:
            job = pool.submit(lambda: 41 + 1)
            assert job.done.wait(5.0)
            assert job.result_value == 42 and job.error is None
            failing = pool.submit(lambda: 1 / 0)
            assert failing.done.wait(5.0)
            assert isinstance(failing.error, ZeroDivisionError)
            assert pool.stats() == {"hung": 0, "spawned": 1}

    @pytest.mark.timeout(30)
    def test_abandon_before_start_skips_job(self):
        blocker = threading.Event()
        ran = []
        with CancellableWorkerPool() as pool:
            running = pool.submit(blocker.wait)
            queued = pool.submit(lambda: ran.append("queued"))
            pool.abandon(queued)           # abandoned while still queued
            blocker.set()
            assert queued.done.wait(5.0)
            assert ran == [] and queued.error is not None
            assert running.done.wait(5.0)
            assert pool.metrics.counter("serving.pool.skipped").value == 1
            # Nothing hung, so no thread was written off or replaced.
            assert pool.stats() == {"hung": 0, "spawned": 1}

    @pytest.mark.timeout(30)
    def test_hung_worker_is_replaced_then_retired(self):
        before = set(threading.enumerate())
        blocker = threading.Event()
        pool = CancellableWorkerPool()
        try:
            stuck = pool.submit(blocker.wait)
            assert _poll(lambda: stuck.started)
            pool.abandon(stuck)
            assert pool.stats() == {"hung": 1, "spawned": 2}
            assert pool.metrics.gauge(
                "serving.pool.hung_threads").value == 1
            assert pool.metrics.counter(
                "serving.pool.replacements").value == 1
            # The replacement is the live worker.
            jobs = [pool.submit(lambda i=i: i) for i in range(4)]
            for i, job in enumerate(jobs):
                assert job.done.wait(5.0) and job.result_value == i
            assert len(_new_flush_threads(before)) == 2
            # The stuck call returns: the gauge drops and the written-off
            # thread exits, leaving the one live flush thread.
            blocker.set()
            assert _poll(lambda: pool.stats()["hung"] == 0)
            assert _poll(lambda: len(_new_flush_threads(before)) == 1)
            assert pool.metrics.counter(
                "serving.pool.recovered").value == 1
            assert pool.submit(lambda: "still served").done.wait(5.0)
        finally:
            blocker.set()
            pool.shutdown()
        assert _poll(lambda: _new_flush_threads(before) == [])

    def test_shutdown_rejects_new_work(self):
        pool = CancellableWorkerPool()
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)


# ----------------------------------------------------------------------
# Micro-batcher under hung flushes
# ----------------------------------------------------------------------
class TestBatcherDeadlines:
    @pytest.mark.timeout(30)
    def test_encode_deadline_deregisters_waiter(self):
        provider = HangingProvider(dim=4)
        metrics = MetricsRegistry()
        batcher = MicroBatcher(provider, max_batch_size=8, max_wait_ms=2,
                               flush_timeout_s=10.0, metrics=metrics)
        try:
            # First name wedges the worker inside a flush...  (Outcome
            # irrelevant: it completes once teardown releases the provider.)
            first = threading.Thread(
                target=lambda: _swallow(batcher.encode, ["wedge"]),
                daemon=True)
            first.start()
            assert _poll(lambda: provider.blocked() == 1)
            # ...so this name stays queued; its waiter times out and must
            # deregister, leaving the queue empty.
            with pytest.raises(DeadlineExceeded):
                batcher.encode(["queued"], deadline=Deadline.after(0.1))
            assert batcher.stats()["pending"] == 0
            assert metrics.counter("serving.abandoned_waits").value >= 1
            assert metrics.counter(
                "serving.batcher.dropped_names").value >= 1
        finally:
            provider.release()
            batcher.close(timeout=5.0)

    @pytest.mark.timeout(30)
    def test_flush_watchdog_fails_entries_with_flush_timeout(self):
        provider = HangingProvider(dim=4)
        metrics = MetricsRegistry()
        batcher = MicroBatcher(provider, max_batch_size=8, max_wait_ms=2,
                               flush_timeout_s=0.1, metrics=metrics)
        try:
            start = time.monotonic()
            with pytest.raises(FlushTimeout):
                batcher.encode(["a", "b"])
            assert time.monotonic() - start < 5.0
            assert metrics.counter("serving.hung_flushes").value == 1
            assert batcher.stats()["hung_flush_threads"] == 1
            # The hung thread recovering brings the gauge back down and
            # its late result is discarded.
            provider.release()
            assert _poll(
                lambda: batcher.stats()["hung_flush_threads"] == 0)
            assert metrics.counter(
                "serving.pool.recovered").value == 1
        finally:
            provider.release()
            batcher.close(timeout=5.0)

    @pytest.mark.timeout(30)
    def test_healthy_flushes_share_one_flush_thread(self):
        before = set(threading.enumerate())
        batcher = MicroBatcher(RandomProvider(dim=4, seed=0),
                               max_batch_size=8, max_wait_ms=2,
                               flush_timeout_s=5.0)
        try:
            for i in range(20):
                assert batcher.encode([f"n{i}"]).shape == (1, 4)
            stats = batcher.stats()
            assert stats["batches_flushed"] == 20
            assert stats["flush_threads"] == 1
            assert len(_new_flush_threads(before)) == 1
        finally:
            assert batcher.close(timeout=5.0)
        assert _new_flush_threads(before) == []

    @pytest.mark.timeout(30)
    def test_worker_survives_hung_flush_and_serves_next_batch(self):
        before = set(threading.enumerate())
        provider = FlakyProvider(dim=4, hangs=1)
        metrics = MetricsRegistry()
        batcher = MicroBatcher(provider, max_batch_size=8, max_wait_ms=2,
                               flush_timeout_s=0.1, metrics=metrics)
        try:
            with pytest.raises(FlushTimeout):
                batcher.encode(["first"])
            out = batcher.encode(["second"])   # runs on a replacement
            assert out.shape == (1, 4)
            assert provider.calls == 2
            assert batcher.stats()["flush_threads"] == 2
            # close() stops the live flush thread; only the hung one,
            # still inside the provider, outlives it.
            assert batcher.close(timeout=5.0)
            assert len(_new_flush_threads(before)) == 1
            provider.release()
            assert _poll(lambda: _new_flush_threads(before) == [])
            assert batcher.stats()["hung_flush_threads"] == 0
            assert metrics.counter(
                "serving.pool.recovered").value == 1
        finally:
            provider.release()
            batcher.close(timeout=5.0)

    @pytest.mark.timeout(30)
    def test_shared_entry_survives_partial_abandon(self):
        provider = HangingProvider(dim=4)
        batcher = MicroBatcher(provider, max_batch_size=8, max_wait_ms=2,
                               flush_timeout_s=10.0)
        try:
            wedge = threading.Thread(
                target=lambda: _swallow(batcher.encode, ["wedge"]),
                daemon=True)
            wedge.start()
            assert _poll(lambda: provider.blocked() == 1)
            results = {}

            def patient():
                results["out"] = batcher.encode(["shared"])

            waiter = threading.Thread(target=patient, daemon=True)
            waiter.start()
            time.sleep(0.05)
            # The impatient caller abandons; the entry must survive for
            # the patient one (still registered).
            with pytest.raises(DeadlineExceeded):
                batcher.encode(["shared"], deadline=Deadline.after(0.05))
            assert batcher.stats()["pending"] == 1
            provider.release()
            waiter.join(timeout=5.0)
            assert results["out"].shape == (1, 4)
        finally:
            provider.release()
            batcher.close(timeout=5.0)

    @pytest.mark.timeout(30)
    def test_circuit_breaker_caps_hung_flush_threads(self):
        provider = HangingProvider(dim=4)
        metrics = MetricsRegistry()
        batcher = MicroBatcher(provider, max_batch_size=8, max_wait_ms=2,
                               flush_timeout_s=0.05, max_hung_flushes=2,
                               metrics=metrics)
        try:
            for _ in range(6):
                with pytest.raises(FlushTimeout):
                    batcher.encode(["x"])
            # Only the first two flushes reached the provider; the rest
            # failed fast without stacking more hung threads.
            assert provider.blocked() == 2
            assert batcher.stats()["hung_flush_threads"] == 2
            assert metrics.counter(
                "serving.batcher.fast_fails").value == 4
        finally:
            provider.release()
            batcher.close(timeout=5.0)


class TestBatcherProviderShape:
    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_misshapen_result_fails_every_caller(self, extra):
        provider = MisshapenProvider(dim=4, extra=extra)
        metrics = MetricsRegistry()
        batcher = MicroBatcher(provider, max_batch_size=8, max_wait_ms=20,
                               flush_timeout_s=5.0, metrics=metrics)
        outcomes = {}
        start = threading.Barrier(3)

        def call(names):
            start.wait()
            try:
                batcher.encode(names, deadline=Deadline.after(10.0))
                outcomes[tuple(names)] = "answered"
            except Exception as exc:
                outcomes[tuple(names)] = exc

        requests = [["a", "b"], ["b", "c"], ["c"]]
        threads = [threading.Thread(target=call, args=(names,), daemon=True)
                   for names in requests]
        try:
            began = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15.0)
            # Every caller is failed by the flush, long before its 10 s
            # deadline, instead of waiting it out.
            assert time.monotonic() - began < 5.0
            assert len(outcomes) == 3
            assert all(isinstance(outcome, ProviderShapeError)
                       for outcome in outcomes.values())
            stats = batcher.stats()
            assert stats["batches_flushed"] == 0
            assert stats["names_encoded"] == 0
            assert metrics.counter("serving.batcher.errors").value >= 1
            # The worker survives: the next well-shaped batch flushes.
            provider.extra = 0
            assert batcher.encode(["d"]).shape == (1, 4)
            assert batcher.stats()["batches_flushed"] == 1
        finally:
            assert batcher.close(timeout=5.0)


class TestBatcherCompletionStress:
    """Each flush completes its whole batch at once, under the lock."""

    @pytest.mark.timeout(60)
    def test_overlapping_callers_under_fast_switching(self):
        """More callers than cores, switching every 10 µs, over shared
        names: each call returns its names' vectors in order or, past a
        deadline shorter than a flush, raises DeadlineExceeded."""
        pool = [f"name-{i}" for i in range(24)]
        fixed = {name: np.arange(4.0) + 10.0 * i
                 for i, name in enumerate(pool)}

        class SleepyProvider(RandomProvider):
            label = "Sleepy"

            def encode_names(self, names):
                time.sleep(0.002)
                return np.stack([fixed[name] for name in names])

        batcher = MicroBatcher(SleepyProvider(dim=4), max_batch_size=8,
                               max_wait_ms=1000, flush_timeout_s=10.0)
        workers = (os.cpu_count() or 1) + 4
        stop_at = time.monotonic() + 1.0
        served, expired, failures = [], [], []

        def caller(seed):
            rng = np.random.default_rng(seed)
            impatient = seed % 3 == 0
            ok = late = 0
            try:
                while time.monotonic() < stop_at:
                    names = [pool[i] for i in
                             rng.integers(len(pool), size=rng.integers(1, 7))]
                    deadline = Deadline.after(0.0005) if impatient else None
                    try:
                        with batcher.caller():
                            got = batcher.encode(names, deadline=deadline)
                    except DeadlineExceeded:
                        if not impatient:
                            failures.append(("no deadline", names))
                        late += 1
                        continue
                    want = np.stack([fixed[name] for name in names])
                    if not np.array_equal(got, want):
                        failures.append(("wrong vectors", names))
                    ok += 1
            except Exception as error:  # noqa: BLE001 — reported
                failures.append(error)
            served.append(ok)
            expired.append(late)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(seed,),
                                        daemon=True)
                       for seed in range(workers)]
            for thread in threads:
                thread.start()
            joined_by = time.monotonic() + 20.0
            for thread in threads:
                thread.join(timeout=max(0.0, joined_by - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert sum(served) > workers and sum(expired) > 0
            assert batcher.stats()["pending"] == 0
            # No caller or waiting count leaked: a lone counted caller
            # is every counted caller, so it flushes without the timer.
            start = time.monotonic()
            with batcher.caller():
                got = batcher.encode([pool[0]])
            assert time.monotonic() - start < 0.5
            np.testing.assert_array_equal(got, fixed[pool[0]][None, :])
        finally:
            assert batcher.close(timeout=5.0)


# ----------------------------------------------------------------------
# Deadlock regression: the façade under a permanently hung primary
# ----------------------------------------------------------------------
class TestServiceUnderHungPrimary:
    @pytest.mark.timeout(60)
    def test_fallback_answers_within_budget(self):
        provider = HangingProvider(dim=8)
        fallback = RandomProvider(dim=8, seed=1)
        config = _tight_config()
        try:
            with FaultAnalysisService(provider, fallback=fallback,
                                      config=config) as service:
                start = time.monotonic()
                out = service.embed(["link failure"])
                elapsed = time.monotonic() - start
                assert out.shape == (1, 8)
                # Acceptance bound: timeout_s x attempts plus backoff
                # slack (and watchdog/scheduling grace).
                assert elapsed < config.total_budget_s() + 1.0
                assert service.metrics.counter(
                    "serving.fallbacks").value == 1
                assert service.metrics.counter(
                    "serving.timeouts").value >= 1
        finally:
            provider.release()

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("concurrent", [False, True])
    def test_blocked_threads_bounded_across_many_requests(self, concurrent):
        """Many hung requests must not accumulate blocked threads — the
        historical deadlock had 8 wedge everything."""
        provider = HangingProvider(dim=8)
        fallback = RandomProvider(dim=8, seed=1)
        config = _tight_config(timeout_s=0.15, max_retries=1,
                               max_hung_flushes=2)
        requests = 12
        try:
            with FaultAnalysisService(provider, fallback=fallback,
                                      config=config) as service:
                if concurrent:
                    threads = [
                        threading.Thread(
                            target=service.embed, args=([f"n{i}"],),
                            daemon=True)
                        for i in range(requests)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30.0)
                    assert not any(t.is_alive() for t in threads)
                else:
                    for i in range(requests):
                        out = service.embed([f"n{i}"])
                        assert out.shape == (1, 8)
                # Flush threads are started only to replace hung ones,
                # and no more than the breaker lets hang.
                assert service.stats()["batcher"]["flush_threads"] <= \
                    config.max_hung_flushes + 1
                # The provider-side leak is capped by the breaker.
                assert provider.blocked() <= config.max_hung_flushes
                assert service.metrics.counter(
                    "serving.fallbacks").value == requests
        finally:
            provider.release()

    @pytest.mark.timeout(30)
    def test_close_bounded_with_hung_provider(self):
        provider = HangingProvider(dim=8)
        service = FaultAnalysisService(
            provider, fallback=RandomProvider(dim=8, seed=1),
            config=_tight_config(timeout_s=0.1))
        try:
            service.embed(["a"])           # wedges one flush
            start = time.monotonic()
            service.close()
            assert time.monotonic() - start < 5.0
            service.close()                # idempotent
        finally:
            provider.release()

    @pytest.mark.timeout(30)
    def test_no_fallback_raises_typed_cause(self):
        provider = HangingProvider(dim=8)
        try:
            with FaultAnalysisService(
                    provider,
                    config=_tight_config(timeout_s=0.1,
                                         max_retries=0)) as service:
                with pytest.raises(ServingError) as excinfo:
                    service.embed(["a"])
                assert isinstance(excinfo.value.__cause__,
                                  (DeadlineExceeded, FlushTimeout))
        finally:
            provider.release()

    @pytest.mark.timeout(60)
    def test_flaky_primary_recovers_via_retry(self):
        provider = FlakyProvider(dim=8, hangs=1)
        fallback = RandomProvider(dim=8, seed=1)
        config = _tight_config(timeout_s=0.2, max_retries=2)
        try:
            with FaultAnalysisService(provider, fallback=fallback,
                                      config=config) as service:
                out = service.embed(["a"])
                assert out.shape == (1, 8)
                # Answered by the recovered primary, not the fallback.
                assert service.metrics.counter(
                    "serving.fallbacks").value == 0
                assert service.metrics.counter(
                    "serving.retries").value >= 1
                assert provider.calls >= 2
        finally:
            provider.release()

    @pytest.mark.timeout(60)
    def test_process_exit_completes_with_wedged_provider(self):
        """A wedged encoder must not block interpreter exit (the old
        non-daemon executor threads did)."""
        script = """
import threading, numpy as np, time
from repro.serving import FaultAnalysisService, ServiceConfig
from repro.service import RandomProvider

class Wedged(RandomProvider):
    label = "Wedged"
    def encode_names(self, names):
        threading.Event().wait()   # hangs forever

config = ServiceConfig(max_wait_ms=2, timeout_s=0.1, max_retries=1,
                       backoff_s=0.01, close_timeout_s=2.0)
service = FaultAnalysisService(Wedged(dim=4, seed=0),
                               fallback=RandomProvider(dim=4, seed=1),
                               config=config)
out = service.embed(["a"])
assert out.shape == (1, 4)
service.close()
print("EXITED-CLEANLY")
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=30)
        assert result.returncode == 0, result.stderr
        assert "EXITED-CLEANLY" in result.stdout

    @pytest.mark.timeout(30)
    def test_deadline_remaining_histogram_recorded(self):
        with FaultAnalysisService(RandomProvider(dim=4, seed=0),
                                  config=_tight_config()) as service:
            service.embed(["a"])
            histogram = service.metrics.histogram(
                "serving.deadline_remaining")
            assert histogram.count == 1
            assert histogram.percentile(50) > 0.0


# ----------------------------------------------------------------------
# Store durability under crashes and torn records
# ----------------------------------------------------------------------
class TestStoreDurability:
    def test_compact_crash_leaves_previous_log_intact(self, tmp_path,
                                                      monkeypatch):
        store = EmbeddingStore(tmp_path, fingerprint="f1")
        store.put_many({f"n{i}": np.full(2, float(i)) for i in range(4)})
        before = (tmp_path / "embeddings.jsonl").read_bytes()

        import contextlib

        import repro.serving.store as store_mod

        real_writer = store_mod.atomic_writer

        class _DyingHandle:
            """Write proxy that dies mid-stream (disk full, yanked mount)."""

            def __init__(self, inner):
                self._inner = inner
                self._writes = 0

            def write(self, data):
                self._writes += 1
                if self._writes > 1:
                    raise OSError("simulated crash mid-compaction")
                return self._inner.write(data)

        @contextlib.contextmanager
        def dying_writer(path):
            with real_writer(path) as handle:
                yield _DyingHandle(handle)

        monkeypatch.setattr(store_mod, "atomic_writer", dying_writer)
        with pytest.raises(OSError):
            store.compact()
        monkeypatch.undo()
        # The log is byte-identical and a fresh store still serves it:
        # the aborted temp stream never replaced it.
        assert (tmp_path / "embeddings.jsonl").read_bytes() == before
        reloaded = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(reloaded.get("n3"), 3.0)

    def test_compact_leaves_no_temp_files(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="new")
        EmbeddingStore(tmp_path, fingerprint="old").put_many(
            {"stale": np.zeros(2)})
        store.put_many({"keep": np.ones(2)})
        assert store.compact() == 1
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != "embeddings.jsonl"]
        assert leftovers == []
        assert np.allclose(
            EmbeddingStore(tmp_path, fingerprint="new").get("keep"), 1.0)

    def test_torn_record_degrades_to_miss(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1")
        store.put_many({"a": np.ones(2), "b": np.zeros(2)})
        reader = EmbeddingStore(tmp_path, fingerprint="f1",
                                lru_capacity=1)
        reader.get("a")                      # evicts nothing yet
        # Truncate mid-way through the *last* record under the reader.
        path = tmp_path / "embeddings.jsonl"
        path.write_bytes(path.read_bytes()[:-10])
        reader._lru.clear()                  # force both reads to disk
        assert reader.get("b") is None       # torn -> miss, no raise
        assert reader.stats()["misses"] >= 1
        # The offset is forgotten: the name can be re-written and served.
        reader.put_many({"b": np.full(2, 7.0)})
        assert np.allclose(reader.get("b"), 7.0)

    def test_compact_drops_torn_records(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1")
        store.put_many({"a": np.ones(2), "b": np.zeros(2)})
        path = tmp_path / "embeddings.jsonl"
        path.write_bytes(path.read_bytes()[:-10])
        store._lru.clear()
        assert store.compact() == 1          # only the intact record
        assert np.allclose(store.get("a"), 1.0)


# ----------------------------------------------------------------------
# PersistentProvider: slow encodes must not serialize cache hits
# ----------------------------------------------------------------------
@pytest.fixture(params=["disk", "memory"])
def store_dir(request, tmp_path):
    """A disk-log store directory, or ``None`` for the memory-only store."""
    return tmp_path if request.param == "disk" else None


class TestPersistentProviderConcurrency:
    @pytest.mark.timeout(30)
    def test_warm_reads_bypass_a_slow_encode(self, store_dir):
        class SlowProvider(RandomProvider):
            label = "Slow"

            def __init__(self, dim=4):
                super().__init__(dim=dim, seed=0)
                self.entered = threading.Event()
                self.release = threading.Event()

            def encode_names(self, names):
                self.entered.set()
                self.release.wait(10.0)
                return super().encode_names(names)

        slow = SlowProvider()
        store = EmbeddingStore(store_dir, fingerprint="f1", label="Slow")
        store.put_many({"hot": np.ones(4)})
        provider = PersistentProvider(slow, store)

        cold_result = {}

        def cold_path():
            cold_result["out"] = provider.encode_names(["cold"])

        thread = threading.Thread(target=cold_path, daemon=True)
        thread.start()
        assert slow.entered.wait(5.0)
        # While the encode is in flight, a warm hit must answer fast.
        start = time.monotonic()
        out = provider.encode_names(["hot"])
        elapsed = time.monotonic() - start
        assert np.allclose(out, 1.0)
        assert elapsed < 1.0
        slow.release.set()
        thread.join(timeout=5.0)
        assert cold_result["out"].shape == (1, 4)

    @pytest.mark.timeout(30)
    def test_racing_encodes_of_one_name_stay_consistent(self, store_dir):
        provider = PersistentProvider(
            RandomProvider(dim=4, seed=0),
            EmbeddingStore(store_dir, fingerprint="f1"))
        outputs = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            outputs.append(provider.encode_names(["dup", "dup"]))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(outputs) == 4
        for out in outputs:
            # Duplicate names within one request share one vector.
            assert np.allclose(out[0], out[1])
        # Racing encodes of the same cold name follow last-write-wins:
        # callers may transiently observe different vectors, but the store
        # converges — every later read returns one stored vector, and it
        # matches what one of the racers saw.
        settled = provider.encode_names(["dup"])[0]
        assert np.allclose(provider.encode_names(["dup"])[0], settled)
        assert any(np.allclose(out[0], settled) for out in outputs)
