"""Tests for the online serving subsystem (:mod:`repro.serving`)."""

import base64
import contextlib
import io
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    EmbeddingStore,
    FaultAnalysisService,
    MetricsRegistry,
    MicroBatcher,
    PersistentProvider,
    ServiceConfig,
    ServingError,
)
from repro.netserve.protocol import handle_request, serve_loop
from repro.serving.metrics import Histogram
from repro.service import RandomProvider


class CountingProvider(RandomProvider):
    """Call-count probe: records every forward pass the encoder performs."""

    def __init__(self, dim=8, seed=0, delay_s=0.0):
        super().__init__(dim=dim, seed=seed)
        self.calls = 0
        self.batches: list[list[str]] = []
        self.delay_s = delay_s
        self._count_lock = threading.Lock()

    def encode_names(self, names):
        with self._count_lock:
            self.calls += 1
            self.batches.append(list(names))
        if self.delay_s:
            time.sleep(self.delay_s)
        return super().encode_names(names)


class FailingProvider(RandomProvider):
    """Raises for the first ``failures`` calls, then succeeds."""

    label = "Failing"

    def __init__(self, dim=8, failures=10**9):
        super().__init__(dim=dim, seed=0)
        self.failures = failures
        self.calls = 0

    def encode_names(self, names):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("primary encoder down")
        return super().encode_names(names)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(4)
        registry.gauge("depth").set(7)
        snap = registry.snapshot()
        assert snap["counters"]["requests"] == 5
        assert snap["gauges"]["depth"] == 7.0
        with pytest.raises(ValueError):
            registry.counter("requests").inc(-1)

    def test_gauge_add_moves_both_directions(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("hung_threads")
        gauge.add(3)
        gauge.add(-2)
        assert registry.snapshot()["gauges"]["hung_threads"] == 1.0
        gauge.add(-5)   # gauges, unlike counters, may go negative
        assert registry.snapshot()["gauges"]["hung_threads"] == -4.0

    def test_percentile_math(self):
        histogram = Histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        # numpy.percentile linear-interpolation convention.
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(95) == pytest.approx(95.05)
        assert histogram.percentile(99) == pytest.approx(99.01)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0
        assert histogram.mean == pytest.approx(50.5)

    def test_percentiles_match_numpy_on_random_data(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(size=257)
        histogram = Histogram("latency")
        for value in values:
            histogram.observe(value)
        for q in (50, 95, 99):
            assert histogram.percentile(q) == pytest.approx(
                np.percentile(values, q))

    def test_window_ages_out_old_samples(self):
        histogram = Histogram("latency", window=4)
        for value in (100.0, 100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0):
            histogram.observe(value)
        assert histogram.percentile(50) == 1.0   # window holds only 1.0s
        assert histogram.count == 8              # lifetime count preserved

    def test_empty_histogram(self):
        histogram = Histogram("latency")
        assert histogram.percentile(95) == 0.0
        assert histogram.mean == 0.0

    def test_timer_and_render(self):
        registry = MetricsRegistry()
        with registry.time("op"):
            pass
        text = registry.render()
        assert "histogram op" in text and "p95" in text

    def test_events_bounded_and_sunk(self):
        lines = []
        registry = MetricsRegistry(event_capacity=3, sink=lines.append)
        for i in range(5):
            registry.emit("tick", i=i)
        assert len(registry.events) == 3
        assert registry.events[-1]["i"] == 4
        assert len(lines) == 5
        assert json.loads(lines[0])["kind"] == "tick"


# ----------------------------------------------------------------------
# Memory-only store cache (PersistentProvider over EmbeddingStore(None))
# ----------------------------------------------------------------------
def _memory_cached(inner):
    return PersistentProvider(inner, EmbeddingStore(None, label=inner.label))


class TestCachedProvider:
    def test_stats_shape_feeds_merge(self):
        provider = _memory_cached(RandomProvider(dim=4, seed=0))
        provider.encode_names(["a", "b"])
        provider.encode_names(["a", "b"])
        stats = provider.stats()
        assert stats["hit_rate"] == 0.5
        assert (stats["hits"], stats["misses"]) == (2, 2)

    def test_concurrent_encodes_are_consistent(self):
        inner = CountingProvider(dim=4)
        provider = _memory_cached(inner)
        errors = []

        def worker():
            try:
                for _ in range(20):
                    out = provider.encode_names(["x", "y", "x"])
                    assert np.allclose(out[0], out[2])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Concurrent cold misses may duplicate work (last-write-wins, so a
        # hung encode can never block an independent caller), but once the
        # cache settles every further iteration is a pure hit: the call
        # count is bounded by the number of racing threads, not 8 * 20.
        assert 1 <= inner.calls <= 8
        assert len(provider.store) == 2


# ----------------------------------------------------------------------
# Micro-batcher
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_flush_on_size(self):
        provider = CountingProvider(dim=4)
        # Deadline far away: only the size trigger can flush.
        with MicroBatcher(provider, max_batch_size=4,
                          max_wait_ms=60_000) as batcher:
            names = ["n0", "n1", "n2", "n3"]
            out = batcher.encode(names)
            assert out.shape == (4, 4)
            assert provider.calls == 1
            assert sorted(provider.batches[0]) == names

    def test_flush_on_timeout(self):
        provider = CountingProvider(dim=4)
        with MicroBatcher(provider, max_batch_size=1000,
                          max_wait_ms=20) as batcher:
            start = time.monotonic()
            out = batcher.encode(["solo"])
            elapsed = time.monotonic() - start
            assert out.shape == (1, 4)
            assert provider.calls == 1
        assert elapsed < 5.0  # deadline fired; did not wait for batch fill

    def test_concurrent_singles_coalesce(self):
        """≥4 concurrent single-name requests land in ≤2 provider batches."""
        provider = CountingProvider(dim=4, delay_s=0.05)
        results = {}
        barrier = threading.Barrier(4)
        with MicroBatcher(provider, max_batch_size=16,
                          max_wait_ms=100) as batcher:

            def worker(name):
                barrier.wait()
                results[name] = batcher.encode([name])

            threads = [threading.Thread(target=worker, args=(f"name-{i}",))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(results) == 4
        assert provider.calls <= 2
        assert sum(len(b) for b in provider.batches) == 4

    def test_cross_request_dedup(self):
        """Concurrent requests for one name share a single encode."""
        provider = CountingProvider(dim=4, delay_s=0.05)
        outputs = []
        barrier = threading.Barrier(6)
        with MicroBatcher(provider, max_batch_size=16,
                          max_wait_ms=100) as batcher:

            def worker():
                barrier.wait()
                outputs.append(batcher.encode(["shared name"]))

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        total_encoded = sum(len(batch) for batch in provider.batches)
        assert total_encoded == 1          # the name crossed the wire once
        assert len(outputs) == 6
        for out in outputs[1:]:
            assert np.allclose(out, outputs[0])

    def test_duplicate_names_within_one_request(self):
        provider = CountingProvider(dim=4)
        with MicroBatcher(provider, max_batch_size=2,
                          max_wait_ms=10) as batcher:
            out = batcher.encode(["a", "a", "b"])
            assert out.shape == (3, 4)
            assert np.allclose(out[0], out[1])

    def test_provider_error_propagates(self):
        with MicroBatcher(FailingProvider(dim=4), max_batch_size=2,
                          max_wait_ms=5) as batcher:
            with pytest.raises(RuntimeError, match="primary encoder down"):
                batcher.encode(["a", "b"])
            # The worker survives a failed flush.
            with pytest.raises(RuntimeError):
                batcher.encode(["c"])

    def test_close_rejects_new_work(self):
        batcher = MicroBatcher(CountingProvider(dim=4), max_wait_ms=5)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.encode(["late"])

    def test_empty_request(self):
        with MicroBatcher(CountingProvider(dim=4)) as batcher:
            assert batcher.encode([]).shape == (0, 4)


# ----------------------------------------------------------------------
# Persistent embedding store
# ----------------------------------------------------------------------
class TestEmbeddingStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1", label="P",
                               mode="name")
        assert store.get("a") is None
        store.put_many({"a": np.arange(3.0)})
        assert np.allclose(store.get("a"), [0, 1, 2])
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert "a" in store and len(store) == 1

    def test_survives_process_restart(self, tmp_path):
        first = EmbeddingStore(tmp_path, fingerprint="f1")
        first.put_many({"a": np.ones(4), "b": np.zeros(4)})
        # A fresh instance (new process) reads the same log.
        second = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(second.get("a"), 1.0)
        assert second.stats()["disk_entries"] == 2

    def test_fingerprint_change_invalidates(self, tmp_path):
        old = EmbeddingStore(tmp_path, fingerprint="ckpt-v1")
        old.put_many({"a": np.ones(4)})
        fresh = EmbeddingStore(tmp_path, fingerprint="ckpt-v2")
        assert fresh.get("a") is None          # old vectors invisible
        fresh.put_many({"a": np.full(4, 2.0)})
        assert np.allclose(fresh.get("a"), 2.0)
        # The old namespace still answers under its own fingerprint.
        assert np.allclose(EmbeddingStore(tmp_path,
                                          fingerprint="ckpt-v1").get("a"), 1.0)

    def test_newest_record_wins(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1")
        store.put_many({"a": np.zeros(2)})
        store.put_many({"a": np.ones(2)})
        reloaded = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(reloaded.get("a"), 1.0)

    def test_compact_drops_stale_namespaces(self, tmp_path):
        EmbeddingStore(tmp_path, fingerprint="old").put_many(
            {f"n{i}": np.ones(2) for i in range(5)})
        live = EmbeddingStore(tmp_path, fingerprint="new")
        live.put_many({"keep": np.zeros(2)})
        assert live.compact() == 1
        # Only the live record remains in the log.
        lines = (tmp_path / "embeddings.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert np.allclose(live.get("keep"), 0.0)

    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=2)
        store.put_many({f"n{i}": np.full(2, float(i)) for i in range(5)})
        assert store.stats()["memory_entries"] == 2
        assert np.allclose(store.get("n0"), 0.0)   # served from disk tier
        assert store.stats()["memory_entries"] == 2

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1")
        store.put_many({"a": np.ones(2)})
        with open(tmp_path / "embeddings.jsonl", "ab") as handle:
            handle.write(b'{"v": "f1", "p": "provider", "m": "na')  # torn
        survivor = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(survivor.get("a"), 1.0)
        survivor.put_many({"b": np.zeros(2)})
        assert np.allclose(EmbeddingStore(tmp_path,
                                          fingerprint="f1").get("b"), 0.0)


_SPECIAL_FLOATS = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                            1e300, -1e300, 1 / 3, np.pi, 0.1])


class TestStoreRecordLayout:
    """Vectors are logged as base64 of their little-endian float64 bytes."""

    def test_float64_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = {"special": _SPECIAL_FLOATS,
                   "random": rng.standard_normal(32),
                   "float32": rng.standard_normal(8).astype(np.float32)}
        EmbeddingStore(tmp_path, fingerprint="f1").put_many(vectors)
        found = EmbeddingStore(tmp_path, fingerprint="f1").get_many(
            list(vectors))
        for name, vector in vectors.items():
            assert found[name].dtype == np.float64
            assert found[name].tobytes() == \
                np.asarray(vector, dtype=np.float64).tobytes()
        found["special"][0] = 1.0  # a decoded vector is a private copy

    def test_record_carries_base64_little_endian_bytes(self, tmp_path):
        EmbeddingStore(tmp_path, fingerprint="f1", label="P").put_many(
            {"a": _SPECIAL_FLOATS})
        line = (tmp_path / "embeddings.jsonl").read_text().strip()
        record = json.loads(line)
        assert record == {
            "v": "f1", "p": "P", "m": "name", "n": "a",
            "b": base64.b64encode(_SPECIAL_FLOATS.astype("<f8").tobytes()
                                  ).decode("ascii")}

    def test_every_line_equals_the_json_dumps_record(self, tmp_path):
        """The namespace is encoded once per store; each line must still
        be exactly ``json.dumps`` of the five-key record."""
        rng = np.random.default_rng(1)
        vectors = {
            'quote " inside': rng.standard_normal(6),
            "back\\slash\\": rng.standard_normal(3).astype(np.float32),
            "control \x00\x01\t\n\x1f\x7f": _SPECIAL_FLOATS,
            "non-ASCII 告警 Ünïcode \u2028 ✓": rng.standard_normal(1),
            "": rng.standard_normal(9).astype(np.float32),
            "plain": np.arange(4, dtype=np.float64),
        }
        store = EmbeddingStore(tmp_path, fingerprint="fp-Ünï \"告\"",
                               label="Prov✓\\", mode="name")
        store.put_many(vectors)
        lines = (tmp_path / "embeddings.jsonl").read_bytes().splitlines(
            keepends=True)
        assert len(lines) == len(vectors)
        for line, (name, vector) in zip(lines, vectors.items()):
            packed = np.asarray(vector, dtype="<f8").tobytes()
            record = {"v": store.fingerprint, "p": store.label,
                      "m": store.mode, "n": name,
                      "b": base64.b64encode(packed).decode("ascii")}
            assert line == json.dumps(record,
                                      ensure_ascii=False).encode() + b"\n"
        reopened = EmbeddingStore(tmp_path, fingerprint=store.fingerprint,
                                  label=store.label)
        found = reopened.get_many(list(vectors))
        for name, vector in vectors.items():
            assert found[name].tobytes() == \
                np.asarray(vector, dtype=np.float64).tobytes()

    def test_old_layout_record_is_reencoded_and_compacted(self, tmp_path):
        inner = CountingProvider(dim=4)
        legacy = {"v": "f1", "p": inner.label, "m": "name", "n": "old",
                  "e": [9.0, 9.0, 9.0, 9.0]}
        (tmp_path / "embeddings.jsonl").write_text(json.dumps(legacy) + "\n")
        store = EmbeddingStore(tmp_path, fingerprint="f1", label=inner.label)
        assert "old" not in store and store.get("old") is None
        vector = PersistentProvider(inner, store).encode_names(["old"])[0]
        assert inner.calls == 1                    # encoded once more
        assert not np.allclose(vector, 9.0)
        assert store.compact() == 1
        lines = (tmp_path / "embeddings.jsonl").read_text().splitlines()
        assert len(lines) == 1 and "e" not in json.loads(lines[0])
        reopened = PersistentProvider(
            inner, EmbeddingStore(tmp_path, fingerprint="f1",
                                  label=inner.label))
        np.testing.assert_array_equal(reopened.encode_names(["old"])[0],
                                      vector)
        assert inner.calls == 1                    # now served from disk

    def test_torn_base64_tail_is_skipped_on_reopen(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1")
        store.put_many({"a": np.ones(4), "b": np.full(4, 2.0)})
        path = tmp_path / "embeddings.jsonl"
        raw = path.read_bytes()
        path.write_bytes(raw[:raw.rindex(b'"b": "') + 12])  # mid-base64
        reopened = EmbeddingStore(tmp_path, fingerprint="f1")
        assert reopened.names() == ["a"]
        np.testing.assert_array_equal(reopened.get("a"), np.ones(4))
        reopened.put_many({"b": np.full(4, 3.0)})
        np.testing.assert_array_equal(
            EmbeddingStore(tmp_path, fingerprint="f1").get("b"),
            np.full(4, 3.0))


class TestPersistentProvider:
    def test_warm_store_zero_forward_passes(self, tmp_path):
        """Acceptance: 200 warm names → zero provider forward passes."""
        names = [f"alarm {i}" for i in range(200)]
        cold_inner = CountingProvider(dim=8)
        cold = PersistentProvider(
            cold_inner, EmbeddingStore(tmp_path, fingerprint="f1"))
        first = cold.encode_names(names)
        assert cold_inner.calls == 1

        # Fresh provider + fresh store instance = a new process.
        warm_inner = CountingProvider(dim=8)
        warm = PersistentProvider(
            warm_inner, EmbeddingStore(tmp_path, fingerprint="f1"))
        second = warm.encode_names(names)
        assert warm_inner.calls == 0               # zero forward passes
        assert np.allclose(first, second)
        assert warm.stats()["hits"] == 200

    def test_refingerprinted_store_reencodes(self, tmp_path):
        names = ["a", "b"]
        PersistentProvider(CountingProvider(dim=4),
                           EmbeddingStore(tmp_path, fingerprint="v1")
                           ).encode_names(names)
        retrained = CountingProvider(dim=4, seed=9)
        provider = PersistentProvider(
            retrained, EmbeddingStore(tmp_path, fingerprint="v2"))
        provider.encode_names(names)
        assert retrained.calls == 1                # invalidation re-encodes


class TestStoreRegressions:
    """Regression pins for the three store bugfixes in this PR."""

    def test_get_many_opens_the_log_once(self, tmp_path, monkeypatch):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=1)
        names = [f"n{i}" for i in range(60)]
        store.put_many({n: np.full(3, float(i))
                        for i, n in enumerate(names)})
        assert store.stats()["memory_entries"] == 1  # 59 are disk-only

        opens = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(store.path):
                opens.append(file)
            return real_open(file, *args, **kwargs)

        import builtins
        monkeypatch.setattr(builtins, "open", counting_open)
        found = store.get_many(names)
        assert len(found) == 60
        assert len(opens) == 1                     # one handle per batch
        for i, name in enumerate(names):
            assert np.allclose(found[name], float(i))

    def test_wrong_shape_provider_is_refused_and_not_persisted(
            self, tmp_path):
        from repro.serving import ProviderShapeError

        class ShortProvider(RandomProvider):
            def encode_names(self, names):
                return super().encode_names(names)[:-1]   # drops a row

        store = EmbeddingStore(tmp_path, fingerprint="f1")
        provider = PersistentProvider(ShortProvider(dim=4), store)
        with pytest.raises(ProviderShapeError):
            provider.encode_names(["a", "b", "c"])
        # Nothing half-zipped reached the store.
        assert len(store) == 0

    def test_compact_repersists_lru_only_names(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=2)
        store.put_many({"a": np.zeros(2)})
        store.put_many({"b": np.ones(2)})
        store.put_many({"c": np.full(2, 2.0)})     # LRU now holds b, c
        # Tear c's trailing disk record; its only good copy is the LRU.
        raw = (tmp_path / "embeddings.jsonl").read_bytes()
        torn = raw[:raw.rstrip(b"\n").rfind(b"\n") + 1] + b'{"v": "f1'
        (tmp_path / "embeddings.jsonl").write_bytes(torn)

        assert store.compact() == 3
        reloaded = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(reloaded.get("a"), 0.0)  # streamed from disk
        assert np.allclose(reloaded.get("c"), 2.0)  # re-persisted from LRU
        lines = (tmp_path / "embeddings.jsonl").read_text().splitlines()
        assert len(lines) == 3

    def test_failed_compact_leaves_original_log(self, tmp_path,
                                                monkeypatch):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=2)
        store.put_many({f"n{i}": np.full(2, float(i)) for i in range(5)})
        before = (tmp_path / "embeddings.jsonl").read_bytes()

        def boom(handle, offset):
            raise RuntimeError("disk died mid-compaction")

        monkeypatch.setattr(EmbeddingStore, "_decode_at",
                            staticmethod(boom))
        with pytest.raises(RuntimeError):
            store.compact()
        monkeypatch.undo()
        # temp+fsync+rename: the aborted rewrite never replaced the log.
        assert (tmp_path / "embeddings.jsonl").read_bytes() == before
        reloaded = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(reloaded.get("n0"), 0.0)

    def test_len_and_stats_count_tier_union(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=2)
        store.put_many({f"n{i}": np.full(2, float(i)) for i in range(5)})
        stats = store.stats()
        # n3/n4 live in BOTH tiers; the union must not double-count them.
        assert stats["memory_entries"] == 2
        assert stats["disk_entries"] == 5
        assert stats["entries"] == 5
        assert len(store) == 5
        assert store.names() == sorted(f"n{i}" for i in range(5))


# ----------------------------------------------------------------------
# Façade: timeout / retry / fallback / stats
# ----------------------------------------------------------------------
def _fast_config(**overrides):
    defaults = dict(max_batch_size=8, max_wait_ms=2, timeout_s=5.0,
                    max_retries=1, backoff_s=0.001)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestFaultAnalysisService:
    def test_embed_batches_and_counts(self):
        with FaultAnalysisService(CountingProvider(dim=8),
                                  config=_fast_config()) as service:
            out = service.embed(["a", "b"])
            assert out.shape == (2, 8)
            service.embed(["a"])
            stats = service.stats()
            assert stats["requests"] == 2
            assert stats["cache"]["hits"] == 1
            assert stats["latency"]["count"] == 2
            assert stats["latency"]["p95"] >= stats["latency"]["p50"] >= 0.0

    def test_retry_then_success(self):
        provider = FailingProvider(dim=8, failures=1)
        with FaultAnalysisService(provider,
                                  config=_fast_config()) as service:
            out = service.embed(["a"])
            assert out.shape == (1, 8)
            assert provider.calls == 2
            assert service.metrics.counter("serving.retries").value == 1

    def test_fallback_after_exhausted_retries(self):
        fallback = CountingProvider(dim=8, seed=1)
        fallback.label = "Random"  # same label, different instance
        with FaultAnalysisService(FailingProvider(dim=8),
                                  fallback=fallback,
                                  config=_fast_config()) as service:
            out = service.embed(["a", "b"])
            assert out.shape == (2, 8)
            assert fallback.calls == 1
            assert service.metrics.counter("serving.fallbacks").value == 1
            kinds = [e["kind"] for e in service.metrics.events]
            assert "fallback" in kinds and "error" in kinds

    def test_raises_without_fallback(self):
        with FaultAnalysisService(FailingProvider(dim=8),
                                  config=_fast_config()) as service:
            with pytest.raises(ServingError):
                service.embed(["a"])

    def test_timeout_degrades_to_fallback(self):
        slow = CountingProvider(dim=8, delay_s=0.5)
        fallback = CountingProvider(dim=8, seed=1)
        config = _fast_config(timeout_s=0.05, max_retries=0)
        with FaultAnalysisService(slow, fallback=fallback,
                                  config=config) as service:
            out = service.embed(["a"])
            assert out.shape == (1, 8)
            assert fallback.calls == 1
            assert service.metrics.counter("serving.timeouts").value == 1

    @pytest.mark.timeout(60)
    def test_concurrent_inline_embeds_get_their_own_vectors(self):
        """Embed attempts run on the callers' threads: under a short
        switch interval, many callers sharing the store and the batcher
        each get the provider's vector for every name, through one flush
        thread, and exactly the embeds the store could not answer whole
        enter the batcher."""
        provider = RandomProvider(dim=4, seed=0)
        pool = [f"name-{i}" for i in range(24)]
        callers, per_caller = 12, 20
        replies, failures, from_store = [], [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with FaultAnalysisService(provider,
                                      config=_fast_config()) as service:
                encode_stored = service._cached.encode_stored

                def count_route(names):
                    vectors = encode_stored(names)
                    from_store.append(vectors is not None)
                    return vectors

                service._cached.encode_stored = count_route

                def caller(seed):
                    rng = np.random.default_rng(seed)
                    try:
                        for _ in range(per_caller):
                            names = list(rng.choice(pool, size=3))
                            replies.append((names, service.embed(names)))
                    except Exception as error:  # noqa: BLE001 — reported
                        failures.append(error)

                threads = [threading.Thread(target=caller, args=(seed,))
                           for seed in range(callers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(replies) == callers * per_caller
        for names, vectors in replies:
            assert np.array_equal(vectors, provider.encode_names(names))
        assert stats["requests"] == callers * per_caller
        assert len(from_store) == callers * per_caller
        assert stats["metrics"]["counters"][
            "serving.batcher.requests"] == from_store.count(False)
        assert 0 < from_store.count(False) < callers * per_caller
        assert stats["batcher"]["flush_threads"] == 1

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError, match="backoff_s"):
            ServiceConfig(backoff_s=-1)
        ServiceConfig(backoff_s=0)   # no sleep between attempts is fine

    def test_fallback_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FaultAnalysisService(RandomProvider(dim=8, seed=0),
                                 fallback=RandomProvider(dim=4, seed=0))

    def test_persistent_store_integration(self, tmp_path):
        names = [f"n{i}" for i in range(20)]
        with FaultAnalysisService(CountingProvider(dim=8),
                                  config=_fast_config(),
                                  store_dir=tmp_path,
                                  fingerprint="f1") as service:
            service.embed(names)
        inner = CountingProvider(dim=8)
        with FaultAnalysisService(inner, config=_fast_config(),
                                  store_dir=tmp_path,
                                  fingerprint="f1") as service:
            service.embed(names)
            assert inner.calls == 0
            assert service.stats()["store"]["disk_entries"] == 20

    def test_memory_only_store_is_the_cache(self):
        with FaultAnalysisService(CountingProvider(dim=8),
                                  config=_fast_config()) as service:
            service.embed(["a", "b"])
            service.embed(["a"])
            stats = service.stats()
        assert stats["cache"] == {"hits": 1, "misses": 2, "hit_rate": 1 / 3}
        assert stats["store"]["memory_entries"] == 2
        assert stats["store"]["disk_entries"] == 0
        assert service.store.path is None

    def test_index_without_store_dir_stays_at_generation_zero(
            self, tmp_path):
        from repro.index import VectorIndex

        index = VectorIndex(tmp_path / "idx", fingerprint="f1")
        with FaultAnalysisService(RandomProvider(dim=8, seed=0),
                                  config=_fast_config(), fingerprint="f1",
                                  index=index) as service:
            assert index.stats()["generation"] == 0
            service.embed(["a"])
        assert list(tmp_path.iterdir()) == [tmp_path / "idx"]

    def test_closed_service_refuses_every_op(self, tmp_path):
        """After close(), embed, retrieve and a task op raise at once:
        no attempt, no backoff, no fallback, no metric moves."""
        from repro.index import VectorIndex

        _, rca, _, _ = _tiny_adapters()
        provider = CountingProvider(dim=16)
        fallback = CountingProvider(dim=16, seed=1)
        service = FaultAnalysisService(
            provider, fallback=fallback, config=_fast_config(),
            fingerprint="f1", rca=rca,
            index=VectorIndex(tmp_path, fingerprint="f1"))
        service.close()
        before = service.metrics.snapshot()
        for op in (lambda: service.embed(["b"]),
                   lambda: service.retrieve(["b"], k=1),
                   lambda: service.rank_root_causes(rca.dataset.states[0])):
            with pytest.raises(RuntimeError, match="closed"):
                op()
        assert service.metrics.snapshot() == before
        assert service.metrics.events == []
        assert provider.calls == fallback.calls == 0
        assert not rca.fitted


# ----------------------------------------------------------------------
# Flush rule: a batch goes once every embed in flight waits on it
# ----------------------------------------------------------------------
def _long_timer_config(**overrides):
    """A flush timer no test waits out: only size or callers flush."""
    return _fast_config(max_wait_ms=60_000, **overrides)


class ScriptedProvider(RandomProvider):
    """Plays ``script`` one call at a time, then answers every call:
    ``"fail"`` raises, ``"hang"`` blocks until :meth:`release`."""

    def __init__(self, dim=8, script=()):
        super().__init__(dim=dim, seed=0)
        self.script = list(script)
        self._released = threading.Event()

    def release(self) -> None:
        self._released.set()

    def encode_names(self, names):
        action = self.script.pop(0) if self.script else "answer"
        if action == "fail":
            raise RuntimeError("primary encoder down")
        if action == "hang":
            self._released.wait(timeout=30.0)
        return super().encode_names(names)


def _timed(call):
    start = time.monotonic()
    result = call()
    return result, time.monotonic() - start


class TestFlushWhenEveryCallerWaits:
    """The service counts each embed as a batcher caller, so a lone
    caller's names flush at once whatever ``max_wait_ms`` says."""

    @pytest.mark.timeout(20)
    def test_lone_embed_answers_at_once(self):
        with FaultAnalysisService(RandomProvider(dim=8, seed=0),
                                  config=_long_timer_config()) as service:
            out, elapsed = _timed(
                lambda: service.embed(["link failure", "paging storm"]))
        assert out.shape == (2, 8)
        assert elapsed < 1.0

    @pytest.mark.timeout(20)
    def test_lone_retrieve_answers_at_once(self, tmp_path):
        from repro.index import VectorIndex

        index = VectorIndex(tmp_path / "idx", fingerprint="f1")
        with FaultAnalysisService(RandomProvider(dim=8, seed=0),
                                  config=_long_timer_config(),
                                  fingerprint="f1", index=index) as service:
            hits, elapsed = _timed(
                lambda: service.retrieve(["link failure"], k=1))
        assert [hit["name"] for hit in hits[0]] == ["link failure"]
        assert elapsed < 1.0

    @pytest.mark.timeout(30)
    def test_first_task_op_fits_at_once(self):
        _, rca, _, _ = _tiny_adapters()
        state = rca.dataset.states[0]
        # No batch fills up: the fit's embed flushes because it waits.
        config = _long_timer_config(max_batch_size=10_000)
        with FaultAnalysisService(RandomProvider(dim=16, seed=0),
                                  config=config, rca=rca) as service:
            ranking, elapsed = _timed(
                lambda: service.rank_root_causes(state))
        assert rca.fitted
        assert sorted(n for n, _ in ranking) == sorted(state.node_names)
        assert elapsed < 1.0

    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("outcome", ["retried", "fell_back", "raised"])
    def test_caller_count_does_not_leak(self, outcome):
        """Whichever way an embed leaves the retry policy, it leaves the
        count: a later lone embed does not wait for the timer."""
        script, fallback, retries = {
            "retried": (["fail"], None, 1),
            "fell_back": (["hang"], RandomProvider(dim=8, seed=1), 0),
            "raised": (["fail", "fail"], None, 1),
        }[outcome]
        provider = ScriptedProvider(dim=8, script=script)
        config = _long_timer_config(timeout_s=0.2, max_retries=retries)
        try:
            with FaultAnalysisService(provider, fallback=fallback,
                                      config=config) as service:
                if outcome == "raised":
                    with pytest.raises(ServingError):
                        service.embed(["first"])
                else:
                    assert service.embed(["first"]).shape == (1, 8)
                before = service.metrics.snapshot()["counters"]
                out, elapsed = _timed(lambda: service.embed(["second"]))
                after = service.metrics.snapshot()["counters"]
        finally:
            provider.release()
        marker = {"retried": "serving.retries",
                  "fell_back": "serving.fallbacks",
                  "raised": "serving.errors"}[outcome]
        assert before.get(marker, 0) >= 1
        # The primary answered at once: no timeout, retry or fallback.
        assert elapsed < 1.0
        assert np.array_equal(out, provider.encode_names(["second"]))
        for counter in ("serving.timeouts", "serving.retries",
                        "serving.fallbacks"):
            assert after.get(counter, 0) == before.get(counter, 0)

    @pytest.mark.timeout(30)
    def test_caller_in_backoff_does_not_hold_another_callers_name(self):
        """The timer still bounds the wait while a counted caller sleeps
        in retry backoff: the second name flushes after ``max_wait_ms``,
        not when the first caller returns to the batcher."""
        provider = FailingProvider(dim=8, failures=1)
        config = _fast_config(max_wait_ms=50, max_retries=1, backoff_s=0.5)
        first_replies = []
        with FaultAnalysisService(provider, config=config) as service:
            retries = service.metrics.counter("serving.retries")
            first = threading.Thread(
                target=lambda: first_replies.append(service.embed(["a"])))
            first.start()
            give_up = time.monotonic() + 5.0
            while retries.value < 1 and time.monotonic() < give_up:
                time.sleep(0.001)
            assert retries.value == 1   # the first caller is in backoff
            out, elapsed = _timed(lambda: service.embed(["b"]))
            first.join(timeout=5.0)
        assert out.shape == (1, 8)
        assert elapsed < 0.4
        assert len(first_replies) == 1

    @pytest.mark.timeout(30)
    def test_caller_leaving_from_fallback_releases_waiting_names(self):
        """A counted caller that runs its fallback holds other names to
        the timer; its return must flush them, not the timer."""
        provider = ScriptedProvider(dim=8, script=["fail"])
        fallback = CountingProvider(dim=8, seed=1, delay_s=0.3)
        config = _long_timer_config(max_retries=0)
        first_replies = []
        with FaultAnalysisService(provider, fallback=fallback,
                                  config=config) as service:
            first = threading.Thread(
                target=lambda: first_replies.append(service.embed(["a"])))
            first.start()
            give_up = time.monotonic() + 5.0
            while fallback.calls < 1 and time.monotonic() < give_up:
                time.sleep(0.001)
            assert fallback.calls == 1   # the first caller is in fallback
            out, elapsed = _timed(lambda: service.embed(["b"]))
            first.join(timeout=5.0)
        assert elapsed < 1.0
        assert np.array_equal(out, provider.encode_names(["b"]))
        assert len(first_replies) == 1 and fallback.calls == 1

    @pytest.mark.timeout(30)
    def test_concurrent_single_name_embeds_share_flushes(self):
        """While one flush runs, the other callers' names gather into the
        next, so many callers make fewer provider calls than requests.
        No batch fills and the timer never fires, so under a short switch
        interval a lost wake-up of the flush worker hangs the test."""
        provider = CountingProvider(dim=8, delay_s=0.002)
        callers, per_caller = 8, 12
        replies, failures = [], []
        barrier = threading.Barrier(callers)
        config = _long_timer_config(max_batch_size=10_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with FaultAnalysisService(provider, config=config) as service:
                def caller(index):
                    barrier.wait()
                    try:
                        for request in range(per_caller):
                            name = f"caller-{index}-name-{request}"
                            replies.append((name, service.embed([name])))
                    except Exception as error:  # noqa: BLE001 — reported
                        failures.append(error)

                threads = [threading.Thread(target=caller, args=(index,))
                           for index in range(callers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=20.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        provider_calls = provider.calls
        assert failures == []
        assert len(replies) == callers * per_caller
        assert provider_calls < callers * per_caller
        for name, vector in replies:
            assert np.array_equal(vector, provider.encode_names([name]))


# ----------------------------------------------------------------------
# Route: an embed of stored names is answered on the caller's thread
# ----------------------------------------------------------------------
def _batcher_work(service, provider) -> tuple:
    counters = service.metrics.snapshot()["counters"]
    return (counters.get("serving.batcher.requests", 0),
            service.batcher.stats()["batches_flushed"], provider.calls)


class TestStoredNamesSkipTheBatcher:
    @pytest.mark.timeout(60)
    def test_stored_name_answers_while_a_flush_is_wedged(self):
        """Through the batcher, the stored name would wait behind the
        wedged flush until its attempt timed out."""
        provider = WedgeableProvider(dim=8)
        config = _fast_config(timeout_s=1.0, flush_timeout_s=5.0,
                              max_retries=0)

        def embed_new():
            with contextlib.suppress(ServingError):
                service.embed(["new"])

        with FaultAnalysisService(provider, config=config) as service:
            first = service.embed(["stored"])
            provider.wedge()
            wedged = threading.Thread(target=embed_new)
            try:
                wedged.start()
                give_up = time.monotonic() + 5.0
                while provider.wedged_calls < 1 and \
                        time.monotonic() < give_up:
                    time.sleep(0.001)
                assert provider.wedged_calls == 1   # a flush is stuck
                again, elapsed = _timed(lambda: service.embed(["stored"]))
                counters = service.metrics.snapshot()["counters"]
            finally:
                provider.release()
                wedged.join(timeout=5.0)
        assert again.tobytes() == first.tobytes()
        assert elapsed < config.timeout_s
        assert counters.get("serving.fallbacks", 0) == 0
        assert counters.get("serving.timeouts", 0) == 0

    def test_all_stored_embed_leaves_the_batcher_alone(self):
        provider = CountingProvider(dim=8)
        with FaultAnalysisService(provider,
                                  config=_fast_config()) as service:
            first = service.embed(["a", "b"])
            before = _batcher_work(service, provider)
            again = service.embed(["b", "a", "b"])
            after = _batcher_work(service, provider)
            cache = service.stats()["cache"]
        assert after == before
        assert np.array_equal(again, first[[1, 0, 1]])
        assert (cache["hits"], cache["misses"]) == (2, 2)

    def test_mixed_embed_rides_the_batcher(self):
        provider = CountingProvider(dim=8)
        with FaultAnalysisService(provider,
                                  config=_fast_config()) as service:
            service.embed(["a"])
            requests, batches, calls = _batcher_work(service, provider)
            hits, misses = service.store.hits, service.store.misses
            out = service.embed(["a", "new"])
            after = _batcher_work(service, provider)
            counted = (service.store.hits - hits,
                       service.store.misses - misses)
        assert after == (requests + 1, batches + 1, calls + 1)
        assert provider.batches[-1] == ["new"]
        assert counted == (1, 1)
        assert np.array_equal(out, provider.encode_names(["a", "new"]))


# ----------------------------------------------------------------------
# Task façade + JSON-lines server over a tiny world
# ----------------------------------------------------------------------
def _tiny_adapters():
    """Unfitted rca/eap/fct adapters over the seed-11 tiny world."""
    from repro.kg import build_tele_kg  # noqa: F401 — world sanity import
    from repro.tasks.eap import EapAdapter, build_eap_dataset
    from repro.tasks.fct import FctAdapter, build_fct_dataset
    from repro.tasks.rca import RcaAdapter, build_rca_dataset
    from repro.world import TelecomWorld

    world = TelecomWorld.generate(seed=11, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=6)
    episodes = world.simulate_episodes(30)
    return (world,
            RcaAdapter(build_rca_dataset(world, episodes), epochs=2),
            EapAdapter(build_eap_dataset(world, episodes), epochs=2),
            FctAdapter(build_fct_dataset(world, episodes), epochs=3))


@pytest.fixture(scope="module")
def tiny_service():
    world, rca, eap, fct = _tiny_adapters()
    service = FaultAnalysisService(
        RandomProvider(dim=16, seed=0), config=_fast_config(),
        rca=rca, eap=eap, fct=fct)
    yield service, world, rca, eap, fct
    service.close()


@pytest.fixture(scope="module")
def indexed_service(tmp_path_factory):
    """The tiny-world adapters behind a service with an ANN index."""
    from repro.index import VectorIndex

    _, rca, eap, fct = _tiny_adapters()
    index = VectorIndex(tmp_path_factory.mktemp("idx"), fingerprint="f1")
    service = FaultAnalysisService(
        RandomProvider(dim=16, seed=0), config=_fast_config(),
        fingerprint="f1", rca=rca, eap=eap, fct=fct, index=index)
    yield service, rca, eap, fct
    service.close()


class WedgeableProvider(RandomProvider):
    """Answers until :meth:`wedge`, then blocks every encode until
    :meth:`release` — an encoder that hangs after the adapters are fit."""

    def __init__(self, dim=16):
        super().__init__(dim=dim, seed=0)
        self._wedged = threading.Event()
        self._released = threading.Event()
        self.wedged_calls = 0

    def wedge(self) -> None:
        self._wedged.set()

    def release(self) -> None:
        self._released.set()

    def encode_names(self, names):
        if self._wedged.is_set():
            self.wedged_calls += 1
            self._released.wait()
        return super().encode_names(names)


class TestFaultAnalysisFacade:
    def test_rank_root_causes(self, tiny_service):
        service, world, rca, _, _ = tiny_service
        state = rca.dataset.states[0]
        ranking = service.rank_root_causes(state)
        assert sorted(n for n, _ in ranking) == sorted(state.node_names)
        scores = [score for _, score in ranking]
        assert scores == sorted(scores, reverse=True)
        top2 = service.rank_root_causes(state, top_k=2)
        assert top2 == ranking[:2]

    def test_propagate_alarms(self, tiny_service):
        service, _, _, eap, _ = tiny_service
        pairs = eap.dataset.pairs[:3]
        verdicts = service.propagate_alarms(pairs)
        assert len(verdicts) == 3
        for verdict in verdicts:
            assert 0.0 <= verdict["confidence"] <= 1.0
            assert isinstance(verdict["triggers"], bool)

    def test_propagate_alarms_answers_no_pairs_with_no_verdicts(
            self, tiny_service):
        service = tiny_service[0]
        errors = service.metrics.counter("serving.errors").value
        retries = service.metrics.counter("serving.retries").value
        assert service.propagate_alarms([]) == []
        assert service.metrics.counter("serving.errors").value == errors
        assert service.metrics.counter("serving.retries").value == retries

    def test_classify_fault(self, tiny_service):
        service, _, _, _, fct = tiny_service
        alarm = fct.dataset.entity_names[0]
        hops = service.classify_fault(alarm, top_k=3)
        assert 1 <= len(hops) <= 3
        scores = [h["score"] for h in hops]
        assert scores == sorted(scores, reverse=True)
        assert all(h["alarm"] != alarm for h in hops)
        errors = service.metrics.counter("serving.errors").value
        retries = service.metrics.counter("serving.retries").value
        # An alarm outside the catalog is a bad request, not an outage:
        # it is neither retried nor counted as a primary failure.
        with pytest.raises(ValueError, match="unknown alarm"):
            service.classify_fault("no such alarm")
        assert service.metrics.counter("serving.errors").value == errors
        assert service.metrics.counter("serving.retries").value == retries

    def test_adapters_fit_once(self, tiny_service):
        service, _, rca, _, _ = tiny_service
        assert rca.fitted
        before = service.metrics.histogram("serving.fit.rca").count
        service.rank_root_causes(rca.dataset.states[0])
        assert service.metrics.histogram("serving.fit.rca").count == before

    def test_task_and_knn_primaries_run_on_the_calling_thread(
            self, indexed_service, monkeypatch):
        service, rca, eap, fct = indexed_service
        threads = {}

        def record(owner, attr, key):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                threads[key] = threading.current_thread()
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        record(rca, "rank", "rca")
        record(eap, "predict", "eap")
        record(fct, "trace", "fct")
        record(service.index, "query", "knn")
        service.rank_root_causes(rca.dataset.states[0])
        service.propagate_alarms(eap.dataset.pairs[:2])
        service.classify_fault(fct.dataset.entity_names[0])
        service.retrieve([fct.dataset.entity_names[0]], k=3)
        assert threads == dict.fromkeys(("rca", "eap", "fct", "knn"),
                                        threading.current_thread())

    def test_classify_fault_matches_the_name_encoded_path(
            self, indexed_service):
        """Candidates from the vector each alarm was fitted on equal those
        from encoding its name, for every alarm of the catalog."""
        service, _, _, fct = indexed_service
        catalog = fct.dataset.entity_names
        for alarm in catalog:
            reply = service.classify_fault(alarm, top_k=5)
            [hits] = fct.index.query(service.embed([alarm]), k=20)
            candidates = [name for name, _ in hits
                          if name in catalog and name != alarm]
            assert reply == fct.trace(alarm, top_k=5, candidates=candidates)

    def test_service_starts_one_batcher_worker_and_one_flusher(
            self, tmp_path):
        from repro.index import VectorIndex

        before = set(threading.enumerate())
        _, rca, eap, fct = _tiny_adapters()
        index = VectorIndex(tmp_path, fingerprint="f1")
        with FaultAnalysisService(
                RandomProvider(dim=16, seed=0), config=_fast_config(),
                fingerprint="f1", rca=rca, eap=eap, fct=fct,
                index=index) as service:
            service.embed(["a", "b"])
            service.rank_root_causes(rca.dataset.states[0])
            service.propagate_alarms(eap.dataset.pairs[:2])
            service.classify_fault(fct.dataset.entity_names[0])
            service.retrieve(["a"], k=2)
            started = sorted(thread.name for thread in threading.enumerate()
                             if thread not in before)
        assert started == ["repro-batcher-flush-1", "repro-microbatcher"]

    @pytest.mark.timeout(60)
    def test_classify_fault_answers_while_the_encoder_is_wedged(
            self, tmp_path):
        """After fit, FCT never reaches the encoder: an alarm evicted from
        a small memory-only store is answered while the encoder hangs."""
        from repro.index import VectorIndex

        _, _, _, fct = _tiny_adapters()
        provider = WedgeableProvider(dim=16)
        config = _fast_config(timeout_s=0.3, max_retries=1, lru_capacity=4)
        index = VectorIndex(tmp_path, fingerprint="f1")
        catalog = fct.dataset.entity_names
        try:
            with FaultAnalysisService(provider, config=config,
                                      fingerprint="f1", fct=fct,
                                      index=index) as service:
                service.classify_fault(catalog[-1])       # fits the adapter
                alarm = catalog[0]
                assert alarm not in service.store         # evicted
                provider.wedge()
                hops = service.classify_fault(alarm, top_k=3)
                assert 1 <= len(hops) <= 3
                assert all(hop["alarm"] != alarm for hop in hops)
                assert provider.wedged_calls == 0
                counters = service.metrics.snapshot()["counters"]
                for name in ("serving.errors", "serving.timeouts",
                             "serving.fallbacks"):
                    assert counters.get(name, 0) == 0
        finally:
            provider.release()

    def test_state_for_inference(self, tiny_service):
        from repro.tasks.rca import state_for_inference
        service, _, rca, _, _ = tiny_service
        labelled = rca.dataset.states[0]
        state = state_for_inference(labelled.node_names, labelled.adjacency,
                                    labelled.features)
        ranking = service.rank_root_causes(state)
        assert len(ranking) == labelled.num_nodes


class TestServerLoop:
    def test_serve_loop_roundtrip(self):
        with FaultAnalysisService(RandomProvider(dim=4, seed=0),
                                  config=_fast_config()) as service:
            requests = "\n".join([
                json.dumps({"op": "ping"}),
                json.dumps({"op": "embed", "names": ["a", "b"]}),
                "",                                   # blank lines skipped
                json.dumps({"op": "embed", "names": ["a"]}),
                json.dumps({"op": "stats"}),
                "not json",
                json.dumps({"op": "embed", "names": []}),
            ])
            output = io.StringIO()
            served = serve_loop(service, io.StringIO(requests), output)
            responses = [json.loads(line)
                         for line in output.getvalue().splitlines()]
        assert served == 6
        assert responses[0] == {"ok": True, "op": "ping"}
        assert len(responses[1]["embeddings"]) == 2
        # Same name, same vector across requests (cache coherent).
        assert responses[2]["embeddings"][0] == responses[1]["embeddings"][0]
        stats = responses[3]
        assert stats["requests"] == 2 and stats["cache"]["hits"] == 1
        assert stats["latency"]["count"] == 2
        assert not responses[4]["ok"] and not responses[5]["ok"]

    def test_handle_request_rejects_bad_shapes(self):
        with FaultAnalysisService(RandomProvider(dim=4, seed=0),
                                  config=_fast_config()) as service:
            for bad in ({"op": "embed", "names": "a"},
                        {"op": "embed", "names": [1]},
                        {"op": "classify_fault"},
                        {"op": "nope"}, {}):
                with pytest.raises(ValueError):
                    handle_request(service, bad)

    def test_rca_op_matches_facade(self, tiny_service):
        service, _, rca, _, _ = tiny_service
        state = rca.dataset.states[0]
        request = {"op": "rca",
                   "nodes": list(state.node_names),
                   "adjacency": state.adjacency.tolist(),
                   "features": state.features.tolist()}
        response = handle_request(service, request)
        assert response["ok"] and response["op"] == "rca"
        ranking = response["ranking"]
        assert sorted(r["node"] for r in ranking) == sorted(state.node_names)
        scores = [r["score"] for r in ranking]
        assert scores == sorted(scores, reverse=True)
        top2 = handle_request(service, {**request, "top_k": 2})["ranking"]
        assert top2 == ranking[:2]

    def test_eap_op_matches_facade(self, tiny_service):
        service, _, _, eap, _ = tiny_service
        pairs = eap.dataset.pairs[:3]
        request = {"op": "eap", "pairs": [
            {"name_i": p.name_i, "name_j": p.name_j,
             "node_i": p.node_i, "node_j": p.node_j,
             "time_i": p.time_i, "time_j": p.time_j}
            for p in pairs]}
        response = handle_request(service, request)
        assert response["ok"] and response["op"] == "eap"
        assert len(response["verdicts"]) == 3
        for verdict in response["verdicts"]:
            assert isinstance(verdict["triggers"], bool)
            assert 0.0 <= verdict["confidence"] <= 1.0
        # JSON round-trip safe (the server writes one line per response).
        json.loads(json.dumps(response))

    def test_rca_eap_ops_reject_bad_shapes(self, tiny_service):
        service, _, rca, eap, fct = tiny_service
        state = rca.dataset.states[0]
        nodes = list(state.node_names)
        good_adj = state.adjacency.tolist()
        good_feat = state.features.tolist()
        alarm = fct.dataset.entity_names[0]
        # Only JSON integers of at least 1 are counts: no bool, float,
        # null, string, list or object, and nothing below 1.
        bad_counts = (0, -1, -2, True, 2.7, None, "2", [2], {"k": 2})
        bad_requests = [
            *({"op": "rca", "nodes": nodes, "adjacency": good_adj,
               "features": good_feat, "top_k": top_k}
              for top_k in bad_counts),
            *({"op": "classify_fault", "alarm": alarm, "top_k": top_k}
              for top_k in bad_counts),
            {"op": "rca"},                                  # nothing at all
            {"op": "rca", "nodes": "a"},                    # not a list
            {"op": "rca", "nodes": nodes, "adjacency": "x",
             "features": good_feat},                        # non-numeric
            {"op": "rca", "nodes": nodes, "adjacency": [[0.0]],
             "features": good_feat},                        # wrong shape
            {"op": "rca", "nodes": nodes, "adjacency": good_adj,
             "features": [[0.0]]},                          # wrong rows
            {"op": "eap"},                                  # nothing at all
            {"op": "eap", "pairs": []},                     # empty
            {"op": "eap", "pairs": [{"name_i": "a"}]},      # missing fields
            {"op": "eap", "pairs": [
                {"name_i": "a", "name_j": "b", "node_i": "n",
                 "node_j": "m", "time_i": "soon", "time_j": 1.0}]},
        ]
        for bad in bad_requests:
            with pytest.raises(ValueError):
                handle_request(service, bad)
        # Well-formed requests the fitted adapters cannot score are bad
        # requests too, not outages: neither retried nor counted.
        pair = eap.dataset.pairs[0]
        errors = service.metrics.counter("serving.errors").value
        retries = service.metrics.counter("serving.retries").value
        unscorable = [
            {"op": "rca", "nodes": nodes, "adjacency": good_adj,
             "features": [row + [1.0] for row in good_feat]},  # wrong width
            {"op": "eap", "pairs": [
                {"name_i": "no such alarm", "name_j": pair.name_j,
                 "node_i": pair.node_i, "node_j": pair.node_j,
                 "time_i": pair.time_i, "time_j": pair.time_j}]},
            *({"op": "eap", "pairs": [
                {"name_i": pair.name_i, "name_j": pair.name_j,
                 "node_i": pair.node_i, "node_j": pair.node_j,
                 "time_i": pair.time_i, "time_j": pair.time_j,
                 side: "no such element"}]}
              for side in ("node_i", "node_j")),  # NE outside the topology
        ]
        for bad in unscorable:
            with pytest.raises(ValueError):
                handle_request(service, bad)
        assert service.metrics.counter("serving.errors").value == errors
        assert service.metrics.counter("serving.retries").value == retries
        hops = handle_request(service, {"op": "classify_fault",
                                        "alarm": alarm, "top_k": 2})
        assert 1 <= len(hops["next_hops"]) <= 2


def _refuse_constant(name):
    raise AssertionError(f"reply carries the non-JSON constant {name}")


def _tcp_exchange(service, line: str) -> str:
    """One raw request line through a fresh socket server; the reply."""
    import socket

    from repro.netserve import NetServeConfig, TeleServer, TenantRegistry

    server = TeleServer(service, TenantRegistry.single("k-test"),
                        config=NetServeConfig(close_timeout_s=2.0))
    try:
        with socket.create_connection(server.start(), timeout=10.0) as sock:
            sock.sendall(line.encode() + b"\n")
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(65536)
                assert chunk, "server closed the connection"
                reply += chunk
    finally:
        server.close(timeout_s=2.0)
    return reply.decode()


class TestNonFiniteNumbers:
    """``json.loads`` reads ``NaN``, ``Infinity`` and ``-Infinity``, and
    integers no float can hold: a request carrying one is a bad request
    on both frontends, never a retryable rejection, a dropped connection
    or an ``"ok"`` reply scored from it."""

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 10**400],
                             ids=["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("field", ["deadline_ms", "adjacency",
                                       "features", "time_i", "time_j"])
    def test_is_a_bad_request(self, tiny_service, field, value):
        service, _, rca, eap, _ = tiny_service
        if field == "deadline_ms":
            request = {"op": "embed", "names": ["a"], field: value}
        elif field in ("adjacency", "features"):
            state = rca.dataset.states[0]
            request = {"op": "rca", "nodes": list(state.node_names),
                       "adjacency": state.adjacency.tolist(),
                       "features": state.features.tolist()}
            request[field][0][0] = value
        else:
            pair = eap.dataset.pairs[0]
            request = {"op": "eap", "pairs": [
                {"name_i": pair.name_i, "name_j": pair.name_j,
                 "node_i": pair.node_i, "node_j": pair.node_j,
                 "time_i": pair.time_i, "time_j": pair.time_j,
                 field: value}]}
        line = json.dumps({**request, "api_key": "k-test"})
        reply = json.loads(_tcp_exchange(service, line),
                           parse_constant=_refuse_constant)
        assert reply["ok"] is False and reply["code"] == "bad_request"
        if field == "deadline_ms":
            return  # the stdin loop reads no deadline
        bad_requests = service.metrics.counter("serving.bad_requests")
        before = bad_requests.value
        output = io.StringIO()
        serve_loop(service, io.StringIO(line + "\n"), output)
        reply = json.loads(output.getvalue(), parse_constant=_refuse_constant)
        assert reply["ok"] is False
        assert bad_requests.value == before + 1


class TestServeCli:
    def test_serve_stats_reports_metrics(self, capsys, monkeypatch):
        from repro.cli import main

        requests = "\n".join([
            json.dumps({"op": "ping"}),
            json.dumps({"op": "embed", "names": ["link failure", "storm"]}),
            json.dumps({"op": "embed", "names": ["link failure"]}),
            json.dumps({"op": "stats"}),
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        code = main(["serve", "--dim", "8", "--max-wait-ms", "2", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        responses = [json.loads(line)
                     for line in captured.out.strip().splitlines()]
        assert all(r["ok"] for r in responses)
        # Acceptance: request count, cache hit rate, p50/p95 latency.
        assert "requests: 2" in captured.err
        assert "cache hit rate:" in captured.err
        assert "p50" in captured.err and "p95" in captured.err
        assert "== serving stats ==" in captured.err

    def test_serve_with_store_and_fallback_flags(self, capsys, monkeypatch,
                                                 tmp_path):
        from repro.cli import main

        line = json.dumps({"op": "embed", "names": ["alarm"]}) + "\n"
        for _ in range(2):  # second run warms from the persisted store
            monkeypatch.setattr("sys.stdin", io.StringIO(line))
            assert main(["serve", "--dim", "4", "--store", str(tmp_path),
                         "--fallback", "--max-wait-ms", "2"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        first, second = (json.loads(l) for l in out_lines)
        assert first["embeddings"] == second["embeddings"]
        assert (tmp_path / "embeddings.jsonl").exists()
