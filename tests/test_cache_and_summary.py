"""Tests for the memory-only store cache, the baseline providers' per-name
vectors under concurrency, and the model-summary helper."""

import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.serving import EmbeddingStore, PersistentProvider
from repro.service import RandomProvider, WordEmbeddingProvider


class CountingProvider(WordEmbeddingProvider):
    """Test double that counts encode calls."""

    def __init__(self):
        super().__init__(dim=4, seed=0)
        self.calls = 0
        self.names_encoded = 0

    def encode_names(self, names):
        self.calls += 1
        self.names_encoded += len(names)
        return super().encode_names(names)


def _memory_cached(inner, lru_capacity=4096):
    """The service's cache with no store directory: the LRU tier alone."""
    store = EmbeddingStore(None, label=inner.label, lru_capacity=lru_capacity)
    return PersistentProvider(inner, store)


class TestCachedProvider:
    def test_results_match_inner(self):
        inner = RandomProvider(dim=8, seed=0)
        provider = _memory_cached(RandomProvider(dim=8, seed=0))
        names = ["a", "b", "c"]
        assert np.allclose(inner.encode_names(names),
                           provider.encode_names(names))

    def test_inner_called_once_per_distinct_name(self):
        inner = CountingProvider()
        provider = _memory_cached(inner)
        provider.encode_names(["x", "y"])
        provider.encode_names(["x", "y", "x"])
        assert inner.names_encoded == 2
        # The store counts each distinct name of a call once.
        assert provider.store.hits == 2
        assert provider.store.misses == 2

    def test_duplicates_within_one_call(self):
        inner = CountingProvider()
        provider = _memory_cached(inner)
        out = provider.encode_names(["x", "x", "x"])
        assert inner.names_encoded == 1
        assert out.shape == (3, 4)
        assert np.allclose(out[0], out[1])

    def test_label_and_dim_forwarded(self):
        provider = _memory_cached(RandomProvider(dim=8, seed=0))
        assert provider.label == "Random"
        assert provider.dim == 8

    def test_lru_bound_evicts_and_reencodes_same_vector(self):
        inner = CountingProvider()
        provider = _memory_cached(inner, lru_capacity=2)
        first = provider.encode_names(["x"])
        provider.encode_names(["y", "z"])       # evicts "x"
        assert len(provider.store) == 2 and "x" not in provider.store
        assert np.array_equal(provider.encode_names(["x"]), first)
        assert inner.names_encoded == 4

    def test_memory_only_store_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = EmbeddingStore(None, fingerprint="f1")
        store.put_many({"a": np.ones(2), "b": np.zeros(2)})
        assert store.path is None and store.directory is None
        assert np.allclose(store.get("a"), 1.0)
        assert store.compact() == 0
        assert list(tmp_path.iterdir()) == []
        assert store.stats()["disk_entries"] == 0
        assert store.stats()["entries"] == 2


class _SlowRng:
    """Delegates to a Generator, sleeping before each draw to widen races."""

    def __init__(self, rng, delay_s=0.05):
        self._rng = rng
        self._delay_s = delay_s

    def uniform(self, *args, **kwargs):
        time.sleep(self._delay_s)
        return self._rng.uniform(*args, **kwargs)

    def normal(self, *args, **kwargs):
        time.sleep(self._delay_s)
        return self._rng.normal(*args, **kwargs)


class TestBaselineProviderThreadSafety:
    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("provider_cls",
                             [RandomProvider, WordEmbeddingProvider])
    def test_concurrent_first_encodes_agree(self, provider_cls):
        provider = provider_cls(dim=4, seed=0)
        provider.rng = _SlowRng(provider.rng)
        racers = 4
        barrier = threading.Barrier(racers)
        outputs = [None] * racers

        def worker(slot):
            barrier.wait()
            outputs[slot] = provider.encode_names(["link down"])

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(racers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        # One name, one vector: every racer and every later call agree.
        for out in outputs[1:]:
            assert np.array_equal(out, outputs[0])
        assert np.array_equal(provider.encode_names(["link down"]),
                              outputs[0])


class TestSummary:
    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(0)
        model = nn.TransformerEncoderLayer(8, 2, 16, rng)
        breakdown = nn.parameter_breakdown(model)
        total = breakdown.pop("(total)")
        assert sum(breakdown.values()) == total
        assert total == model.num_parameters()

    def test_direct_parameters_reported(self):
        class WithDirect(nn.Module):
            def __init__(self):
                super().__init__()
                self.weight = nn.Parameter(np.zeros((3, 3)))
                self.child = nn.LayerNorm(3)

        breakdown = nn.parameter_breakdown(WithDirect())
        assert breakdown["(direct)"] == 9
        assert breakdown["child"] == 6

    def test_summarize_renders(self):
        rng = np.random.default_rng(0)
        text = nn.summarize(nn.Linear(4, 2, rng), title="demo")
        assert text.startswith("demo")
        assert "(total)" in text
        assert "10" in text  # 4*2 + 2
