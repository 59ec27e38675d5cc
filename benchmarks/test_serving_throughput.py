"""Serving-layer throughput: batching on/off, persistent cache cold/warm.

Measures names/sec through four configurations of the serving stack over a
synthetic encoder with realistic per-call overhead (a fixed setup cost per
forward pass — the regime micro-batching exists for):

* ``unbatched``        — one provider call per single-name request;
* ``micro-batched``    — the same requests coalesced by ``MicroBatcher``;
* ``persistent cold``  — first run against an empty on-disk store;
* ``persistent warm``  — a fresh provider instance over the populated
  store (zero forward passes expected).  One warm read of the 96 names
  takes a few milliseconds, so the rate is the median of
  ``WARM_REPEATS`` reads, each through a store and provider built fresh
  outside the timer so that every read goes to the disk log.

Writes ``benchmarks/results/serving_throughput.txt`` (the rendered view)
and ``benchmarks/results/BENCH_serving_throughput.json`` (the structured
source of truth, via the shared :mod:`repro.bench` emitter).
"""

from __future__ import annotations

import threading
import time

import numpy as np
from conftest import save_and_print

from repro.bench import BENCH_SERVING_THROUGHPUT
from repro.service import RandomProvider
from repro.serving import EmbeddingStore, MicroBatcher, PersistentProvider

NUM_NAMES = 96
CALL_OVERHEAD_S = 0.002          # fixed per-forward-pass cost
PER_NAME_S = 0.00005             # marginal per-name cost
WARM_REPEATS = 21


class OverheadProvider(RandomProvider):
    """Encoder stand-in whose cost is dominated by per-call overhead."""

    def __init__(self, dim=32, seed=0):
        super().__init__(dim=dim, seed=seed)
        self.calls = 0

    def encode_names(self, names):
        self.calls += 1
        time.sleep(CALL_OVERHEAD_S + PER_NAME_S * len(names))
        return super().encode_names(names)


def _names() -> list[str]:
    return [f"alarm {i} link failure" for i in range(NUM_NAMES)]


def _run_unbatched() -> tuple[float, int]:
    provider = OverheadProvider()
    start = time.perf_counter()
    for name in _names():
        provider.encode_names([name])
    return NUM_NAMES / (time.perf_counter() - start), provider.calls


def _run_batched() -> tuple[float, int]:
    provider = OverheadProvider()
    results: list[np.ndarray] = []
    lock = threading.Lock()
    with MicroBatcher(provider, max_batch_size=32,
                      max_wait_ms=10) as batcher:
        start = time.perf_counter()

        def worker(chunk: list[str]) -> None:
            for name in chunk:
                vector = batcher.encode([name])
                with lock:
                    results.append(vector)

        chunks = [_names()[i::8] for i in range(8)]
        threads = [threading.Thread(target=worker, args=(c,))
                   for c in chunks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    assert len(results) == NUM_NAMES
    return NUM_NAMES / elapsed, provider.calls


def _run_persistent(store_dir, repeats=1,
                    fingerprint="bench") -> tuple[float, int]:
    """Median names/sec of ``repeats`` reads, and their forward passes.

    Each read goes through a store and provider opened fresh over
    ``store_dir``, outside the timer.
    """
    rates, calls = [], 0
    for _ in range(repeats):
        provider = OverheadProvider()
        stacked = PersistentProvider(
            provider, EmbeddingStore(store_dir, fingerprint=fingerprint))
        start = time.perf_counter()
        stacked.encode_names(_names())
        rates.append(NUM_NAMES / (time.perf_counter() - start))
        calls += provider.calls
    return float(np.median(rates)), calls


def test_serving_throughput(results_dir, record_bench, benchmark,
                            tmp_path):
    def measure():
        unbatched, unbatched_calls = _run_unbatched()
        batched, batched_calls = _run_batched()
        cold, cold_calls = _run_persistent(tmp_path / "store")
        warm, warm_calls = _run_persistent(tmp_path / "store",
                                           repeats=WARM_REPEATS)
        return {
            "unbatched": (unbatched, unbatched_calls),
            "micro-batched": (batched, batched_calls),
            "persistent cold": (cold, cold_calls),
            "persistent warm": (warm, warm_calls),
        }

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [f"Serving throughput — {NUM_NAMES} names, "
             f"{CALL_OVERHEAD_S * 1000:.1f}ms call overhead",
             f"{'configuration':<18} {'names/sec':>12} {'fwd passes':>12}"]
    for label, (rate, calls) in rows.items():
        lines.append(f"{label:<18} {rate:>12.1f} {calls:>12d}")
    save_and_print(results_dir, "serving_throughput.txt", "\n".join(lines))

    record_bench(BENCH_SERVING_THROUGHPUT, {
        "unbatched_names_per_sec": rows["unbatched"][0],
        "batched_names_per_sec": rows["micro-batched"][0],
        "batched_speedup_x": rows["micro-batched"][0] /
        rows["unbatched"][0],
        "cold_names_per_sec": rows["persistent cold"][0],
        "warm_names_per_sec": rows["persistent warm"][0],
        "unbatched_fwd_passes": rows["unbatched"][1],
        "batched_fwd_passes": rows["micro-batched"][1],
        "cold_fwd_passes": rows["persistent cold"][1],
        "warm_fwd_passes": rows["persistent warm"][1],
    }, config={"num_names": NUM_NAMES,
               "call_overhead_s": CALL_OVERHEAD_S,
               "per_name_s": PER_NAME_S,
               "warm_repeats": WARM_REPEATS})

    # Batching amortises the per-call overhead across concurrent requests.
    assert rows["micro-batched"][1] < rows["unbatched"][1]
    assert rows["micro-batched"][0] > rows["unbatched"][0]
    # A warm persistent store performs zero forward passes.
    assert rows["persistent warm"][1] == 0
    assert rows["persistent cold"][1] >= 1
