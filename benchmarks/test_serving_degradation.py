"""Serving-layer degradation under encoder faults: latency stays bounded.

Drives the full serving façade (deadline propagation, flush watchdog on
the batcher's cancellable pool, retry budget, fallback) through three encoder health
regimes and measures per-request latency plus thread growth:

* ``healthy``      — primary answers promptly; the baseline;
* ``wedged``       — primary hangs forever; every request must be answered
  by the fallback within the configured retry budget, and hung flush
  threads must stay bounded instead of accumulating one per request;
* ``flaky``        — primary hangs periodically; retries recover it.

Writes ``benchmarks/results/serving_degradation.txt`` (the rendered
view) and ``benchmarks/results/BENCH_serving_degradation.json`` (the
structured source of truth, via the shared :mod:`repro.bench` emitter).
"""

from __future__ import annotations

import threading
import time

from conftest import save_and_print

from repro.bench import BENCH_SERVING_DEGRADATION
from repro.service import RandomProvider
from repro.serving import FaultAnalysisService, ServiceConfig

NUM_REQUESTS = 24
#: headroom over ServiceConfig.total_budget_s() for scheduler jitter.
SLACK_S = 0.75


class WedgedProvider(RandomProvider):
    """Every encode blocks until :meth:`release` — a dead encoder."""

    label = "Wedged"

    def __init__(self, dim=16):
        super().__init__(dim=dim, seed=0)
        self._release = threading.Event()

    def release(self):
        self._release.set()

    def encode_names(self, names):
        self._release.wait()
        return super().encode_names(names)


class PeriodicallyHungProvider(RandomProvider):
    """Stalls every ``period``-th call well past the flush watchdog — a
    flaky encoder whose spikes retries recover (and whose stuck threads
    eventually come back, so the circuit breaker never has to open)."""

    label = "Flaky"

    def __init__(self, dim=16, period=3, stall_s=0.25):
        super().__init__(dim=dim, seed=0)
        self.period = period
        self.stall_s = stall_s
        self._lock = threading.Lock()
        self.calls = 0

    def encode_names(self, names):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call % self.period == 0:
            time.sleep(self.stall_s)
        return super().encode_names(names)


def _config() -> ServiceConfig:
    return ServiceConfig(max_batch_size=8, max_wait_ms=2.0,
                         timeout_s=0.05, max_retries=1, backoff_s=0.01,
                         flush_timeout_s=0.05, max_hung_flushes=4,
                         close_timeout_s=2.0)


def _drive(provider, fallback) -> dict:
    """Issue NUM_REQUESTS sequential embeds; report latency + thread use."""
    config = _config()
    threads_before = threading.active_count()
    latencies: list[float] = []
    with FaultAnalysisService(provider, fallback=fallback,
                              config=config) as service:
        for i in range(NUM_REQUESTS):
            start = time.perf_counter()
            out = service.embed([f"alarm {i} degraded link"])
            latencies.append(time.perf_counter() - start)
            assert out.shape == (1, provider.dim)
        threads_during = threading.active_count()
        fallbacks = service.metrics.counter("serving.fallbacks").value
        retries = service.metrics.counter("serving.retries").value
    if hasattr(provider, "release"):
        provider.release()           # let wedged daemon threads drain
    latencies.sort()
    return {
        "p50_ms": latencies[len(latencies) // 2] * 1000,
        "p95_ms": latencies[int(len(latencies) * 0.95)] * 1000,
        "max_ms": latencies[-1] * 1000,
        "thread_growth": threads_during - threads_before,
        "fallbacks": fallbacks,
        "retries": retries,
        "budget_ms": config.total_budget_s() * 1000,
    }


def test_serving_degradation(results_dir, record_bench, benchmark):
    def measure():
        return {
            "healthy": _drive(RandomProvider(dim=16, seed=0), None),
            "wedged": _drive(WedgedProvider(dim=16),
                             RandomProvider(dim=16, seed=1)),
            "flaky": _drive(PeriodicallyHungProvider(dim=16, period=3),
                            RandomProvider(dim=16, seed=1)),
        }

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [f"Serving degradation — {NUM_REQUESTS} sequential embeds per "
             f"scenario, retry budget {rows['healthy']['budget_ms']:.0f}ms",
             f"{'scenario':<10} {'p50 ms':>9} {'p95 ms':>9} {'max ms':>9} "
             f"{'threads+':>9} {'fallbacks':>10} {'retries':>8}"]
    for label, r in rows.items():
        lines.append(f"{label:<10} {r['p50_ms']:>9.1f} {r['p95_ms']:>9.1f} "
                     f"{r['max_ms']:>9.1f} {r['thread_growth']:>9d} "
                     f"{r['fallbacks']:>10d} {r['retries']:>8d}")
    save_and_print(results_dir, "serving_degradation.txt", "\n".join(lines))

    record_bench(BENCH_SERVING_DEGRADATION, {
        "healthy_p50_ms": rows["healthy"]["p50_ms"],
        "healthy_p95_ms": rows["healthy"]["p95_ms"],
        "healthy_max_ms": rows["healthy"]["max_ms"],
        "wedged_p50_ms": rows["wedged"]["p50_ms"],
        "wedged_p95_ms": rows["wedged"]["p95_ms"],
        "wedged_max_ms": rows["wedged"]["max_ms"],
        "flaky_p50_ms": rows["flaky"]["p50_ms"],
        "flaky_p95_ms": rows["flaky"]["p95_ms"],
        "flaky_max_ms": rows["flaky"]["max_ms"],
        "wedged_thread_growth": rows["wedged"]["thread_growth"],
        "wedged_fallbacks": rows["wedged"]["fallbacks"],
        "flaky_retries": rows["flaky"]["retries"],
        "flaky_fallbacks": rows["flaky"]["fallbacks"],
    }, config={"num_requests": NUM_REQUESTS,
               "budget_ms": rows["healthy"]["budget_ms"]})

    budget_ms = rows["healthy"]["budget_ms"] + SLACK_S * 1000
    # A wedged primary degrades every request to the fallback — within the
    # retry budget, never a hang.
    assert rows["wedged"]["fallbacks"] == NUM_REQUESTS
    assert rows["wedged"]["max_ms"] < budget_ms
    # Hung flush threads are bounded by the circuit breaker, not one per
    # request: thread growth stays far below NUM_REQUESTS.
    assert rows["wedged"]["thread_growth"] < NUM_REQUESTS
    # A flaky primary is recovered by retries, not the fallback, and
    # latency stays within the same budget.
    assert rows["flaky"]["retries"] >= 1
    assert rows["flaky"]["fallbacks"] < NUM_REQUESTS // 2
    assert rows["flaky"]["max_ms"] < budget_ms
    # Degradation is graceful relative to healthy serving.
    assert rows["healthy"]["max_ms"] < budget_ms
