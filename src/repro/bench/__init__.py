"""Benchmark platform: structured results, committed baselines, CI gate.

The subsystem that makes the repo's performance claims *provable* across
PRs (ROADMAP item 4), modelled on tiered eval registries
(TeleCom-Bench-style suites; ``EvalRun``/``EvalResult`` run tracking):

* :mod:`repro.bench.schema`   — the ``BenchRun`` result schema and the
  shared emitter every benchmark suite writes through
  (``BENCH_<name>.json``; merge-by-metric, git sha, host info);
* :mod:`repro.bench.registry` — the single source of truth for known
  benchmarks, their metrics, improvement directions, and per-metric
  regression tolerances;
* :mod:`repro.bench.check`    — the regression gate, the one comparison
  of a run with its baseline: direction-aware tolerance math,
  non-binding skips, per-metric tables
  (``python -m repro bench check`` exits nonzero on regression);
* :mod:`repro.bench.promote`  — journaled, intentional baseline moves
  (a regression can never be silently absorbed);
* :mod:`repro.bench.cli`      — the ``python -m repro bench`` driver.

Everything here is dependency-free (stdlib only), so the gate runs in CI
tiers that never install the numeric stack.
"""

from repro.bench.check import (
    FAILING,
    IMPROVED,
    MISSING,
    NEW,
    NON_BINDING,
    OK,
    REGRESSED,
    TRACKED,
    UNSPECCED,
    BenchComparison,
    MetricComparison,
    check_benchmarks,
    compare_metric,
    compare_runs,
    render_markdown,
    render_text,
)
from repro.bench.cli import bench_main
from repro.bench.promote import Promotion, load_journal, promote
from repro.bench.registry import (
    BENCH_INDEX_RETRIEVAL,
    BENCH_NETSERVE_LOAD,
    BENCH_SERVING_DEGRADATION,
    BENCH_SERVING_THROUGHPUT,
    BENCH_TRAIN_STEP,
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    REGISTRY,
    BenchSpec,
    MetricSpec,
    get_spec,
    short_name,
)
from repro.bench.schema import (
    BenchRun,
    git_sha,
    load_run,
    record_metrics,
    result_path,
    validate_payload,
)

__all__ = [
    "BENCH_INDEX_RETRIEVAL",
    "BENCH_NETSERVE_LOAD",
    "BENCH_SERVING_DEGRADATION",
    "BENCH_SERVING_THROUGHPUT",
    "BENCH_TRAIN_STEP",
    "BenchComparison",
    "BenchRun",
    "BenchSpec",
    "FAILING",
    "HIGHER_IS_BETTER",
    "IMPROVED",
    "LOWER_IS_BETTER",
    "MISSING",
    "MetricComparison",
    "MetricSpec",
    "NEW",
    "NON_BINDING",
    "OK",
    "Promotion",
    "REGISTRY",
    "REGRESSED",
    "TRACKED",
    "UNSPECCED",
    "bench_main",
    "check_benchmarks",
    "compare_metric",
    "compare_runs",
    "get_spec",
    "git_sha",
    "load_journal",
    "load_run",
    "promote",
    "record_metrics",
    "render_markdown",
    "render_text",
    "result_path",
    "short_name",
    "validate_payload",
]
