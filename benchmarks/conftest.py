"""Shared fixtures for the experiment-reproduction benchmarks.

The full pipeline (world → corpora → TeleBERT → four KTeleBERT variants) is
built once per seed and shared across all table benchmarks in the session.
Set ``REPRO_BENCH_SEEDS`` (comma-separated, default ``0,1``) to average the
result tables over more seeds — smoother orderings at proportional cost.

Every benchmark writes its rendered table to ``benchmarks/results/`` so the
paper-vs-measured comparison is inspectable after the run.  Suites with
registered metrics additionally emit structured ``BENCH_<name>.json``
through the shared :mod:`repro.bench` emitter (the ``record_bench``
fixture), which the CI regression gate compares with the committed
baselines.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import record_metrics
from repro.experiments import ExperimentPipeline, PipelineConfig


def bench_seeds() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SEEDS", "0,1,2")
    seeds = [int(part) for part in raw.split(",") if part.strip()]
    if not seeds:
        raise ValueError("REPRO_BENCH_SEEDS resolved to no seeds")
    return seeds


@pytest.fixture(scope="session")
def pipelines() -> list[ExperimentPipeline]:
    """One lazily-built pipeline per benchmark seed."""
    return [ExperimentPipeline(PipelineConfig(seed=seed))
            for seed in bench_seeds()]


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def record_bench(results_dir):
    """Emit metrics into ``BENCH_<name>.json`` via the shared emitter.

    Merge-by-metric semantics: each test contributes its own metrics, so
    the result file stays complete even when only a subset of a module
    runs.  The benchmark id must be registered in
    :mod:`repro.bench.registry`.
    """
    def _record(bench_id: str, metrics: dict, config: dict | None = None):
        return record_metrics(results_dir, bench_id, metrics,
                              config=config)
    return _record


def save_and_print(results_dir: Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
    print("\n" + text)
