"""The ``BenchRun`` schema and the shared emitter.

One structured shape for every benchmark result file
(``benchmarks/results/BENCH_<name>.json``), replacing the hand-rolled,
slightly-different dicts the benchmark suites used to build::

    {
      "schema_version": 1,
      "name": "train_step",             # short name (file stem)
      "bench_id": "bench.train_step",   # registry id
      "metrics": [{"metric": "stage2_step_ms", "value": 14.7}, ...],
      "config": {...},                  # run parameters, nested dicts ok
      "git_sha": "5849721",
      "date": "2026-08-08T12:00:00+00:00",
      "host": {"platform": ..., "python": ..., "cpus": ...}
    }

The emitter (:func:`record_metrics`) *merges* by metric name: benchmark
modules contribute metrics test-by-test, so the file stays complete even
when only a subset of a module runs.  Every write also upserts the merged
run into the history store (``results/history/<name>.jsonl``) keyed by
git sha, so trends survive across PRs.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.bench.history import HISTORY_DIRNAME, append_run
from repro.bench.registry import NAMESPACE, get_spec, short_name
from repro.ioutil import atomic_write_text

SCHEMA_VERSION = 1

#: Result-file naming convention: ``BENCH_<short_name>.json``.
FILE_PREFIX = "BENCH_"


def result_path(results_dir: str | Path, bench_id: str) -> Path:
    """``benchmarks/results/BENCH_<short>.json`` for a benchmark id."""
    return Path(results_dir) / f"{FILE_PREFIX}{short_name(bench_id)}.json"


def git_sha(cwd: str | Path | None = None) -> str:
    """Short git sha of HEAD, or ``"unknown"`` outside a checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            cwd=cwd).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_info() -> dict:
    """The host facts that contextualise absolute timings."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


@dataclass
class BenchRun:
    """One benchmark run: named metric values plus provenance."""

    bench_id: str
    metrics: dict[str, float] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    git_sha: str = "unknown"
    date: str = ""
    host: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def name(self) -> str:
        return short_name(self.bench_id)

    def to_payload(self) -> dict:
        """The canonical JSON-ready dict (metrics sorted by name)."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "bench_id": self.bench_id,
            "metrics": [{"metric": k, "value": self.metrics[k]}
                        for k in sorted(self.metrics)],
            "config": self.config,
            "git_sha": self.git_sha,
            "date": self.date,
            "host": self.host,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BenchRun":
        """Parse a payload; raises ``ValueError`` naming its problems."""
        problems = validate_payload(payload)
        if problems:
            raise ValueError(
                f"invalid benchmark payload: {'; '.join(problems)}")
        metrics = {m["metric"]: float(m["value"])
                   for m in payload["metrics"]}
        return cls(bench_id=payload["bench_id"], metrics=metrics,
                   config=dict(payload.get("config") or {}),
                   git_sha=payload.get("git_sha", "unknown"),
                   date=payload.get("date", ""),
                   host=dict(payload["host"]),
                   schema_version=payload["schema_version"])


def validate_payload(payload: object) -> list[str]:
    """Return schema problems for a result payload ([] = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        problems.append("missing or empty 'name'")
    bench_id = payload.get("bench_id")
    if bench_id is None:
        problems.append("missing 'bench_id'")
    elif not isinstance(bench_id, str) or not bench_id.startswith(NAMESPACE):
        problems.append(f"'bench_id' must start with {NAMESPACE!r}")
    elif isinstance(name, str) and bench_id != NAMESPACE + name:
        problems.append(f"'bench_id' {bench_id!r} does not match "
                        f"'name' {name!r}")
    if not isinstance(payload.get("schema_version"), int):
        problems.append("missing integer 'schema_version'")
    if not isinstance(payload.get("host"), dict):
        problems.append("missing 'host' object")
    metrics = payload.get("metrics")
    if not isinstance(metrics, list):
        problems.append("'metrics' must be a list")
        metrics = []
    seen: set[str] = set()
    for index, entry in enumerate(metrics):
        if not isinstance(entry, dict) or "metric" not in entry \
                or "value" not in entry:
            problems.append(f"metrics[{index}] must be an object with "
                            f"'metric' and 'value'")
            continue
        metric = entry["metric"]
        if not isinstance(metric, str) or not metric:
            problems.append(f"metrics[{index}].metric must be a "
                            f"non-empty string")
            continue
        if metric in seen:
            problems.append(f"duplicate metric {metric!r}")
        seen.add(metric)
        value = entry["value"]
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)) or \
                not math.isfinite(float(value)):
            problems.append(f"metric {metric!r} value must be a finite "
                            f"number, got {value!r}")
    config = payload.get("config")
    if config is not None and not isinstance(config, dict):
        problems.append("'config' must be an object")
    for key in ("git_sha", "date"):
        value = payload.get(key)
        if value is not None and not isinstance(value, str):
            problems.append(f"'{key}' must be a string")
    return problems


def load_run(path: str | Path) -> BenchRun:
    """Load (and normalise) one ``BENCH_*.json`` result file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return BenchRun.from_payload(payload)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


def record_metrics(results_dir: str | Path, bench_id: str,
                   metrics: dict[str, float],
                   config: dict | None = None,
                   update_history: bool = True,
                   now: datetime | None = None) -> BenchRun:
    """Merge metric/value pairs into ``BENCH_<name>.json`` and the history.

    The benchmark must be registered (typo'd ids fail loudly instead of
    creating an ungated orphan file).  Values are rounded to 3 decimals;
    existing metrics/config keys from previous tests in the same run are
    preserved, matching the pre-platform merge-by-name behaviour.
    """
    get_spec(bench_id)              # unknown benchmarks fail loudly
    results_dir = Path(results_dir)
    path = result_path(results_dir, bench_id)
    run = BenchRun(bench_id=bench_id)
    if path.exists():
        run = load_run(path)
        if run.bench_id != bench_id:
            raise ValueError(f"{path} holds {run.bench_id!r}, refusing to "
                             f"merge {bench_id!r} into it")
    for key, value in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {key!r} is not finite: {value!r}")
        run.metrics[key] = round(value, 3)
    run.config.update(config or {})
    run.git_sha = git_sha(cwd=results_dir)
    stamp = now or datetime.now(timezone.utc)
    run.date = stamp.isoformat(timespec="seconds")
    run.host = host_info()
    run.schema_version = SCHEMA_VERSION
    atomic_write_text(path, json.dumps(run.to_payload(), indent=2) + "\n")
    if update_history:
        append_run(results_dir / HISTORY_DIRNAME, run)
    return run


__all__ = [
    "BenchRun",
    "FILE_PREFIX",
    "SCHEMA_VERSION",
    "git_sha",
    "host_info",
    "load_run",
    "record_metrics",
    "result_path",
    "validate_payload",
]
