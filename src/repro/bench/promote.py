"""Intentional baseline updates, journaled.

``python -m repro bench promote`` copies the current ``BENCH_<name>.json``
results over the committed baselines — and appends one record per
benchmark to ``benchmarks/baselines/promotions.jsonl`` capturing who
moved which metric from what to what.  A regression can therefore never
be silently absorbed into the baseline: the journal line carries every
per-metric delta (including the regressed ones being accepted) plus the
operator's ``--note``.

Each record is appended durably (:func:`repro.ioutil.append_record`,
flushed and fsynced, a torn last line ended first) *before* the
baseline moves, so a crash between the two steps leaves a record with
no move, never a move with no record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.bench.registry import REGISTRY, get_spec
from repro.bench.schema import BenchRun, load_run, result_path
from repro.ioutil import append_record, atomic_write_bytes, read_records

#: The append-only promote journal inside the baselines directory.
JOURNAL_NAME = "promotions.jsonl"


@dataclass
class Promotion:
    """The journal record for one benchmark's baseline update."""

    bench_id: str
    date: str
    git_sha: str
    previous_sha: str | None
    note: str
    changes: list[dict] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "bench_id": self.bench_id,
            "date": self.date,
            "git_sha": self.git_sha,
            "previous_sha": self.previous_sha,
            "note": self.note,
            "changes": self.changes,
        }


def _metric_changes(previous: BenchRun | None,
                    current: BenchRun) -> list[dict]:
    old = previous.metrics if previous else {}
    changes: list[dict] = []
    for name in sorted(set(old) | set(current.metrics)):
        before, after = old.get(name), current.metrics.get(name)
        if before == after:
            continue
        change: dict = {"metric": name, "from": before, "to": after}
        if before not in (None, 0) and after is not None:
            change["delta_pct"] = round(
                (after - before) / abs(before) * 100.0, 2)
        changes.append(change)
    return changes


def promote(results_dir: str | Path, baselines_dir: str | Path,
            bench_ids: list[str] | None = None, note: str = "",
            now: datetime | None = None) -> list[Promotion]:
    """Promote current results to baselines; returns the journal records.

    Without ``bench_ids``, every registered benchmark that has a current
    result file is promoted; naming a benchmark with no current result is
    an error (there is nothing to promote).
    """
    results_dir = Path(results_dir)
    baselines_dir = Path(baselines_dir)
    ids = bench_ids if bench_ids is not None else sorted(REGISTRY)
    promotions: list[Promotion] = []
    stamp = (now or datetime.now(timezone.utc)).isoformat(
        timespec="seconds")
    for bench_id in ids:
        get_spec(bench_id)
        current_path = result_path(results_dir, bench_id)
        if not current_path.exists():
            if bench_ids is not None:
                raise FileNotFoundError(
                    f"nothing to promote for {bench_id!r}: "
                    f"{current_path} does not exist")
            continue
        current = load_run(current_path)
        baseline_path = result_path(baselines_dir, bench_id)
        previous = load_run(baseline_path) if baseline_path.exists() \
            else None
        record = Promotion(
            bench_id=bench_id, date=stamp, git_sha=current.git_sha,
            previous_sha=previous.git_sha if previous else None,
            note=note, changes=_metric_changes(previous, current))
        append_record(baselines_dir / JOURNAL_NAME, record.to_payload())
        # Byte-for-byte copy of the result file: the baseline is the
        # promoted run, not a re-serialisation of it.
        atomic_write_bytes(baseline_path, current_path.read_bytes())
        promotions.append(record)
    return promotions


def load_journal(baselines_dir: str | Path) -> list[dict]:
    """All promote-journal records, oldest first."""
    return read_records(Path(baselines_dir) / JOURNAL_NAME)


__all__ = ["JOURNAL_NAME", "Promotion", "load_journal", "promote"]
