"""Append-only trend history: one JSONL file per benchmark.

``benchmarks/results/history/<name>.jsonl`` accumulates one line per
benchmark run, keyed by git sha: re-running a benchmark at the same sha
*replaces* the trailing entry instead of appending (the suites merge
metrics test-by-test, so a run emits several partial writes that must
collapse into one history record), while a new sha appends.  The file is
capped at :data:`MAX_ENTRIES` — when rotation trims old entries, a
marker line records how many were dropped so a truncated trend is never
mistaken for the complete one.

Each file is one of the repo's JSON-lines logs, read back with
:func:`repro.ioutil.read_records` (a torn or corrupt line is skipped,
not fatal); rewrites for upsert/rotation go through the atomic writer.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.registry import short_name
from repro.ioutil import atomic_write_text, read_records

#: Subdirectory of the results dir holding the per-benchmark trend files.
HISTORY_DIRNAME = "history"

#: Entries retained per benchmark before rotation trims the oldest.
MAX_ENTRIES = 500


def history_path(history_dir: str | Path, bench_id: str) -> Path:
    """``<history_dir>/<short_name>.jsonl`` for a benchmark id."""
    return Path(history_dir) / f"{short_name(bench_id)}.jsonl"


def _to_payload(run) -> dict:
    return run.to_payload() if hasattr(run, "to_payload") else dict(run)


def load_history(history_dir: str | Path, bench_id: str) -> list[dict]:
    """All decodable history entries, oldest first (rotation markers
    excluded).  A torn/corrupt trailing line is skipped, not fatal."""
    return [entry
            for entry in read_records(history_path(history_dir, bench_id))
            if "rotated" not in entry]


def append_run(history_dir: str | Path, run,
               max_entries: int = MAX_ENTRIES) -> Path:
    """Upsert a run into the benchmark's trend file.

    Same git sha as the trailing entry -> replace it (partial emits from
    one run collapse); otherwise append.  Past ``max_entries`` the oldest
    entries rotate out behind a ``{"rotated": N}`` marker line.
    """
    payload = _to_payload(run)
    path = history_path(history_dir, payload["bench_id"])
    records = read_records(path)
    entries = [entry for entry in records if "rotated" not in entry]
    dropped = sum(int(entry["rotated"]) for entry in records
                  if "rotated" in entry)
    sha = payload.get("git_sha", "unknown")
    if entries and entries[-1].get("git_sha") == sha and sha != "unknown":
        entries[-1] = payload
    else:
        entries.append(payload)
    if len(entries) > max_entries:
        dropped += len(entries) - max_entries
        entries = entries[-max_entries:]
    lines = []
    if dropped:
        lines.append(json.dumps({"rotated": dropped}))
    lines.extend(json.dumps(entry, sort_keys=True) for entry in entries)
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


__all__ = [
    "HISTORY_DIRNAME",
    "MAX_ENTRIES",
    "append_run",
    "history_path",
    "load_history",
]
