"""Machine-log persistence: JSONL export/import of fault episodes.

Real platforms ship machine log data as files (the paper's MDAF packages);
this module round-trips :class:`~repro.world.episodes.FaultEpisode` streams
through one-JSON-object-per-line files so datasets can be regenerated once
and consumed by many experiments, or inspected with standard log tooling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.ioutil import atomic_write_text
from repro.world.episodes import FaultEpisode, LogRecord

_FORMAT = "repro-fault-episodes-v1"


def _record_to_dict(record: LogRecord) -> dict:
    return {
        "timestamp": record.timestamp,
        "kind": record.kind,
        "event_uid": record.event_uid,
        "node": record.node,
        "tag": record.tag,
        "value": record.value,
        "severity": record.severity,
        "interface": record.interface,
    }


def export_episodes(episodes: Iterable[FaultEpisode],
                    path: str | Path) -> Path:
    """Write episodes as UTF-8 JSONL: a header line, then one line per
    episode.  The file is replaced atomically."""
    lines = [json.dumps({"format": _FORMAT})]
    for episode in episodes:
        lines.append(json.dumps({
            "episode_id": episode.episode_id,
            "root_uid": episode.root_uid,
            "root_node": episode.root_node,
            "fired_edges": [list(pair) for pair in episode.fired_edges],
            "chain": episode.chain,
            "records": [_record_to_dict(r) for r in episode.records],
        }, ensure_ascii=False))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def import_episodes(path: str | Path) -> list[FaultEpisode]:
    """Read a file produced by :func:`export_episodes`.

    Lines split on ``"\\n"`` only: the JSON text may hold U+2028, U+2029
    or U+0085 raw.  A line that does not parse raises; blank lines are
    skipped.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise ValueError("empty episode file")
    header = json.loads(lines[0])
    if header.get("format") != _FORMAT:
        raise ValueError(f"unsupported episode file format: "
                         f"{header.get('format')!r}")
    episodes: list[FaultEpisode] = []
    for line in lines[1:]:
        payload = json.loads(line)
        records = [LogRecord(**record) for record in payload["records"]]
        episodes.append(FaultEpisode(
            episode_id=payload["episode_id"],
            root_uid=payload["root_uid"],
            root_node=payload["root_node"],
            records=records,
            fired_edges=[tuple(pair) for pair in payload["fired_edges"]],
            chain=list(payload["chain"])))
    return episodes
