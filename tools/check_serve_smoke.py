"""Validate ``python -m repro serve`` output for the ``serve-smoke`` target.

Reads the server's JSON-lines responses from stdin and asserts the shape
the protocol promises: every line parses, every request succeeded, embed
responses carry vectors, and the stats response reports the request count,
latency, and at least ``--min-hits`` cache hits (default 1: the canned
session embeds one name twice, so the second embed must come from the
cache; a second session on the same ``--store`` directory also reads the
first embed's names back from the disk log).  The stats response must also
show that every flush of the session ran on one batcher flush thread, and
with ``--max-p95-s`` that its p95 request latency is within that bound:
the session has one caller, so under a long ``--max-wait-ms`` the bound
fails a batcher that waits for its flush timer with no other caller to
wait for.  With ``--max-batches`` the stats response may report at most
that many batcher flushes: an embed of names the store already holds is
answered without the batcher, so the first session flushes once and a
session whose names are all on the disk log flushes never.  Exits
non-zero (with a message) on any violation so ``make serve-smoke`` fails
loudly in CI.

Usage::

    printf '{"op":"ping"}\\n...' | python -m repro serve --stats \\
        | python tools/check_serve_smoke.py [--min-hits N] [--max-p95-s S] \\
          [--max-batches N]
"""

from __future__ import annotations

import argparse
import json
import sys


def check(lines: list[str], min_hits: int = 1,
          max_p95_s: float | None = None,
          max_batches: int | None = None) -> list[dict]:
    """Validate response lines; returns the parsed responses."""
    responses = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            response = json.loads(line)
        except json.JSONDecodeError as error:
            raise SystemExit(f"line {number} is not JSON: {error}")
        if not isinstance(response, dict) or "ok" not in response:
            raise SystemExit(f"line {number} lacks an 'ok' field: {line}")
        if not response["ok"]:
            raise SystemExit(f"line {number} reports failure: {line}")
        responses.append(response)
    if not responses:
        raise SystemExit("no responses on stdin")
    by_op = {r["op"]: r for r in responses}
    if "embed" in by_op:
        embeddings = by_op["embed"].get("embeddings")
        if not embeddings or not all(isinstance(row, list) and row
                                     for row in embeddings):
            raise SystemExit("embed response has no vectors")
    if "stats" in by_op:
        stats = by_op["stats"]
        if stats.get("requests", 0) < 1 or "cache" not in stats \
                or "p95" not in stats.get("latency", {}):
            raise SystemExit(f"stats response incomplete: {stats}")
        if stats["cache"].get("hits", 0) < min_hits:
            raise SystemExit(f"stats response shows fewer than {min_hits} "
                             f"cache hits: {stats}")
        if stats.get("batcher", {}).get("flush_threads") != 1:
            raise SystemExit(f"stats response shows other than one batcher "
                             f"flush thread: {stats}")
        if max_p95_s is not None and stats["latency"]["p95"] > max_p95_s:
            raise SystemExit(f"stats response shows p95 latency "
                             f"{stats['latency']['p95']:.4f}s over the "
                             f"{max_p95_s:g}s bound: {stats}")
        if max_batches is not None \
                and stats["batcher"]["batches_flushed"] > max_batches:
            raise SystemExit(f"stats response shows more than "
                             f"{max_batches} batcher flush(es): {stats}")
    return responses


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-hits", type=int, default=1,
                        help="cache hits the stats reply must report")
    parser.add_argument("--max-p95-s", type=float, default=None,
                        help="bound on the stats reply's p95 latency "
                             "(seconds)")
    parser.add_argument("--max-batches", type=int, default=None,
                        help="bound on the stats reply's batcher flushes")
    args = parser.parse_args()
    checked = check(sys.stdin.readlines(), min_hits=args.min_hits,
                    max_p95_s=args.max_p95_s, max_batches=args.max_batches)
    print(f"serve smoke OK: {len(checked)} valid responses "
          f"({', '.join(sorted({r['op'] for r in checked}))})")
