"""End-to-end smoke of the socket frontend for ``make serve-net-smoke``.

Boots the real CLI (``python -m repro serve-net --port 0``) as a
subprocess, discovers the ephemeral port from its stderr banner, and
runs two phases.

The quota phase serves with ``--adapters --index DIR``, drives a short
open-loop run mixing ``embed``, ``rca``, ``eap`` and ``fct`` with the
in-process load generator, and SIGTERMs the server.  It fails when:

* the server does not come up or print its listening banner,
* any request ends in a protocol error (transport/framing breakage),
* no request succeeds (the frontend answered nothing),
* any request is rejected with a code other than ``rate_limit`` (a
  degraded server answers ``unavailable``),
* rate-limited tenants see no structured rejection (quota not enforced),
* the server does not drain and exit 0 on SIGTERM.

The restart phase boots the stub-encoder server twice over one
``--store`` directory with ``--max-wait-ms 1000`` and sends both the
same session on one connection: ping, an embed of two names, an embed
of one of them again, stats.  Every reply must succeed, and each stats
reply must show

* ``cache.hits`` of at least 1, then at least 3: the repeated name hits
  the cache, and the restarted server also reads the first embed's two
  names back from the store's disk log;
* ``batcher.batches_flushed`` of at most 1, then 0: an embed of stored
  names is answered without the batcher, so the first boot flushes once
  and the restarted one never;
* ``batcher.flush_threads == 1``: every flush ran on one long-lived
  flush thread;
* a ``latency.p95`` of at most 0.5 s: the session's one connection is
  the batcher's only caller, so a batcher that waits for its 1 s flush
  timer instead of flushing once every caller waits fails it.

Run it under ``timeout`` (the Makefile target does) so a wedged server
fails the step rather than stalling the CI job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.loadgen import LoadgenConfig, NetClient, run_load  # noqa: E402

#: The restart phase's tenant key (unlimited rate).
RESTART_KEY = "smoke-restart"
#: ``(minimum cache.hits, maximum batcher.batches_flushed)`` per boot.
RESTART_BOUNDS = ((1, 1), (3, 0))
#: Bound on each restart-phase stats reply's p95 request latency (s).
MAX_P95_S = 0.5


def _spawn_server(*flags: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"),
                      env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-net", "--port", "0", *flags],
        stderr=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=env, cwd=REPO_ROOT)
    line = process.stderr.readline()
    if "netserve listening on " not in line:
        process.kill()
        raise SystemExit(f"server did not come up; stderr: {line!r}")
    host, _, port = line.rsplit(" ", 1)[-1].strip().partition(":")
    return process, host, int(port)


def _drain(process: subprocess.Popen) -> None:
    """SIGTERM the server; it must drain and exit 0."""
    process.send_signal(signal.SIGTERM)
    try:
        returncode = process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        raise SystemExit("server did not exit within 30s of SIGTERM")
    if returncode != 0:
        raise SystemExit(f"server exited {returncode} after SIGTERM")
    stderr = process.stderr.read()
    if "netserve draining" not in stderr:
        raise SystemExit(f"no drain banner in stderr: {stderr!r}")


def _reap(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass


def main() -> int:
    with tempfile.TemporaryDirectory() as index_dir:
        _quota_phase(index_dir)
    with tempfile.TemporaryDirectory() as store_dir:
        _restart_phase(store_dir)
    return 0


def _quota_phase(index_dir: str) -> None:
    process, host, port = _spawn_server(
        "--api-key", "smoke-limited", "--rate", "25", "--burst", "5",
        "--timeout", "2", "--retries", "0", "--close-timeout", "5",
        "--max-wait-ms", "2", "--adapters", "--index", index_dir)
    try:
        report = run_load(LoadgenConfig(
            host=host, port=port, api_keys=("smoke-limited",),
            mode="open", duration_s=2.0, rate_per_s=60.0, workers=4,
            mix={"embed": 2, "rca": 1, "eap": 1, "fct": 1}, seed=0,
            timeout_s=5.0))
        print(report.render())
        if report.counts["protocol_error"]:
            raise SystemExit(
                f"{report.counts['protocol_error']} protocol error(s) — "
                f"the wire protocol broke")
        if report.counts["ok"] == 0:
            raise SystemExit("no request succeeded")
        if report.counts["error"]:
            raise SystemExit(
                f"{report.counts['error']} unexpected error envelope(s)")
        unexpected = {code: count for code, count in report.codes.items()
                      if code != "rate_limit"}
        if unexpected:
            raise SystemExit(f"rejections other than rate_limit: "
                             f"{unexpected}")
        # 60 rps offered against a 25 rps / burst-5 tenant quota: the
        # overflow must surface as structured rate_limit rejections.
        if report.codes.get("rate_limit", 0) == 0:
            raise SystemExit("rate limit enforced no rejections at "
                             "2.4x the tenant quota")
        _drain(process)
        print(f"serve-net-smoke quota phase ok: {report.counts['ok']} ok, "
              f"{report.codes.get('rate_limit', 0)} rate-limited, "
              f"clean SIGTERM drain")
    finally:
        _reap(process)


def _restart_phase(store_dir: str) -> None:
    session = [
        {"op": "ping"},
        {"op": "embed", "names": ["link failure", "paging storm"]},
        {"op": "embed", "names": ["link failure"]},
        {"op": "stats"},
    ]
    for boot, (min_hits, max_batches) in enumerate(RESTART_BOUNDS, 1):
        process, host, port = _spawn_server(
            "--api-key", RESTART_KEY, "--max-wait-ms", "1000",
            "--store", store_dir)
        try:
            with NetClient(host, port, timeout_s=10.0) as client:
                replies = [client.request({**request, "api_key": RESTART_KEY})
                           for request in session]
            _drain(process)
        finally:
            _reap(process)
        for request, reply in zip(session, replies):
            if not reply.get("ok"):
                raise SystemExit(f"boot {boot}: {request['op']} failed: "
                                 f"{reply}")
        if not all(isinstance(row, list) and row
                   for reply in replies[1:3] for row in reply["embeddings"]):
            raise SystemExit(f"boot {boot}: an embed reply has no vectors")
        stats = replies[-1]
        batcher, p95 = stats["batcher"], stats["latency"]["p95"]
        if stats["cache"]["hits"] < min_hits:
            raise SystemExit(f"boot {boot}: fewer than {min_hits} cache "
                             f"hits: {stats}")
        if batcher["flush_threads"] != 1:
            raise SystemExit(f"boot {boot}: other than one batcher flush "
                             f"thread: {stats}")
        if batcher["batches_flushed"] > max_batches:
            raise SystemExit(f"boot {boot}: more than {max_batches} "
                             f"batcher flush(es): {stats}")
        if p95 > MAX_P95_S:
            raise SystemExit(f"boot {boot}: p95 latency {p95:.4f}s over "
                             f"the {MAX_P95_S:g}s bound: {stats}")
        print(f"serve-net-smoke restart phase boot {boot} ok: "
              f"{stats['cache']['hits']} cache hits, "
              f"{batcher['batches_flushed']} flush(es), p95 {p95:.4f}s")


if __name__ == "__main__":
    raise SystemExit(main())
