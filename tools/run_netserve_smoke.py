"""End-to-end smoke of the socket frontend for ``make serve-net-smoke``.

Boots the real CLI (``python -m repro serve-net --port 0 --adapters
--index DIR``) as a subprocess, discovers the ephemeral port from its
stderr banner, drives a short open-loop run mixing ``embed``, ``rca``,
``eap`` and ``fct`` with the in-process load generator, and SIGTERMs the
server.  Fails loudly (non-zero exit) when:

* the server does not come up or print its listening banner,
* any request ends in a protocol error (transport/framing breakage),
* no request succeeds (the frontend answered nothing),
* any request is rejected with a code other than ``rate_limit`` (a
  degraded server answers ``unavailable``),
* rate-limited tenants see no structured rejection (quota not enforced),
* the server does not drain and exit 0 on SIGTERM.

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

from repro.loadgen import LoadgenConfig, run_load  # noqa: E402


def _spawn_server(index_dir: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"),
                      env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-net", "--port", "0",
         "--api-key", "smoke-limited", "--rate", "25", "--burst", "5",
         "--timeout", "2", "--retries", "0", "--close-timeout", "5",
         "--max-wait-ms", "2", "--adapters", "--index", index_dir],
        stderr=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=env, cwd=REPO_ROOT)
    line = process.stderr.readline()
    if "netserve listening on " not in line:
        process.kill()
        raise SystemExit(f"server did not come up; stderr: {line!r}")
    host, _, port = line.rsplit(" ", 1)[-1].strip().partition(":")
    return process, host, int(port)


def main() -> int:
    with tempfile.TemporaryDirectory() as index_dir:
        return _smoke(index_dir)


def _smoke(index_dir: str) -> int:
    process, host, port = _spawn_server(index_dir)
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
        print(f"serve-net-smoke ok: {report.counts['ok']} ok, "
              f"{report.codes.get('rate_limit', 0)} rate-limited, "
              f"clean SIGTERM drain")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass


if __name__ == "__main__":
    raise SystemExit(main())
