"""Training workload: ``train_stage2``.

Runs the shipping trainer, ``python -m repro train`` (``small`` preset,
PMTL, serial, fixed seed), and reads its run journal: per-step wall time
and losses, and the run-start and run-complete times.  The
trainer's CPU clock is read when ``run_start`` reaches the journal (its
set-up) and at exit (set-up plus the steps).  No serving.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import time

from common import (
    HERE,
    PYTHON,
    ROOT,
    BenchError,
    HostProbe,
    Pass,
    child_env,
    cpu_seconds,
    fresh_dir,
    reap,
    version_dir,
)

#: The training seed is fixed so every run of one program version must
#: produce the same losses; the loss digest is compared across runs.
TRAIN_SEED = 0
#: ``repro train --batch-size``: masked-stream rows (names) per step.
BATCH_ROWS = 8
#: Stage-2 steps per process for each second of ``--seconds``, and
#: processes per untraced run.  At ``--seconds 20`` three processes of 140
#: steps (40-70 ms each, sharing their CPU with the probe) train for
#: 20-30 s and give three set-up samples.
STEPS_PER_S = 7
PROCESSES = 3
#: How often the benchmark looks for ``run_start`` in the journal.
POLL_S = 0.002


class TrainRun:
    """What one ``repro train`` process recorded in its journal."""

    def __init__(self, setup_s: float, cpu_s: float, slowdown: float,
                 window_s: float, walls_ms: list, digest: str, finite: bool,
                 rss_mb: float):
        self.setup_s = setup_s
        self.cpu_s = cpu_s
        self.slowdown = slowdown
        self.window_s = window_s
        self.walls_ms = walls_ms
        self.digest = digest
        self.finite = finite
        self.rss_mb = rss_mb

    @property
    def steps(self) -> int:
        return len(self.walls_ms)

    def as_pass(self) -> Pass:
        """The process's steps as one pass."""
        return Pass(self.steps, self.window_s, self.walls_ms, self.cpu_s,
                    self.slowdown)

    @property
    def cpu_ms_per_op(self) -> float:
        """Trainer CPU per step, divided by the host's slowdown."""
        return 1000.0 * self.cpu_s / self.slowdown / self.steps


def await_run_start(proc: subprocess.Popen, journal, timeout_s: float) -> float:
    """CPU seconds of ``proc`` when ``run_start`` first shows in ``journal``.

    ``run_start`` is journaled after the world, corpus and model are built
    and before the first stage-2 step, so this is the trainer's set-up.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and proc.poll() is None:
        try:
            text = journal.read_text(encoding="utf-8")
        except FileNotFoundError:
            text = ""
        if '"run_start"' in text:
            return cpu_seconds(proc.pid)
        time.sleep(POLL_S)
    raise BenchError("repro train never journaled run_start")


def train_process(name: str, steps: int, probe: HostProbe,
                  spans_out=None) -> TrainRun:
    """One fresh ``repro train`` run of ``steps`` steps."""
    work = fresh_dir(name)
    args = ["train", "--run-dir", str(work / "run"), "--size", "small",
            "--seed", str(TRAIN_SEED), "--strategy", "pmtl",
            "--steps", str(steps), "--workers", "1",
            "--batch-size", str(BATCH_ROWS)]
    command = ([PYTHON, "-m", "repro", *args] if spans_out is None else
               [PYTHON, str(HERE / "traced.py"), str(spans_out), "--", *args])
    log = work / "stderr.log"
    journal = work / "run" / "journal.jsonl"
    with open(log, "w", encoding="utf-8") as stderr:
        spawned = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            # The trainer is one thread: keep it on the CPU the probe reads.
            os.sched_setaffinity(proc.pid, {probe.cpu})
            setup_s = await_run_start(proc, journal, 120.0)
        except BaseException:
            proc.kill()
            reap(proc, 10.0)
            raise
        started = time.perf_counter()
        rss_mb, total_cpu_s = reap(proc, 170.0)
        ended = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"repro train exited with {proc.returncode}:\n"
                         + log.read_text(encoding="utf-8")[-2000:])
    events = [json.loads(line) for line in journal.read_text().splitlines()
              if line.strip()]
    start = next(e for e in events if e["kind"] == "run_start")
    complete = next(e for e in events if e["kind"] == "run_complete")
    step_events = [e for e in events if e["kind"] == "step"]
    losses = [[e["loss"], e["mask"], e["ke"], e["numeric_regression"]]
              for e in step_events]
    return TrainRun(
        setup_s=setup_s / probe.slowdown(spawned, started),
        cpu_s=total_cpu_s - setup_s,
        slowdown=probe.slowdown(started, ended),
        window_s=complete["time"] - start["time"],
        walls_ms=[e["wall_s"] * 1000.0 for e in step_events],
        digest=hashlib.sha256(json.dumps(losses).encode()).hexdigest(),
        finite=all(math.isfinite(v) for row in losses for v in row),
        rss_mb=rss_mb)


def loss_problems(runs: list[TrainRun], steps: int) -> list[str]:
    """Losses must be finite and identical across runs of one version.

    The first run in a checkout records the digest; every later process,
    in this invocation or another, must reproduce it.
    """
    problems = [f"run {i}: non-finite stage-2 loss"
                for i, run in enumerate(runs) if not run.finite]
    problems += [f"run {i}: {run.steps} steps, expected {steps}"
                 for i, run in enumerate(runs) if run.steps != steps]
    reference = version_dir() / f"train-digest-{steps}.txt"
    if not reference.exists():
        reference.write_text(runs[0].digest)
    expected = reference.read_text().strip()
    problems += [f"run {i}: loss digest {run.digest[:12]} differs from "
                 f"{expected[:12]} recorded for this program version"
                 for i, run in enumerate(runs) if run.digest != expected]
    return problems
