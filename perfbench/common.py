"""Shared plumbing: checkout paths, the checkpoint fixture, child processes.

Everything the benchmark writes lives under ``.bench_build/perfbench`` in
the checkout it runs from.  The program under test is always the
checkout's own ``src/`` tree, put on ``PYTHONPATH`` for every child.

Times are CPU times of the program's processes (all threads, user and
system), read from the process CPU clock.  On a virtual machine with
paravirtual steal-time accounting that clock leaves out the time the host
gave the vCPU to other guests, which makes wall-clock figures swing by
up to 2x on a shared host.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
PYTHON = sys.executable

#: The serving checkpoint: ``repro train --size small`` with this seed.
CHECKPOINT_SEED = 0


class Pass(NamedTuple):
    """The measured ops of one server or one training process."""

    ops: int
    window_s: float
    latencies_ms: list
    #: CPU seconds the program spent on these ops, and the host's mean
    #: slowdown while it did (see ``HostProbe``).
    cpu_s: float
    slowdown: float


#: CPU seconds of one ``reference_work()`` call on a quiet host (2-vCPU
#: Intel Xeon VM), and the time between two host-speed samples.
REFERENCE_S = 0.0047
PROBE_PERIOD_S = 0.025


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer from the program)."""


def require_source() -> None:
    """Stop with a non-zero exit when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'repro'}; run "
                         f"from the root of a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` first.

    BLAS runs on one thread: idle OpenBLAS threads spin, and the CPU they
    burn would depend on timing rather than on the work done.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    return env


def cpu_seconds(pid: int) -> float:
    """CPU seconds used so far by every thread of process ``pid``.

    Reads the process CPU clock (``clock_getcpuclockid``), whose id Linux
    derives from the pid; nanosecond resolution, exited threads included.
    """
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError as error:
        raise BenchError(f"cannot read the CPU clock of pid {pid}: "
                         f"{error}") from None


def source_key() -> str:
    """Digest of every file under ``src/``: one key per program version.

    The checkpoint and the stage-2 loss digest are cached under this key,
    so an edited tree never reuses a model trained by another version.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def version_dir() -> Path:
    """Cache directory of the program version in this checkout."""
    home = WORK / source_key()
    home.mkdir(parents=True, exist_ok=True)
    return home


def ensure_checkpoint() -> Path:
    """The ``small`` KTeleBERT checkpoint of this program version.

    Built once per checkout and version with the program's own
    ``repro train --size small --export``; a fixture, so never timed.
    """
    home = version_dir()
    checkpoint = home / "ckpt"
    if (checkpoint / "meta.json").is_file():
        return checkpoint
    build = home / f"build-{os.getpid()}"
    shutil.rmtree(build, ignore_errors=True)
    command = [PYTHON, "-m", "repro", "train", "--run-dir", str(build / "run"),
               "--size", "small", "--seed", str(CHECKPOINT_SEED),
               "--export", str(build / "ckpt")]
    result = subprocess.run(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, timeout=600)
    if result.returncode != 0:
        raise BenchError(f"checkpoint build failed:\n{result.stderr[-2000:]}")
    os.replace(build / "ckpt", checkpoint)
    shutil.rmtree(build, ignore_errors=True)
    return checkpoint


def fresh_dir(name: str) -> Path:
    """An empty working directory for one server or training process."""
    path = WORK / "runs" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def reap(proc: subprocess.Popen, timeout_s: float) -> tuple[float, float]:
    """Wait for ``proc`` to exit; returns ``(peak RSS in MB, CPU seconds)``.

    Uses ``wait4`` so the child's own high-water mark and CPU time come
    back with its exit status.  A child still running after ``timeout_s``
    is killed and reported as a benchmark error.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime)
        if time.monotonic() >= deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"child {proc.args[:4]} did not exit within "
                             f"{timeout_s:g}s")
        time.sleep(0.02)


def reference_work() -> None:
    """Fixed work like the program's: interpreter-bound glue (strings,
    dicts, JSON envelopes) and many small numpy calls and matmuls.

    It belongs to the benchmark, so no change to the program moves it.
    """
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((32, 64))
    weight = rng.standard_normal((64, 64))
    for step in range(24):
        names = [f"NE{step}-{i} alarm link down #{i * step}" for i in range(32)]
        tokens = [word for name in names for word in name.lower().split()]
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        hidden = np.tanh(rows @ weight)
        hidden = hidden - hidden.mean(axis=1, keepdims=True)
        scores = np.exp(hidden[:, :8])
        scores /= scores.sum(axis=1, keepdims=True)
        reply = json.dumps({"ok": True, "names": names,
                            "embeddings": np.round(hidden[:4], 6).tolist()})
        json.loads(reply)


class HostProbe:
    """Samples the host's speed on a thread while the program runs.

    A shared host's cores slow down when other tenants load them: on the
    2-vCPU VM this benchmark was tuned on, ``reference_work`` flips between
    about 4.7 and 8 ms of CPU time within a second, and the share of slow
    time drifts over minutes.  CPU time grows with it, since the slowdown
    is in the core, not steal.  Every ``PROBE_PERIOD_S`` the probe times
    one ``reference_work()`` call in its own thread's CPU time; the mean
    reading inside a window, over ``REFERENCE_S``, is how much slower the
    host ran then than a quiet one, and dividing the program's CPU time in
    that window by it leaves the program's own cost.

    Each vCPU slows down on its own (readings on the two vCPUs of that VM
    did not correlate), so a program that keeps to one CPU is read there:
    with ``cpu`` set, the probe thread is pinned to that CPU.  Otherwise
    the probe runs where the scheduler puts it, as the server's threads
    do.
    """

    def __init__(self, cpu: int | None = None):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.wait(PROBE_PERIOD_S):
            start, cpu = time.perf_counter(), time.thread_time()
            reference_work()
            spent = time.thread_time() - cpu
            self.samples.append(((start + time.perf_counter()) / 2,
                                 spent / REFERENCE_S))

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown over ``[start, end]`` (``perf_counter`` times)."""
        inside = [value for at, value in self.samples if start <= at <= end]
        if not inside:
            raise BenchError("no host-speed sample inside a measured window")
        return sum(inside) / len(inside)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
