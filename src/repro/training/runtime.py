"""Fault-tolerant, data-parallel stage-2 training runtime.

Production pre-training runs die — preempted nodes, OOM kills, operator
Ctrl-C — and single-core loops waste the hardware.  This module wraps
:class:`~repro.training.retrainer.KTeleBertRetrainer` with the three
capabilities the paper's longest loop needs to survive outside a notebook:

* **Checkpoint/resume** — every ``checkpoint_every_steps`` steps the
  runtime writes a full :class:`~repro.models.checkpoint.TrainState`
  snapshot (model weights, optimizer moments, RNG stream, batch cursors,
  step and loss history) atomically via temp-file + fsync + rename.  The
  snapshot directory is its own index, keyed by the step in each file
  name; retention keeps the newest ``keep_last`` of them.  Restoring the
  latest snapshot continues the run *bit-exactly*: the resumed loss
  trajectory is identical to the uninterrupted one.

* **Multi-process data parallelism** — each step's batch is sharded across
  N persistent forked retrainer replicas.  Copies of the optimizer's
  ``flat`` and ``grad`` buffers and the step's batch indices live in one
  anonymous shared mapping (:mod:`repro.training.shm`) that the parent
  creates before it forks; pipes carry only control tuples and scalar
  replies, never arrays.  Workers run forward/backward on their shard
  with a deterministic per-``(seed, worker, step)`` RNG; the parent reads
  the replies in fixed worker order and folds each gradient block into
  ``optimizer.grad`` (a shard-size-weighted mean) as soon as it is in,
  overlapping the later workers' compute, before the usual clip + Adam
  update.  A straggler timeout bounds the wait for the whole step; on
  timeout or worker failure the runtime degrades to the serial path and
  keeps training, retrying the pool after :data:`POOL_RETRY_STEPS` serial
  steps until :data:`POOL_MAX_FAILURES` consecutive failures disable it
  for the run.

* **Run journal** — every step appends a structured JSONL event (step,
  loss breakdown, tokens/sec, wall time) to ``journal.jsonl``; lifecycle
  events (start, checkpoint, interrupt, resume, complete) make an
  interrupted run detectable on restart.  Events follow the repo's one
  schema (:func:`repro.ioutil.make_event`), the one the serving metrics
  registry emits too.

While :meth:`TrainingRuntime.run` runs on the main thread, SIGINT/SIGTERM
are trapped into a final checkpoint plus an ``interrupted`` journal event,
so a preempted run loses at most the in-flight step.  A gradient worker
resets SIGTERM to its default and ignores SIGINT before it serves a step:
the parent, not the worker, answers a Ctrl-C, and ``terminate()`` always
stops a stuck worker.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ioutil import append_record, make_event, read_records
from repro.models.checkpoint import (
    TrainState,
    load_train_state,
    save_train_state,
)
from repro.tensor.tensor import Tensor
from repro.training.masking import DynamicMasker
from repro.training.retrainer import (
    KTeleBertRetrainer,
    RetrainingLog,
    StepLosses,
    compute_stage2_losses,
)
from repro.training.shm import PoolSharedState

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_DIR = "snapshots"

#: After a pool failure, train serially for this many steps, then try to
#: rebuild the pool.
POOL_RETRY_STEPS = 50
#: Consecutive pool failures after which parallelism is disabled for the
#: rest of the run.
POOL_MAX_FAILURES = 3

#: Journal event kinds that mark a run as cleanly finished.
_TERMINAL_KINDS = frozenset({"run_complete"})
#: How long :meth:`GradientWorkerPool.close` waits for all its workers to
#: stop, and again for the survivors after terminating them (seconds).
_CLOSE_JOIN_S = 2.0


class WorkerPoolError(RuntimeError):
    """A gradient worker failed, died, or exceeded the straggler timeout."""


# ----------------------------------------------------------------------
# Run journal
# ----------------------------------------------------------------------
class RunJournal:
    """Append-only JSONL event log describing one training run.

    Each line is one event of the repo's schema,
    :func:`repro.ioutil.make_event`: ``kind``, wall-clock ``time`` and
    the event's fields.  Appends go through
    :func:`repro.ioutil.append_record`, flushed and fsynced, so the
    journal reflects every completed step even after a hard crash; a torn
    final line (the crash window) is ended before the next append and
    skipped by :meth:`events`.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, kind: str, **fields) -> dict:
        """Write one event; returns the event dict."""
        event = make_event(kind, **fields)
        append_record(self.path, event)
        return event

    def events(self) -> list[dict]:
        """All well-formed events, oldest first (torn lines skipped)."""
        return read_records(self.path)

    def last_event(self) -> dict | None:
        events = self.events()
        return events[-1] if events else None

    def is_interrupted(self) -> bool:
        """True when the journal records a run that never completed."""
        last = self.last_event()
        return last is not None and last.get("kind") not in _TERMINAL_KINDS


# ----------------------------------------------------------------------
# Snapshot store with retention
# ----------------------------------------------------------------------
class SnapshotStore:
    """Directory of atomic ``step-XXXXXXXX.npz`` training snapshots.

    The directory is its own index: a snapshot's name appears only when
    its atomic write completes, so the rename is a save's one commit
    point, and the step in the name orders the snapshots.  Retention keeps
    the newest ``keep_last`` by step, so a save opens no file but the one
    it writes.
    """

    def __init__(self, directory: str | Path, keep_last: int = 3):
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.keep_last = keep_last

    def path_for(self, step: int) -> Path:
        return self.directory / f"step-{step:08d}.npz"

    def snapshots(self) -> list[Path]:
        """Retained snapshots, oldest step first.

        Lists ``step-*.npz`` and skips names whose step does not parse.
        """
        found = []
        for path in self.directory.glob("step-*.npz"):
            try:
                found.append((int(path.stem.split("-")[1]), path))
            except (IndexError, ValueError):
                continue
        return [path for _, path in sorted(found)]

    def save(self, model, optimizer, trainer_state: dict, *, step: int,
             loss: float) -> Path:
        """Write one snapshot, then drop all but the newest ``keep_last``."""
        path = self.path_for(step)
        save_train_state(path, model, optimizer, trainer_state,
                         step=step, loss=loss)
        for old in self.snapshots()[:-self.keep_last]:
            old.unlink(missing_ok=True)
        return path

    def latest(self) -> Path | None:
        """Path of the newest retained snapshot, or None."""
        snapshots = self.snapshots()
        return snapshots[-1] if snapshots else None

    def load_latest(self) -> TrainState | None:
        """The newest retained snapshot, loaded; None for an empty store."""
        path = self.latest()
        return load_train_state(path) if path is not None else None


# ----------------------------------------------------------------------
# Gradient worker pool (multi-process data parallelism over shared memory)
# ----------------------------------------------------------------------
def _worker_main(conn, retrainer: KTeleBertRetrainer,
                 shared: PoolSharedState, worker_id: int) -> None:
    """Worker loop: shared-memory params in, shared-memory gradients out.

    Runs in a forked child, so the retrainer (model, optimizer, datasets)
    and the shared blocks are inherited without pickling.  Each control
    message names a step and half-open bounds into the shared index block;
    the worker copies the shared parameter block into ``optimizer.flat``,
    runs forward/backward on its shard rows, and copies ``optimizer.grad``
    into its own shared block — the ``ok`` reply carries scalar losses and
    the indices of the parameters that got no gradient.  The masking RNG
    is reseeded per ``(seed, worker_id, step)`` so runs are reproducible
    and resumable regardless of which steps each worker served before.

    The fork copies the parent's signal handlers, the runtime's SIGTERM
    trap included, under which ``terminate()`` could not stop a stuck
    worker; so SIGTERM goes back to its default first, and SIGINT (a
    Ctrl-C reaches the whole process group) is left to the parent.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    model, optimizer = retrainer.model, retrainer.optimizer
    mask_rows = retrainer.data.mask_rows
    triple_rows = retrainer.data.triple_rows
    model.train()
    masker = DynamicMasker(model.tokenizer.vocab, np.random.default_rng(0),
                           masking_rate=model.config.masking_rate)
    param_block = shared.params
    grad_block = shared.grads[worker_id]
    index_block = shared.indices
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, step, row_lo, row_hi, triple_lo, triple_hi = message
        try:
            optimizer.flat[...] = param_block
            rows = [mask_rows[i] for i in index_block[row_lo:row_hi]]
            triples = [triple_rows[i]
                       for i in index_block[triple_lo:triple_hi]]
            optimizer.zero_grad()
            # Step-keyed streams make each worker's computation
            # independent of which steps it served before — required
            # for bit-exact resume of parallel runs.  Masking and
            # dropout get distinct SeedSequence branches so their
            # draws are uncorrelated.
            masker.rng = np.random.default_rng(
                [retrainer.seed, worker_id, step])
            model.rng.bit_generator.state = np.random.default_rng(
                [retrainer.seed, worker_id, step, 1]).bit_generator.state
            losses = compute_stage2_losses(model, masker,
                                           rows or None, triples or None)
            losses.total.backward()
            grad_block[...] = optimizer.grad
            untouched = [i for i, param
                         in enumerate(optimizer.parameters)
                         if param.grad is None]
            conn.send(("ok", step,
                       {"total": losses.value, "mask": losses.mask,
                        "ke": losses.ke,
                        "numeric_regression": losses.numeric_regression},
                       losses.tokens, untouched))
        except Exception:  # surfaced to the parent as WorkerPoolError
            conn.send(("err", step, traceback.format_exc()))


def _join_all(processes: list, timeout_s: float) -> None:
    """Join ``processes`` against one deadline ``timeout_s`` away."""
    deadline = time.monotonic() + timeout_s
    for process in processes:
        process.join(timeout=max(deadline - time.monotonic(), 0.0))


@dataclass
class _WorkerHandle:
    process: multiprocessing.process.BaseProcess
    conn: object
    worker_id: int


class GradientWorkerPool:
    """N persistent forked replicas sharing parameters and gradients.

    The parent copies ``optimizer.flat`` into the shared parameter block
    once per step and the step's batch indices into the shared index
    block; each worker computes forward/backward over its shard and copies
    its replica's ``optimizer.grad`` into its own shared block.  Pipes
    carry only tiny control tuples — step index and shard bounds out,
    scalar losses back — never arrays, so per-step cost is the compute
    itself rather than pickling a model-sized payload per worker.

    The parent reduces worker gradients into ``optimizer.grad`` as a
    shard-size-weighted mean — equivalent in expectation to the serial
    gradient of the full batch.  Reduction overlaps compute: the parent
    reads the replies in fixed worker order (so the float sum is
    deterministic) and folds worker *i*'s block as soon as it is in,
    while later workers are still computing.  ``fork`` start method only
    (replicas inherit the retrainer and the mapping without pickling);
    callers fall back to the serial path when fork is unavailable or
    startup fails.
    """

    def __init__(self, retrainer: KTeleBertRetrainer, num_workers: int,
                 straggler_timeout_s: float):
        if num_workers < 2:
            raise ValueError("a worker pool needs at least 2 workers")
        self._workers: list[_WorkerHandle] = []
        self._shared: PoolSharedState | None = None
        if "fork" not in multiprocessing.get_all_start_methods():
            raise WorkerPoolError("fork start method unavailable")
        self._optimizer = retrainer.optimizer
        self.num_workers = num_workers
        self.straggler_timeout_s = straggler_timeout_s
        index_capacity = retrainer.mask_batches.batch_size + (
            retrainer.ke_batches.batch_size
            if retrainer.ke_batches is not None else 0)
        param_size = self._optimizer.flat.size
        context = multiprocessing.get_context("fork")
        try:
            self._shared = PoolSharedState(param_size, num_workers,
                                           index_capacity)
            # Preallocated fold scratch: the hot path never allocates (or
            # pickles) a parameter-sized array.
            self._scratch = np.zeros(param_size)
            for worker_id in range(num_workers):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, retrainer, self._shared, worker_id),
                    daemon=True)
                process.start()
                child_conn.close()
                self._workers.append(_WorkerHandle(process, parent_conn,
                                                   worker_id))
        except Exception as error:
            self.close()
            raise WorkerPoolError(f"worker startup failed: {error}") from error

    @staticmethod
    def _shard_bounds(count: int, workers: int) -> np.ndarray:
        return np.linspace(0, count, workers + 1).astype(int)

    def step(self, step_index: int, row_indices, triple_indices
             ) -> StepLosses:
        """One data-parallel forward/backward into ``optimizer.grad``.

        ``row_indices`` / ``triple_indices`` are the dataset indices of the
        step's drawn batches (``None`` for an inactive task).  On return
        ``optimizer.grad`` holds the reduced gradient; as on the serial
        path, ``grad`` stays None for a parameter no shard reached.  Raises
        :class:`WorkerPoolError` on worker failure or straggler timeout;
        the caller is expected to fall back to the serial path.
        """
        if self._shared is None:
            raise WorkerPoolError("pool is closed")
        rows = np.asarray(row_indices if row_indices is not None else [],
                          dtype=np.int64)
        triples = np.asarray(
            triple_indices if triple_indices is not None else [],
            dtype=np.int64)
        n_rows, n_triples = len(rows), len(triples)
        if n_rows + n_triples > self._shared.index_capacity:
            raise WorkerPoolError(
                f"{n_rows + n_triples} batch indices exceed the shared "
                f"index capacity {self._shared.index_capacity}")
        # Publish this step's parameters and batch indices; workers read
        # both straight out of shared memory.
        optimizer = self._optimizer
        self._shared.params[...] = optimizer.flat
        index_block = self._shared.indices
        index_block[:n_rows] = rows
        index_block[n_rows:n_rows + n_triples] = triples

        row_bounds = self._shard_bounds(n_rows, self.num_workers)
        triple_bounds = self._shard_bounds(n_triples, self.num_workers)
        active: list[tuple[_WorkerHandle, int]] = []
        for i, handle in enumerate(self._workers):
            row_lo, row_hi = int(row_bounds[i]), int(row_bounds[i + 1])
            triple_lo = n_rows + int(triple_bounds[i])
            triple_hi = n_rows + int(triple_bounds[i + 1])
            weight = (row_hi - row_lo) + (triple_hi - triple_lo)
            if weight == 0:
                continue
            try:
                handle.conn.send(("step", step_index, row_lo, row_hi,
                                  triple_lo, triple_hi))
            except (OSError, ValueError) as error:
                raise WorkerPoolError(
                    f"worker {handle.worker_id} unreachable: "
                    f"{error}") from error
            active.append((handle, weight))
        if not active:
            raise WorkerPoolError("no worker received a non-empty shard")

        total_weight = float(sum(w for _, w in active))
        deadline = time.monotonic() + self.straggler_timeout_s
        losses = {"total": 0.0, "mask": 0.0, "ke": 0.0,
                  "numeric_regression": 0.0}
        tokens = 0
        untouched = set(range(len(optimizer.parameters)))
        optimizer.zero_grad()
        reduced = optimizer.grad
        # Fold gradients in fixed worker order (deterministic float sum),
        # each as soon as it is in: worker i's block is reduced while
        # worker j > i still computes.
        for handle, weight in active:
            worker = handle.worker_id
            try:
                if not handle.conn.poll(max(deadline - time.monotonic(), 0)):
                    raise WorkerPoolError(
                        f"straggler: worker {worker} exceeded "
                        f"{self.straggler_timeout_s:.1f}s")
                reply = handle.conn.recv()
            except (EOFError, OSError) as error:
                raise WorkerPoolError(
                    f"worker {worker} died mid-step: {error!r}") from error
            if reply[0] != "ok":
                raise WorkerPoolError(
                    f"worker {worker} failed at step {step_index}:\n"
                    f"{reply[2]}")
            _, reply_step, parts, shard_tokens, shard_untouched = reply
            if reply_step != step_index:
                raise WorkerPoolError(
                    f"worker {worker} answered step {reply_step}, "
                    f"expected {step_index}")
            share = weight / total_weight
            np.multiply(self._shared.grads[worker], share, out=self._scratch)
            reduced += self._scratch
            for key in losses:
                losses[key] += parts[key] * share
            tokens += shard_tokens
            untouched.intersection_update(shard_untouched)
        step_losses = StepLosses(total=Tensor(losses["total"]),
                                 mask=losses["mask"], ke=losses["ke"],
                                 numeric_regression=losses[
                                     "numeric_regression"],
                                 tokens=tokens)
        # The serial step's skip rule: Adam leaves an untouched parameter
        # and its moments alone.
        for i, param in enumerate(optimizer.parameters):
            if i not in untouched:
                param.grad = param.grad_slot
        return step_losses

    def close(self) -> None:
        """Stop and join every worker, then drop the shared mapping.

        The workers get one shared :data:`_CLOSE_JOIN_S` to stop; the
        survivors (stuck in a step) are terminated together and get one
        more, so closing a pool of N stuck workers takes about
        2 x :data:`_CLOSE_JOIN_S`, whatever N.  Idempotent, and safe
        after worker crashes: the mapping has no name, so nothing
        outlives the processes that map it.
        """
        for handle in self._workers:
            try:
                handle.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        processes = [handle.process for handle in self._workers]
        _join_all(processes, _CLOSE_JOIN_S)
        survivors = [process for process in processes if process.is_alive()]
        for process in survivors:
            process.terminate()
        _join_all(survivors, _CLOSE_JOIN_S)
        for handle in self._workers:
            handle.conn.close()
        self._workers = []
        if self._shared is not None:
            self._shared.close()
            self._shared = None

    def __enter__(self) -> "GradientWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The runtime
# ----------------------------------------------------------------------
@dataclass
class RuntimeConfig:
    """Knobs of the fault-tolerant runtime, one per ``repro train`` flag.

    ``workers`` below 2 trains serially; ``checkpoint_every_steps=0``
    writes no cadence snapshots (a paused, interrupted or finished run
    still checkpoints); ``keep_last`` snapshots are retained by step.
    Pool recovery follows :data:`POOL_RETRY_STEPS` and
    :data:`POOL_MAX_FAILURES`.
    """

    run_dir: str | Path
    workers: int = 1
    checkpoint_every_steps: int = 50
    keep_last: int = 3
    straggler_timeout_s: float = 120.0


class TrainingRuntime:
    """Runs a retrainer with checkpoint/resume, workers, and a journal."""

    def __init__(self, retrainer: KTeleBertRetrainer, config: RuntimeConfig):
        self.retrainer = retrainer
        self.config = config
        self.run_dir = Path(config.run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.journal = RunJournal(self.run_dir / JOURNAL_NAME)
        self.snapshots = SnapshotStore(self.run_dir / SNAPSHOT_DIR,
                                       keep_last=config.keep_last)
        self._pool: GradientWorkerPool | None = None
        self._parallel_disabled = False
        self._pool_failures = 0       # consecutive failures so far
        self._retry_countdown = 0     # serial steps left before a rebuild
        self._stop_signal: int | None = None
        self._last_checkpoint_step: int | None = None
        self.interrupted = False

    # -- resume --------------------------------------------------------
    def resume_if_available(self) -> int | None:
        """Restore the latest snapshot if one exists; returns its step."""
        state = self.snapshots.load_latest()
        if state is None:
            return None
        state.apply(self.retrainer.model, self.retrainer.optimizer)
        self.retrainer.load_state_dict(state.trainer_state)
        self.journal.append("resume", step=state.step, loss=state.loss)
        return state.step

    # -- checkpointing -------------------------------------------------
    def checkpoint(self, reason: str = "cadence") -> Path:
        """Write a snapshot of the current training state."""
        retrainer = self.retrainer
        step = retrainer.step_index
        loss = retrainer.log.total[-1] if retrainer.log.total else float("inf")
        path = self.snapshots.save(
            retrainer.model, retrainer.optimizer, retrainer.state_dict(),
            step=step, loss=loss)
        self._last_checkpoint_step = step
        self.journal.append("checkpoint", step=step, loss=loss,
                            path=path.name, reason=reason)
        return path

    def _checkpoint_due(self) -> bool:
        every = self.config.checkpoint_every_steps
        return bool(every) and self.retrainer.step_index % every == 0

    # -- signals -------------------------------------------------------
    def _install_signals(self) -> dict:
        previous = {}

        def _request_stop(signum, frame):
            self._stop_signal = signum

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _request_stop)
            except ValueError:  # not in the main thread
                break
        return previous

    @staticmethod
    def _restore_signals(previous: dict) -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    # -- stepping ------------------------------------------------------
    def _ensure_pool(self) -> GradientWorkerPool | None:
        if self.config.workers < 2 or self._parallel_disabled:
            return None
        if self._pool is not None:
            return self._pool
        if self._retry_countdown > 0:
            # Cooling down after a failure: train serially, count down to
            # the rebuild attempt.
            self._retry_countdown -= 1
            return None
        retrainer = self.retrainer
        rebuilding = self._pool_failures > 0
        try:
            self._pool = GradientWorkerPool(
                retrainer, self.config.workers,
                self.config.straggler_timeout_s)
        except WorkerPoolError as error:
            self._degrade(f"pool startup failed: {error}")
            return None
        if rebuilding:
            self.journal.append("pool_rebuilt", step=retrainer.step_index,
                                after_failures=self._pool_failures)
        return self._pool

    def _degrade(self, reason: str) -> None:
        """Fall back to serial after a pool failure.

        Failures are counted consecutively (a successful parallel step
        resets the count).  Until :data:`POOL_MAX_FAILURES` is reached the
        fallback is temporary: after :data:`POOL_RETRY_STEPS` serial steps
        the pool is rebuilt.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._pool_failures += 1
        permanent = self._pool_failures >= POOL_MAX_FAILURES
        if permanent:
            self._parallel_disabled = True
        else:
            self._retry_countdown = POOL_RETRY_STEPS
        self.journal.append("fallback_serial", reason=reason,
                            step=self.retrainer.step_index,
                            failures=self._pool_failures,
                            permanent=permanent,
                            retry_in_steps=(None if permanent
                                            else POOL_RETRY_STEPS))

    def train_step(self) -> StepLosses:
        """One runtime step: parallel when possible, serial otherwise."""
        retrainer = self.retrainer
        pool = self._ensure_pool()
        rows, row_indices, triples, triple_indices = retrainer.draw_batches(
            retrainer.advance())
        if pool is not None:
            try:
                losses = pool.step(retrainer.step_index - 1, row_indices,
                                   triple_indices)
            except WorkerPoolError as error:
                self._degrade(str(error))
            else:
                self._pool_failures = 0
                retrainer.finish_step(losses)
                return losses
        # The serial step, also the fallback when the pool just failed.
        return retrainer.train_on(rows, triples)

    # -- the loop ------------------------------------------------------
    def run(self, max_steps: int | None = None) -> RetrainingLog:
        """Train until the schedule ends, ``max_steps`` pass, or a signal.

        Returns the loss log; ``self.interrupted`` tells apart a clean
        completion from a signal-triggered stop (which leaves behind a
        final checkpoint and an ``interrupted`` journal event).  Exiting
        via ``max_steps`` also checkpoints (reason ``"max_steps"``, deduped
        against a cadence checkpoint at the same step) and journals
        ``run_paused``, so a bounded run is always resumable from its last
        completed step.
        """
        retrainer = self.retrainer
        retrainer.model.train()
        total_steps = retrainer.strategy.total_steps
        resumed_from = retrainer.step_index if retrainer.step_index else None
        self.journal.append("run_start", step=retrainer.step_index,
                            total_steps=total_steps,
                            workers=self.config.workers,
                            resumed_from=resumed_from)
        previous_handlers = self._install_signals()
        self.interrupted = False
        steps_done = 0
        try:
            while retrainer.step_index < total_steps:
                if max_steps is not None and steps_done >= max_steps:
                    # A bounded run is a pause, not a completion: snapshot
                    # here (unless the cadence checkpoint just did) so
                    # resuming continues from exactly this step instead of
                    # silently losing the steps since the last cadence hit.
                    if self._last_checkpoint_step != retrainer.step_index:
                        self.checkpoint(reason="max_steps")
                    self.journal.append("run_paused",
                                        step=retrainer.step_index,
                                        steps_done=steps_done)
                    break
                if self._stop_signal is not None:
                    self.interrupted = True
                    self.checkpoint(reason=f"signal {self._stop_signal}")
                    self.journal.append("interrupted",
                                        step=retrainer.step_index,
                                        signal=self._stop_signal)
                    break
                start = time.perf_counter()
                losses = self.train_step()
                wall = time.perf_counter() - start
                steps_done += 1
                self.journal.append(
                    "step", step=retrainer.step_index, loss=losses.value,
                    mask=losses.mask, ke=losses.ke,
                    numeric_regression=losses.numeric_regression,
                    tokens=losses.tokens,
                    tokens_per_sec=losses.tokens / wall if wall > 0 else 0.0,
                    wall_s=wall)
                if self._checkpoint_due():
                    self.checkpoint()
            else:
                self.checkpoint(reason="final")
                self.journal.append("run_complete",
                                    step=retrainer.step_index)
        finally:
            self._restore_signals(previous_handlers)
            if self._pool is not None:
                self._pool.close()
                self._pool = None
        return retrainer.log
