"""Tests for the fault-tolerant training runtime.

Covers the three runtime pillars end to end: atomic snapshots with
retention, bit-exact kill-and-resume (serial and data-parallel), and the
JSONL run journal (torn-tail safe, with the serving event schema), plus
the optimizer state round-trips the snapshots depend on.  Every runtime
here runs with the SIGINT/SIGTERM traps ``repro train`` runs with, and
``TestReproTrainSignals`` sends SIGTERM to the CLI itself.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.corpus import build_tele_corpus
from repro.ioutil import atomic_write_bytes
from repro.kg import build_tele_kg
from repro.models import (
    KTeleBert,
    KTeleBertConfig,
    TeleBertTrainer,
    model_fingerprint,
    save_train_state,
)
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, AdamW, LinearWarmupSchedule
from repro.serving import MetricsRegistry
import repro.training.runtime as runtime_mod
from repro.training import build_strategy
from repro.training.retrainer import KTeleBertRetrainer
from repro.training.runtime import (
    GradientWorkerPool,
    RunJournal,
    RuntimeConfig,
    SnapshotStore,
    TrainingRuntime,
    WorkerPoolError,
)
from repro.training.shm import PoolSharedState
from repro.training.stage2 import build_stage2_data
from repro.world import TelecomWorld
from tests.test_flat_optimizer import assert_bound

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Shared fixture: a deterministic factory for identically-built loops
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stack():
    """The stage-1 artifacts every retrainer in this module is built from."""
    world = TelecomWorld.generate(seed=61, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=6)
    corpus = build_tele_corpus(world, seed=61)
    kg = build_tele_kg(world)
    episodes = world.simulate_episodes(3)
    trainer = TeleBertTrainer(corpus.sentences, seed=61, d_model=16,
                              num_layers=1, num_heads=2, d_ff=32, max_len=20)
    trainer.train(steps=2)
    data = build_stage2_data(corpus, episodes, kg, seed=61, ke_negatives=2)
    return trainer, data


def make_retrainer(stack, total_steps=6, strategy="pmtl"):
    """Build a fresh, identically-initialised stage-2 loop every call."""
    trainer, data = stack
    model = KTeleBert.from_telebert(
        trainer, KTeleBertConfig(anenc_layers=1, anenc_meta=2, lora_rank=2),
        tag_names=data.tag_names, normalizer=data.normalizer,
        extra_vocabulary=data.vocabulary(), seed=61)
    return KTeleBertRetrainer(model, data, build_strategy(strategy,
                                                          total_steps),
                              seed=7, batch_size=4, ke_batch_size=2)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_write_and_overwrite(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"first")
        assert target.read_bytes() == b"first"
        atomic_write_bytes(target, b"second")
        assert target.read_bytes() == b"second"

    def test_creates_missing_parent(self, tmp_path):
        target = tmp_path / "a" / "b" / "blob.bin"
        atomic_write_bytes(target, b"x")
        assert target.read_bytes() == b"x"

    def test_no_temp_residue(self, tmp_path):
        atomic_write_bytes(tmp_path / "blob.bin", b"payload")
        assert os.listdir(tmp_path) == ["blob.bin"]

    def test_failure_leaves_previous_content(self, tmp_path, monkeypatch):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"stable")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.ioutil.os.replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"torn")
        monkeypatch.undo()
        assert target.read_bytes() == b"stable"
        assert os.listdir(tmp_path) == ["blob.bin"]


# ----------------------------------------------------------------------
# Optimizer state round-trips
# ----------------------------------------------------------------------
def _make_params(seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.normal(size=(3, 2))), Parameter(rng.normal(size=4))]


def _deterministic_steps(optimizer, params, steps, seed):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for param in params:
            param.grad = rng.normal(size=param.data.shape)
        optimizer.step()


class TestOptimizerState:
    @pytest.mark.parametrize("factory", [
        lambda params: Adam(params, lr=0.01, weight_decay=0.01),
        lambda params: AdamW(params, lr=0.01, weight_decay=0.01),
        lambda params: SGD(params, lr=0.01, momentum=0.9),
    ])
    def test_round_trip_is_bit_exact(self, factory):
        params_a = _make_params()
        optim_a = factory(params_a)
        _deterministic_steps(optim_a, params_a, 3, seed=5)
        state = optim_a.state_dict()
        frozen = [param.data.copy() for param in params_a]

        params_b = [Parameter(data.copy()) for data in frozen]
        optim_b = factory(params_b)
        optim_b.load_state_dict(state)
        _deterministic_steps(optim_a, params_a, 2, seed=6)
        _deterministic_steps(optim_b, params_b, 2, seed=6)
        for left, right in zip(params_a, params_b):
            assert np.array_equal(left.data, right.data)

    def test_adam_scalars_and_step_counter_restored(self):
        params = _make_params()
        optim = Adam(params, lr=0.01, betas=(0.8, 0.99), eps=1e-6,
                     weight_decay=0.1)
        _deterministic_steps(optim, params, 4, seed=1)
        restored = Adam(_make_params(), lr=0.5)
        restored.load_state_dict(optim.state_dict())
        assert restored.lr == 0.01
        assert restored.betas == (0.8, 0.99)
        assert restored.eps == 1e-6
        assert restored.weight_decay == 0.1
        assert restored._t == 4

    def test_kind_mismatch_rejected(self):
        adam_state = Adam(_make_params(), lr=0.01).state_dict()
        with pytest.raises(ValueError, match="adam"):
            SGD(_make_params(), lr=0.01).load_state_dict(adam_state)

    def test_adamw_state_is_not_adam_state(self):
        adamw_state = AdamW(_make_params(), lr=0.01).state_dict()
        assert adamw_state["kind"] == "adamw"
        with pytest.raises(ValueError):
            Adam(_make_params(), lr=0.01).load_state_dict(adamw_state)

    def test_shape_mismatch_rejected(self):
        state = Adam(_make_params(), lr=0.01).state_dict()
        other = [Parameter(np.zeros((5, 5))), Parameter(np.zeros(4))]
        with pytest.raises(ValueError, match="shape"):
            Adam(other, lr=0.01).load_state_dict(state)

    def test_missing_moment_rejected(self):
        state = Adam(_make_params(), lr=0.01).state_dict()
        del state["arrays"]["v/1"]
        with pytest.raises(ValueError, match="v/1"):
            Adam(_make_params(), lr=0.01).load_state_dict(state)

    def test_schedule_round_trip(self):
        params = _make_params()
        schedule = LinearWarmupSchedule(Adam(params, lr=0.0), peak_lr=0.1,
                                        warmup_steps=4, total_steps=10)
        for _ in range(6):
            schedule.step()
        clone = LinearWarmupSchedule(Adam(_make_params(), lr=0.0),
                                     peak_lr=1.0, warmup_steps=1,
                                     total_steps=2)
        clone.load_state_dict(schedule.state_dict())
        assert [clone.step() for _ in range(3)] == \
            [schedule.step() for _ in range(3)]


# ----------------------------------------------------------------------
# Run journal
# ----------------------------------------------------------------------
class TestRunJournal:
    def test_append_and_read_back(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append("run_start", step=0)
        journal.append("step", step=1, loss=2.5)
        events = journal.events()
        assert [e["kind"] for e in events] == ["run_start", "step"]
        assert events[1]["loss"] == 2.5
        assert all("time" in e for e in events)

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append("step", step=1)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "step", "ste')  # crash mid-write
        assert [e["kind"] for e in journal.events()] == ["step"]

    def test_event_after_torn_tail_is_read_back(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append("run_paused", step=2)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "step", "ste')  # killed mid-write
        journal.append("resume", step=2)
        assert [e["kind"] for e in journal.events()] == \
            ["run_paused", "resume"]

    def test_interrupted_detection(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        assert not journal.is_interrupted()  # no journal at all
        journal.append("run_start", step=0)
        journal.append("step", step=1)
        assert journal.is_interrupted()
        journal.append("run_complete", step=1)
        assert not journal.is_interrupted()

    def test_same_event_schema_as_serving_metrics(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        trained = journal.append("resume", step=2, loss=1.5)
        served = MetricsRegistry().emit("resume", step=2, loss=1.5)
        assert list(trained) == list(served) == \
            ["kind", "time", "step", "loss"]
        assert journal.events() == [trained]


# ----------------------------------------------------------------------
# Snapshot store retention
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def test_keep_last_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, keep_last=0)

    def test_retention_keeps_the_newest_by_step(self, stack, tmp_path):
        """The newest ``keep_last`` by the step in the name survive,
        whatever their losses: step 2's lowest loss keeps nothing."""
        retrainer = make_retrainer(stack)
        store = SnapshotStore(tmp_path / "snaps", keep_last=2)
        losses = {1: 5.0, 2: 1.0, 3: 3.0, 4: 2.0}
        for step, loss in losses.items():
            store.save(retrainer.model, retrainer.optimizer,
                       retrainer.state_dict(), step=step, loss=loss)
        kept = sorted(path.name for path in store.directory.iterdir())
        assert kept == ["step-00000003.npz", "step-00000004.npz"]
        assert store.snapshots() == [store.path_for(3), store.path_for(4)]
        assert store.latest() == store.path_for(4)
        assert store.load_latest().loss == 2.0

    def test_save_opens_no_file_but_the_one_it_writes(self, stack, tmp_path,
                                                     monkeypatch):
        """Retention reads names, not headers: saving into a full store
        opens no snapshot archive."""
        retrainer = make_retrainer(stack)
        store = SnapshotStore(tmp_path / "snaps", keep_last=3)
        opened = []
        real_load = np.load

        def counting_load(file, *args, **kwargs):
            opened.append(file)
            return real_load(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        for step in range(1, 7):
            store.save(retrainer.model, retrainer.optimizer,
                       retrainer.state_dict(), step=step, loss=1.0)
        assert opened == []
        assert store.snapshots() == [store.path_for(step)
                                     for step in (4, 5, 6)]

    def test_load_latest_round_trips_metadata(self, stack, tmp_path):
        retrainer = make_retrainer(stack)
        store = SnapshotStore(tmp_path / "snaps", keep_last=3)
        store.save(retrainer.model, retrainer.optimizer,
                   retrainer.state_dict(), step=7, loss=1.25)
        state = store.load_latest()
        assert state.step == 7
        assert state.loss == 1.25
        assert state.trainer_state["step"] == retrainer.step_index

    def test_a_snapshot_of_the_earlier_format_still_loads(self, stack,
                                                          tmp_path):
        """Earlier versions wrote an ``extra`` dict into each header and
        an ``index.json`` beside the snapshots; both are ignored."""
        source = make_retrainer(stack)
        source.train_step()
        store = SnapshotStore(tmp_path / "snaps")
        path = store.save(source.model, source.optimizer,
                          source.state_dict(), step=1, loss=2.5)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["extra"] = {"reason": "cadence", "mtl_phase": ["mask"],
                         "workers": 2}
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        (store.directory / "index.json").write_text(
            '{"step-00000001.npz": {"step": 1, "loss": 2.5}}')

        target = make_retrainer(stack)
        state = store.load_latest()
        assert (state.step, state.loss) == (1, 2.5)
        state.apply(target.model, target.optimizer)
        target.load_state_dict(state.trainer_state)
        assert model_fingerprint(target.model) == \
            model_fingerprint(source.model)
        assert target.train_step() == source.train_step()

    def test_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        assert store.snapshots() == []
        assert store.latest() is None
        assert store.load_latest() is None

    def test_a_complete_snapshot_is_found_without_any_index(self, stack,
                                                              tmp_path):
        """A snapshot is its own index entry: one written straight to
        the directory, as a kill right after a save's rename leaves it,
        is what resume loads.  A name whose step does not parse is not a
        snapshot."""
        retrainer = make_retrainer(stack)
        store = SnapshotStore(tmp_path / "snaps", keep_last=3)
        store.save(retrainer.model, retrainer.optimizer,
                   retrainer.state_dict(), step=3, loss=2.0)
        save_train_state(store.path_for(5), retrainer.model,
                         retrainer.optimizer, retrainer.state_dict(),
                         step=5, loss=1.5)
        (store.directory / "step-final.npz").write_bytes(b"not a snapshot")
        assert store.snapshots() == [store.path_for(3), store.path_for(5)]
        assert store.latest() == store.path_for(5)
        assert store.load_latest().step == 5


# ----------------------------------------------------------------------
# Retrainer loop-state validation
# ----------------------------------------------------------------------
class TestRetrainerState:
    def test_strategy_mismatch_rejected(self, stack):
        source = make_retrainer(stack, total_steps=6, strategy="pmtl")
        target = make_retrainer(stack, total_steps=8, strategy="pmtl")
        with pytest.raises(ValueError, match="strategy"):
            target.load_state_dict(source.state_dict())

    def test_state_is_json_serialisable(self, stack):
        retrainer = make_retrainer(stack)
        retrainer.train_step()
        json.dumps(retrainer.state_dict())


# ----------------------------------------------------------------------
# Parameters stay views of the optimizer's buffers
# ----------------------------------------------------------------------
class TestParameterBuffer:
    def test_views_survive_steps_and_restores(self, stack, tmp_path):
        source = make_retrainer(stack)
        for _ in range(2):
            source.train_step()
            assert_bound(source.optimizer)
        store = SnapshotStore(tmp_path / "snaps")
        store.save(source.model, source.optimizer, source.state_dict(),
                   step=2, loss=1.0)
        target = make_retrainer(stack)
        store.load_latest().apply(target.model, target.optimizer)
        assert_bound(target.optimizer)
        assert np.array_equal(target.optimizer.flat, source.optimizer.flat)
        target.optimizer.load_state_dict(source.optimizer.state_dict())
        assert_bound(target.optimizer)


# ----------------------------------------------------------------------
# Kill-and-resume: the bit-exact continuation guarantee
# ----------------------------------------------------------------------
def _run_to_completion(stack, run_dir, workers=1, total_steps=6):
    retrainer = make_retrainer(stack, total_steps=total_steps)
    runtime = TrainingRuntime(retrainer, RuntimeConfig(
        run_dir=run_dir, workers=workers, checkpoint_every_steps=2))
    runtime.run()
    return retrainer, runtime


@pytest.mark.slow
class TestKillAndResume:
    def test_serial_resume_is_bit_exact(self, stack, tmp_path):
        # Reference: one uninterrupted run.
        reference, _ = _run_to_completion(stack, tmp_path / "ref")

        # Interrupted run: stop after 3 of 6 steps.  Cadence checkpointed
        # at step 2; the max_steps exit checkpoints step 3 as well, so no
        # completed progress is lost.
        first = make_retrainer(stack)
        runtime = TrainingRuntime(first, RuntimeConfig(
            run_dir=tmp_path / "run", workers=1, checkpoint_every_steps=2))
        runtime.run(max_steps=3)
        assert runtime.journal.is_interrupted()
        reasons = [e["reason"] for e in runtime.journal.events()
                   if e["kind"] == "checkpoint"]
        assert reasons == ["cadence", "max_steps"]

        # Resume in a brand-new process stand-in: a fresh, identically
        # built loop restored from the latest snapshot.
        second = make_retrainer(stack)
        resumed = TrainingRuntime(second, RuntimeConfig(
            run_dir=tmp_path / "run", workers=1, checkpoint_every_steps=2))
        resumed_step = resumed.resume_if_available()
        assert resumed_step == 3
        resumed.run()

        assert second.log.total == reference.log.total
        assert second.log.mask == reference.log.mask
        assert second.log.ke == reference.log.ke
        assert model_fingerprint(second.model) == \
            model_fingerprint(reference.model)
        assert not resumed.journal.is_interrupted()

    def test_resume_without_snapshot_is_noop(self, stack, tmp_path):
        retrainer = make_retrainer(stack)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=tmp_path / "fresh"))
        assert runtime.resume_if_available() is None
        assert retrainer.step_index == 0

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_parallel_resume_matches_uninterrupted_parallel(self, stack,
                                                            tmp_path):
        reference, ref_runtime = _run_to_completion(stack, tmp_path / "ref",
                                                    workers=2)
        kinds = [e["kind"] for e in ref_runtime.journal.events()]
        assert "fallback_serial" not in kinds

        first = make_retrainer(stack)
        runtime = TrainingRuntime(first, RuntimeConfig(
            run_dir=tmp_path / "run", workers=2, checkpoint_every_steps=2))
        runtime.run(max_steps=2)
        # The cadence checkpoint already covered step 2, so the max_steps
        # exit must not write a duplicate snapshot of the same step.
        checkpoints = [e for e in runtime.journal.events()
                       if e["kind"] == "checkpoint"]
        assert [e["reason"] for e in checkpoints] == ["cadence"]

        second = make_retrainer(stack)
        resumed = TrainingRuntime(second, RuntimeConfig(
            run_dir=tmp_path / "run", workers=2, checkpoint_every_steps=2))
        assert resumed.resume_if_available() == 2
        resumed.run()

        assert second.log.total == reference.log.total
        assert model_fingerprint(second.model) == \
            model_fingerprint(reference.model)

    def test_journal_records_lifecycle(self, stack, tmp_path):
        _, runtime = _run_to_completion(stack, tmp_path / "run")
        kinds = [e["kind"] for e in runtime.journal.events()]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_complete"
        steps = [e for e in runtime.journal.events() if e["kind"] == "step"]
        assert len(steps) == 6
        assert all(np.isfinite(e["loss"]) for e in steps)
        assert all(e["wall_s"] > 0 for e in steps)


# ----------------------------------------------------------------------
# Worker pool failure modes
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_pool_needs_two_workers(self, stack):
        retrainer = make_retrainer(stack)
        with pytest.raises(ValueError):
            GradientWorkerPool(retrainer, 1, 120.0)

    def test_startup_failure_degrades_to_serial(self, stack, tmp_path,
                                                monkeypatch):
        def broken_pool(*args, **kwargs):
            raise WorkerPoolError("injected startup failure")

        monkeypatch.setattr("repro.training.runtime.GradientWorkerPool",
                            broken_pool)
        retrainer = make_retrainer(stack, total_steps=2)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=tmp_path / "run", workers=4))
        log = runtime.run()
        assert len(log.total) == 2
        assert all(np.isfinite(v) for v in log.total)
        kinds = [e["kind"] for e in runtime.journal.events()]
        assert "fallback_serial" in kinds
        assert kinds[-1] == "run_complete"

    @pytest.mark.slow
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_straggler_timeout_degrades_to_serial(self, stack, tmp_path):
        retrainer = make_retrainer(stack, total_steps=2)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=tmp_path / "run", workers=2, straggler_timeout_s=0.0))
        log = runtime.run()
        assert len(log.total) == 2
        events = runtime.journal.events()
        fallbacks = [e for e in events if e["kind"] == "fallback_serial"]
        assert fallbacks and "straggler" in fallbacks[0]["reason"]

    @pytest.mark.slow
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_worker_death_mid_step_raises_pool_error(self, stack):
        """A killed worker must surface as WorkerPoolError, not EOFError."""
        retrainer = make_retrainer(stack)
        pool = GradientWorkerPool(retrainer, 2, 120.0)
        try:
            tasks = retrainer.advance()
            _, row_idx, _, triple_idx = retrainer.draw_batches(tasks)
            losses = pool.step(0, row_idx, triple_idx)
            assert np.isfinite(losses.value)

            victim = pool._workers[0].process
            victim.kill()
            victim.join(timeout=10)
            tasks = retrainer.advance()
            _, row_idx, _, triple_idx = retrainer.draw_batches(tasks)
            with pytest.raises(WorkerPoolError):
                pool.step(1, row_idx, triple_idx)
        finally:
            pool.close()

    @pytest.mark.slow
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_kill_worker_mid_run_degrades_to_serial(self, stack, tmp_path):
        """The run survives a worker kill: journaled fallback, no crash."""
        retrainer = make_retrainer(stack, total_steps=4)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=tmp_path / "run", workers=2))
        runtime.train_step()
        victim = runtime._pool._workers[0].process
        victim.kill()
        victim.join(timeout=10)

        log = runtime.run()
        assert len(log.total) == 4
        assert all(np.isfinite(v) for v in log.total)
        kinds = [e["kind"] for e in runtime.journal.events()]
        assert "fallback_serial" in kinds
        assert kinds[-1] == "run_complete"

    @pytest.mark.slow
    @pytest.mark.timeout(120)
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_stuck_worker_is_stopped_under_the_runtime_traps(
            self, stack, tmp_path, monkeypatch):
        """Workers forked while ``run()`` traps SIGTERM still die on
        ``terminate()``: after a straggler fallback no pool process is
        left, so the trainer cannot hang at exit joining one."""
        parent = os.getpid()
        forward = runtime_mod.compute_stage2_losses

        def stuck_in_a_worker(*args):
            while os.getpid() != parent:
                time.sleep(3600)
            return forward(*args)

        monkeypatch.setattr(runtime_mod, "compute_stage2_losses",
                            stuck_in_a_worker)
        retrainer = make_retrainer(stack, total_steps=2)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=tmp_path / "run", workers=2, straggler_timeout_s=1.0))
        try:
            log = runtime.run()
            alive = multiprocessing.active_children()
        finally:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(timeout=10)
        assert len(log.total) == 2
        fallbacks = [e for e in runtime.journal.events()
                     if e["kind"] == "fallback_serial"]
        assert fallbacks and "straggler" in fallbacks[0]["reason"]
        assert alive == []

    @pytest.mark.slow
    @pytest.mark.timeout(120)
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_closing_stuck_workers_waits_one_shared_deadline(
            self, stack, monkeypatch):
        """Three workers stuck in a step are joined against one deadline
        and terminated together: ``close()`` takes about 2 s, not 2 s per
        worker."""
        parent = os.getpid()
        forward = runtime_mod.compute_stage2_losses

        def stuck_in_a_worker(*args):
            while os.getpid() != parent:
                time.sleep(3600)
            return forward(*args)

        monkeypatch.setattr(runtime_mod, "compute_stage2_losses",
                            stuck_in_a_worker)
        retrainer = make_retrainer(stack)
        pool = GradientWorkerPool(retrainer, 3, 0.5)
        try:
            tasks = retrainer.advance()
            _, row_idx, _, triple_idx = retrainer.draw_batches(tasks)
            with pytest.raises(WorkerPoolError, match="straggler"):
                pool.step(0, row_idx, triple_idx)
            started = time.monotonic()
            pool.close()
            elapsed = time.monotonic() - started
            alive = multiprocessing.active_children()
        finally:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(timeout=10)
        assert alive == []
        assert elapsed < 3.0, f"close() took {elapsed:.1f}s"

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_pipes_carry_only_small_control_messages(self, stack):
        """The hot path never pickles arrays: control tuples only."""
        import pickle

        class SpyConn:
            def __init__(self, conn, log):
                self._conn = conn
                self._log = log

            def send(self, obj):
                self._log.append(obj)
                self._conn.send(obj)

            def recv(self):
                obj = self._conn.recv()
                self._log.append(obj)
                return obj

            def __getattr__(self, name):  # poll/fileno/close passthrough
                return getattr(self._conn, name)

        def has_array(obj):
            if isinstance(obj, np.ndarray):
                return True
            if isinstance(obj, (list, tuple, set)):
                return any(has_array(item) for item in obj)
            if isinstance(obj, dict):
                return any(has_array(v) for v in obj.values())
            return False

        retrainer = make_retrainer(stack)
        pool = GradientWorkerPool(retrainer, 2, 120.0)
        messages: list = []
        try:
            for handle in pool._workers:
                handle.conn = SpyConn(handle.conn, messages)
            for step in range(2):
                tasks = retrainer.advance()
                _, row_idx, _, triple_idx = retrainer.draw_batches(tasks)
                pool.step(step, row_idx, triple_idx)
        finally:
            pool.close()
        assert messages
        for message in messages:
            assert not has_array(message), message
            assert len(pickle.dumps(message)) < 1024

    @pytest.mark.slow
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_numeric_parts_skip_steps_without_numeric_rows(self, stack,
                                                           tmp_path,
                                                           workers):
        """The skip rule holds on pool steps exactly as on serial ones.

        A step whose batch has no numeric row gives ANEnc, NDec, AWL and
        TGC no gradient, so their weights and Adam moments must not move.
        The parameters still view the optimizer's buffers afterwards.
        """
        retrainer = make_retrainer(stack, total_steps=12)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=tmp_path / "run", workers=workers))
        model, optimizer = retrainer.model, retrainer.optimizer
        numeric = {id(p) for name in ("anenc", "ndec", "awl", "tgc")
                   for p in model.components()[name].parameters()}
        watched = [i for i, p in enumerate(optimizer.parameters)
                   if id(p) in numeric]

        def snapshot():
            arrays = optimizer.state_dict()["arrays"]
            return [array.copy() for i in watched
                    for array in (optimizer.parameters[i].data,
                                  arrays[f"m/{i}"], arrays[f"v/{i}"])]

        skipped = moved = 0
        try:
            for _ in range(12):
                before = snapshot()
                runtime.train_step()
                unchanged = all(np.array_equal(a, b)
                                for a, b in zip(before, snapshot()))
                if retrainer.log.numeric_regression[-1] == 0.0:
                    assert unchanged, f"step {retrainer.step_index - 1}"
                    skipped += 1
                else:
                    moved += not unchanged
        finally:
            if runtime._pool is not None:
                runtime._pool.close()
        kinds = [e["kind"] for e in runtime.journal.events()]
        assert "fallback_serial" not in kinds
        assert skipped and moved, (skipped, moved)
        assert_bound(optimizer)

    @pytest.mark.slow
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_parallel_grads_match_serial_emulation(self, stack):
        """The shared-memory reduction equals the per-shard math in-process."""
        reduced, _, expected, _ = _pool_step_and_emulation(stack, 2)
        assert np.isfinite(expected).all()
        # Same operations in the same order: equal bit for bit.
        assert np.array_equal(reduced, expected)

    @pytest.mark.slow
    @pytest.mark.timeout(120)
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_more_workers_than_cores_match_serial_emulation(self, stack):
        """Three workers (more than this host's cores, on small hosts):
        the same exact reduction, and grad stays None exactly for the
        parameters that no worker's shard reached."""
        reduced, untouched, expected, expected_untouched = (
            _pool_step_and_emulation(stack, 3))
        assert np.array_equal(reduced, expected)
        assert untouched == expected_untouched


def _pool_step_and_emulation(stack, num_workers):
    """One pool step, then each worker emulated in the parent.

    Returns the pool's reduced ``optimizer.grad`` and the indices of the
    parameters it left without a gradient, then the same two from the
    emulation: same step-keyed RNG streams, same shard-weighted mean.
    """
    from repro.training.masking import DynamicMasker
    from repro.training.retrainer import compute_stage2_losses

    retrainer = make_retrainer(stack)
    model = retrainer.model
    params = model.parameters()
    pool = GradientWorkerPool(retrainer, num_workers, 120.0)
    try:
        tasks = retrainer.advance()
        rows, row_idx, triples, triple_idx = retrainer.draw_batches(tasks)
        step = retrainer.step_index - 1
        pool.step(step, row_idx, triple_idx)
        reduced = retrainer.optimizer.grad.copy()
        untouched = {i for i, p in enumerate(params) if p.grad is None}
    finally:
        pool.close()

    saved_model_rng = model.rng.bit_generator.state
    rows = rows or []
    triples = triples or []

    def bounds(n):
        return np.linspace(0, n, num_workers + 1).astype(int)

    row_bounds, triple_bounds = bounds(len(rows)), bounds(len(triples))
    shards = []
    for wid in range(num_workers):
        shard_rows = rows[row_bounds[wid]:row_bounds[wid + 1]]
        shard_triples = triples[triple_bounds[wid]:triple_bounds[wid + 1]]
        weight = len(shard_rows) + len(shard_triples)
        if weight:
            shards.append((wid, shard_rows, shard_triples, weight))
    total_weight = sum(w for *_, w in shards)
    expected = np.zeros_like(reduced)
    expected_untouched = set(range(len(params)))
    for wid, shard_rows, shard_triples, weight in shards:
        masker = DynamicMasker(model.tokenizer.vocab,
                               np.random.default_rng(0),
                               masking_rate=model.config.masking_rate)
        masker.rng = np.random.default_rng([retrainer.seed, wid, step])
        model.rng.bit_generator.state = np.random.default_rng(
            [retrainer.seed, wid, step, 1]).bit_generator.state
        for param in params:
            param.zero_grad()
        losses = compute_stage2_losses(model, masker, shard_rows or None,
                                       shard_triples or None)
        losses.total.backward()
        flat = np.concatenate(
            [(param.grad if param.grad is not None
              else np.zeros_like(param.data)).ravel()
             for param in params])
        expected += flat * (weight / total_weight)
        expected_untouched &= {i for i, p in enumerate(params)
                               if p.grad is None}
    for param in params:
        param.zero_grad()
    model.rng.bit_generator.state = saved_model_rng
    return reduced, untouched, expected, expected_untouched


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
class TestSharedMemory:
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_views_are_disjoint_zeroed_and_shared_with_a_child(self):
        state = PoolSharedState(param_size=16, num_workers=3,
                                index_capacity=8)
        views = [state.params, *state.grads, state.indices]
        assert [view.size for view in views] == [16, 16, 16, 16, 8]
        assert state.indices.dtype == np.int64
        assert not any(view.any() for view in views)  # anonymous: zeroed
        for i, view in enumerate(views):
            assert not any(np.shares_memory(view, other)
                           for other in views[i + 1:])

        def fill():
            for value, view in enumerate(views, start=1):
                view[...] = value

        child = multiprocessing.get_context("fork").Process(target=fill)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        assert [np.unique(view).tolist() for view in views] == [
            [1], [2], [3], [4], [5]]
        views.clear()  # no view left, so close() unmaps
        state.close()
        state.close()  # idempotent
        assert state.params is None and state.grads == []

    @pytest.mark.skipif(not HAS_FORK or not os.path.isdir("/dev/shm"),
                        reason="needs fork and /dev/shm")
    def test_live_pool_adds_no_dev_shm_entry(self, stack):
        before = set(os.listdir("/dev/shm"))
        retrainer = make_retrainer(stack)
        pool = GradientWorkerPool(retrainer, 2, 120.0)
        try:
            tasks = retrainer.advance()
            _, row_idx, _, triple_idx = retrainer.draw_batches(tasks)
            assert np.isfinite(pool.step(0, row_idx, triple_idx).value)
            assert set(os.listdir("/dev/shm")) - before == set()
        finally:
            pool.close()
        pool.close()  # idempotent
        with pytest.raises(WorkerPoolError):
            pool.step(1, [0], None)


# ----------------------------------------------------------------------
# Pool retry / re-enable semantics
# ----------------------------------------------------------------------
class TestPoolRetry:
    def test_repeated_failures_disable_parallelism(self, stack, tmp_path,
                                                   monkeypatch):
        calls = {"count": 0}

        def broken_pool(*args, **kwargs):
            calls["count"] += 1
            raise WorkerPoolError("injected failure")

        monkeypatch.setattr(runtime_mod, "GradientWorkerPool", broken_pool)
        monkeypatch.setattr(runtime_mod, "POOL_RETRY_STEPS", 1)
        monkeypatch.setattr(runtime_mod, "POOL_MAX_FAILURES", 2)
        retrainer = make_retrainer(stack, total_steps=6)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=tmp_path / "run", workers=4))
        log = runtime.run()
        assert len(log.total) == 6
        fallbacks = [e for e in runtime.journal.events()
                     if e["kind"] == "fallback_serial"]
        assert [e["permanent"] for e in fallbacks] == [False, True]
        assert fallbacks[0]["retry_in_steps"] == 1
        assert fallbacks[1]["failures"] == 2
        # step 0 fails, step 1 cools down, step 2 retries and fails for
        # good: no further build attempts after the permanent disable.
        assert calls["count"] == 2

    @pytest.mark.slow
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_transient_failure_reenables_parallelism(self, stack, tmp_path,
                                                     monkeypatch):
        real_pool = GradientWorkerPool
        calls = {"count": 0}

        def flaky_pool(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 1:
                raise WorkerPoolError("injected transient failure")
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(runtime_mod, "GradientWorkerPool", flaky_pool)
        monkeypatch.setattr(runtime_mod, "POOL_RETRY_STEPS", 1)
        retrainer = make_retrainer(stack, total_steps=5)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=tmp_path / "run", workers=2))
        log = runtime.run()
        assert len(log.total) == 5
        events = runtime.journal.events()
        fallbacks = [e for e in events if e["kind"] == "fallback_serial"]
        rebuilds = [e for e in events if e["kind"] == "pool_rebuilt"]
        # One transient failure, one cooldown step, then parallel again.
        assert [e["permanent"] for e in fallbacks] == [False]
        assert len(rebuilds) == 1
        assert rebuilds[0]["after_failures"] == 1
        assert calls["count"] == 2


# ----------------------------------------------------------------------
# max_steps checkpoint semantics
# ----------------------------------------------------------------------
class TestMaxStepsCheckpoint:
    def test_max_steps_exit_writes_a_checkpoint(self, stack, tmp_path):
        retrainer = make_retrainer(stack, total_steps=6)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=tmp_path / "run", checkpoint_every_steps=50))
        runtime.run(max_steps=3)
        events = runtime.journal.events()
        checkpoints = [e for e in events if e["kind"] == "checkpoint"]
        assert ([(e["reason"], e["step"]) for e in checkpoints]
                == [("max_steps", 3)])
        assert events[-1]["kind"] == "run_paused"
        assert runtime.journal.is_interrupted()
        latest = runtime.snapshots.load_latest()
        assert latest is not None and latest.step == 3


# ----------------------------------------------------------------------
# The journal of a real run
# ----------------------------------------------------------------------
class TestRunJournalOfARealRun:
    def test_every_step_is_journaled(self, stack, tmp_path):
        _, runtime = _run_to_completion(stack, tmp_path / "run",
                                        total_steps=2)
        events = runtime.journal.events()
        steps = [e for e in events if e["kind"] == "step"]
        assert [e["step"] for e in steps] == [1, 2]
        assert all(e["tokens"] > 0 and e["tokens_per_sec"] > 0
                   for e in steps)
        assert events[-1]["kind"] == "run_complete"


# ----------------------------------------------------------------------
# `repro train` under SIGTERM: the CLI's own signal path
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[1] / "src"
#: Enough steps that a run signalled after its first step is still
#: training when the signal lands (a smoke step takes about 15 ms).
SIGNAL_STEPS = 150


def _repro_train(run_dir, workers: int) -> subprocess.Popen:
    """``repro train --size smoke`` in its own session (process group);
    its stderr is the test's, so pytest shows it on a failure."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "train", "--run-dir", str(run_dir),
         "--size", "smoke", "--steps", str(SIGNAL_STEPS),
         "--workers", str(workers)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        start_new_session=True)


def _finish(proc: subprocess.Popen) -> tuple[int, bool]:
    """Exit code, and whether the process group emptied after the exit.

    Whatever is left in the group is SIGKILLed, so a failing run leaves
    no process behind.
    """
    try:
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return proc.returncode, True
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            return proc.returncode, False
        time.sleep(0.05)


def _journal(run_dir) -> list[dict]:
    return RunJournal(Path(run_dir) / "journal.jsonl").events()


def _step_losses(events: list[dict]) -> list[list]:
    return [[e["step"], e["loss"], e["mask"], e["ke"],
             e["numeric_regression"]] for e in events if e["kind"] == "step"]


@pytest.mark.slow
@pytest.mark.timeout(300)
class TestReproTrainSignals:
    @pytest.mark.parametrize("workers", [
        1, pytest.param(2, marks=pytest.mark.skipif(
            not HAS_FORK, reason="fork start method unavailable"))])
    def test_sigterm_checkpoints_and_a_rerun_resumes(self, tmp_path,
                                                     workers):
        proc = _repro_train(tmp_path / "run", workers)
        try:
            deadline = time.monotonic() + 120
            while not any(e["kind"] == "step"
                          for e in _journal(tmp_path / "run")):
                assert proc.poll() is None, "exited before its first step"
                assert time.monotonic() < deadline, "no step in 120 s"
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
        finally:
            outcome = _finish(proc)
        assert outcome == (130, True)
        first = _journal(tmp_path / "run")
        assert first[-1]["kind"] == "interrupted"
        interrupted_at = first[-1]["step"]
        assert 0 < interrupted_at < SIGNAL_STEPS
        checkpoint = first[-2]
        assert checkpoint["kind"] == "checkpoint"
        assert checkpoint["step"] == interrupted_at
        assert checkpoint["reason"] == f"signal {int(signal.SIGTERM)}"

        assert _finish(_repro_train(tmp_path / "run", workers)) == (0, True)
        resumed = _journal(tmp_path / "run")[len(first):]
        kinds = [e["kind"] for e in resumed]
        assert "resume" in kinds and kinds[-1] == "run_complete"
        assert "fallback_serial" not in kinds

        assert _finish(_repro_train(tmp_path / "ref", workers)) == (0, True)
        reference = _step_losses(_journal(tmp_path / "ref"))
        assert len(reference) == SIGNAL_STEPS
        assert _step_losses(first) + _step_losses(resumed) == reference
