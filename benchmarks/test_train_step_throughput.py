"""Training hot-path throughput: mask_batch, fused ops, full stage-2 step.

Six measurements, written to
``benchmarks/results/train_step_throughput.txt`` (human-readable) and
``benchmarks/results/BENCH_train_step.json`` (machine-readable, emitted
through the shared :mod:`repro.bench` schema with per-metric gating
declared in :mod:`repro.bench.registry`):

* ``mask_batch`` on a 64×128 batch over a 5k-token vocabulary, new
  vectorised implementation vs. an in-file reimplementation of the pre-fix
  per-position Python loop (pool rebuilt on every call).  The fix must be at
  least 5× faster — asserted, not eyeballed.
* the fused embedding gather (``functional.fused_embedding``) vs. an
  in-file reimplementation of the former five-node keep-mask composition,
  forward + backward.
* the fused attention-weight softmax (``functional.attention_weights``)
  vs. the former matmul/scale/bias/softmax composition, forward + backward.
* one full stage-2 KTeleBERT train step (MLM + L_num + KE with gradient
  clipping) on the miniature pipeline, reported as tokens/sec so later
  optimisation passes have a recorded baseline (24.34 ms/step before the
  fused ops landed).
* a regression guard proving the per-step invariants stay hoisted out of
  the hot loop: ``Stage2Data.vocabulary`` and ``Vocab.special_ids`` must
  not be recomputed per step.
* serial vs 4-worker data-parallel step throughput through
  :class:`~repro.training.runtime.TrainingRuntime`; the ≥2x speedup bar is
  asserted whenever the host has at least 4 CPUs (the measurement is
  recorded either way, with an explicit note when the CPU count makes the
  bar non-binding).

Gradient correctness of everything measured here is gated separately by
``make gradcheck``; this file only measures speed.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
from conftest import save_and_print

from repro.bench import BENCH_TRAIN_STEP
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.tokenization.vocab import Vocab
from repro.training.masking import DynamicMasker

VOCAB_SIZE = 5000
BATCH, SEQ = 64, 128
MIN_SPEEDUP = 5.0


def _legacy_mask_batch(masker: DynamicMasker, ids: np.ndarray,
                       attention_mask: np.ndarray):
    """The pre-fix hot path: O(V) pool rebuild per call + per-position RNG."""
    ids = np.asarray(ids)
    attention_mask = np.asarray(attention_mask)
    out_ids = ids.copy()
    masked = np.zeros(ids.shape, dtype=bool)
    special = masker._special_ids
    replacement_pool = np.array(
        [i for i in range(len(masker.vocab)) if i not in special],
        dtype=np.int64)

    for row in range(ids.shape[0]):
        length = int(attention_mask[row].sum())
        valid = [i for i in range(length)
                 if int(ids[row, i]) not in special]
        units = [[i] for i in valid]
        if not units:
            continue
        total_positions = sum(len(u) for u in units)
        target = max(1, int(round(total_positions * masker.masking_rate)))
        order = masker.rng.permutation(len(units))
        chosen: list[int] = []
        for unit_index in order:
            if len(chosen) >= target:
                break
            chosen.extend(units[unit_index])
        for position in chosen:
            masked[row, position] = True
            roll = masker.rng.random()
            if roll < masker.mask_token_prob:
                out_ids[row, position] = masker.vocab.mask_id
            elif roll < masker.mask_token_prob + masker.random_token_prob:
                out_ids[row, position] = int(replacement_pool[
                    masker.rng.integers(len(replacement_pool))])
    return out_ids, masked


def _masking_inputs():
    rng = np.random.default_rng(0)
    vocab = Vocab([f"tok{i}" for i in range(VOCAB_SIZE - 5)])
    ids = rng.integers(5, len(vocab), size=(BATCH, SEQ))
    attention_mask = np.ones_like(ids)
    attention_mask[:, 100:] = 0  # realistic padding tail
    return vocab, ids, attention_mask


def _best_of(fn, repeats=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_mask_batch_speedup(results_dir, record_bench):
    vocab, ids, attention_mask = _masking_inputs()
    masker = DynamicMasker(vocab, np.random.default_rng(1))

    legacy_s = _best_of(lambda: _legacy_mask_batch(masker, ids,
                                                   attention_mask))
    masker.mask_batch(ids, attention_mask)  # warm the pool cache
    fixed_s = _best_of(lambda: masker.mask_batch(ids, attention_mask))
    speedup = legacy_s / fixed_s

    lines = [
        "mask_batch hot path "
        f"({BATCH}x{SEQ} batch, vocab {VOCAB_SIZE}, rate "
        f"{masker.masking_rate:.2f})",
        f"  legacy (pre-fix loop): {legacy_s * 1e3:9.2f} ms/batch",
        f"  vectorised (current):  {fixed_s * 1e3:9.2f} ms/batch",
        f"  speedup:               {speedup:9.1f}x  (required >= "
        f"{MIN_SPEEDUP:.0f}x)",
    ]
    save_and_print(results_dir, "train_step_throughput.txt",
                   "\n".join(lines))
    record_bench(BENCH_TRAIN_STEP, {
        "mask_batch_legacy_ms": legacy_s * 1e3,
        "mask_batch_fixed_ms": fixed_s * 1e3,
        "mask_batch_speedup_x": speedup,
    }, config={"mask_batch": {"batch": BATCH, "seq": SEQ,
                              "vocab": VOCAB_SIZE}})
    assert speedup >= MIN_SPEEDUP, (
        f"mask_batch speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x "
        f"acceptance bar (legacy {legacy_s * 1e3:.2f} ms, "
        f"fixed {fixed_s * 1e3:.2f} ms)")


def _fwd_bwd_best_of(fn, params, iters: int = 10, repeats: int = 3) -> float:
    """Best per-iteration wall time of forward + backward over ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            for param in params:
                param.zero_grad()
            fn().sum().backward()
        best = min(best, (time.perf_counter() - start) / iters)
    return best


def test_fused_embedding_speedup(results_dir, record_bench):
    """Fused gather+scatter vs. the former five-node keep-mask composition."""
    from repro.nn.layers import Embedding

    rng = np.random.default_rng(3)
    d_model, batch, seq, n_overrides = 64, 16, 32, 40
    token_embedding = Embedding(VOCAB_SIZE, d_model, rng)
    position_embedding = Embedding(seq, d_model, rng)
    ids = rng.integers(0, VOCAB_SIZE, size=(batch, seq))
    positions = np.stack([rng.integers(0, batch, n_overrides),
                          rng.integers(0, seq, n_overrides)], axis=1)
    vectors = Tensor(rng.normal(size=(n_overrides, d_model)),
                     requires_grad=True)
    params = [token_embedding.weight, position_embedding.weight, vectors]

    def legacy():
        # The pre-fused embed() body: gather, keep-mask, scatter via a
        # gather index, mask-multiplied blend, tiled position add.
        token = token_embedding(ids)
        keep = np.ones((batch, seq, 1))
        keep[positions[:, 0], positions[:, 1], 0] = 0.0
        gather = np.zeros((batch, seq), dtype=np.int64)
        gather[positions[:, 0], positions[:, 1]] = np.arange(len(positions))
        scattered = vectors.take_rows(gather) * Tensor(1.0 - keep)
        token = token * Tensor(keep) + scattered
        pos_ids = np.tile(np.arange(seq), (batch, 1))
        return token + position_embedding(pos_ids)

    def fused():
        return F.fused_embedding(token_embedding.weight,
                                 position_embedding.weight, ids,
                                 overrides=(positions, vectors))

    np.testing.assert_allclose(legacy().data, fused().data,
                               rtol=1e-12, atol=1e-12)
    legacy_s = _fwd_bwd_best_of(legacy, params)
    fused_s = _fwd_bwd_best_of(fused, params)
    speedup = legacy_s / fused_s

    lines = [
        "",
        f"fused embedding gather ({batch}x{seq} ids, vocab {VOCAB_SIZE}, "
        f"d={d_model}, {n_overrides} overrides, fwd+bwd)",
        f"  legacy (5-node keep-mask): {legacy_s * 1e3:9.3f} ms",
        f"  fused (single node):       {fused_s * 1e3:9.3f} ms",
        f"  speedup:                   {speedup:9.1f}x",
    ]
    _append_result(results_dir, "\n".join(lines))
    record_bench(BENCH_TRAIN_STEP, {
        "fused_embedding_legacy_ms": legacy_s * 1e3,
        "fused_embedding_fused_ms": fused_s * 1e3,
        "fused_embedding_speedup_x": speedup,
    })
    assert speedup >= 1.0, (
        f"fused_embedding is slower than the composition it replaced "
        f"({speedup:.2f}x)")


def test_attention_weights_speedup(results_dir, record_bench):
    """Fused attention softmax vs. the former seven-node composition."""
    rng = np.random.default_rng(4)
    batch, heads, seq, head_dim = 8, 4, 64, 16
    scale = 1.0 / np.sqrt(head_dim)
    q = Tensor(rng.normal(size=(batch, heads, seq, head_dim)),
               requires_grad=True)
    k = Tensor(rng.normal(size=(batch, heads, seq, head_dim)),
               requires_grad=True)
    mask = np.ones((batch, seq))
    mask[:, 48:] = 0
    mask_bias = F.attention_scores_mask(mask)
    workspace: dict = {}

    def legacy():
        # The pre-fused forward: matmul, scale, bias add, then the
        # four-node stabilised softmax — every (B, H, T, T) intermediate
        # captured by the graph.
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        scores = scores + Tensor(mask_bias)
        return F.softmax(scores, axis=-1)

    def fused():
        return F.attention_weights(q, k, scale, mask_bias=mask_bias,
                                   workspace=workspace)

    np.testing.assert_allclose(legacy().data, fused().data,
                               rtol=1e-12, atol=1e-12)
    legacy_s = _fwd_bwd_best_of(legacy, [q, k])
    fused_s = _fwd_bwd_best_of(fused, [q, k])
    speedup = legacy_s / fused_s

    lines = [
        "",
        f"fused attention weights (B={batch}, H={heads}, T={seq}, "
        f"Dh={head_dim}, fwd+bwd)",
        f"  legacy (7-node softmax):   {legacy_s * 1e3:9.3f} ms",
        f"  fused (single node):       {fused_s * 1e3:9.3f} ms",
        f"  speedup:                   {speedup:9.1f}x",
    ]
    _append_result(results_dir, "\n".join(lines))
    record_bench(BENCH_TRAIN_STEP, {
        "attention_weights_legacy_ms": legacy_s * 1e3,
        "attention_weights_fused_ms": fused_s * 1e3,
        "attention_weights_speedup_x": speedup,
    })
    assert speedup >= 1.0, (
        f"attention_weights is slower than the composition it replaced "
        f"({speedup:.2f}x)")


def _build_retrainer(total_steps: int = 8, batch_size: int = 8):
    """The miniature stage-2 pipeline shared by the step benchmarks."""
    from repro.corpus import build_tele_corpus
    from repro.kg import build_tele_kg
    from repro.models import KTeleBert, KTeleBertConfig, TeleBertTrainer
    from repro.training import build_strategy
    from repro.training.retrainer import KTeleBertRetrainer
    from repro.training.stage2 import build_stage2_data
    from repro.world import TelecomWorld

    world = TelecomWorld.generate(seed=7, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=8)
    corpus = build_tele_corpus(world, seed=7)
    kg = build_tele_kg(world)
    episodes = world.simulate_episodes(4)
    trainer = TeleBertTrainer(corpus.sentences, seed=7, d_model=16,
                              num_layers=1, num_heads=2, d_ff=32,
                              max_len=24, batch_size=8)
    trainer.train(steps=2)
    data = build_stage2_data(corpus, episodes, kg, seed=7, ke_negatives=3)
    model = KTeleBert.from_telebert(
        trainer,
        KTeleBertConfig(anenc_layers=1, anenc_meta=2, lora_rank=2,
                        ke_negatives=3),
        tag_names=data.tag_names, normalizer=data.normalizer,
        extra_vocabulary=data.vocabulary(), seed=7)
    strategy = build_strategy("pmtl", total_steps=total_steps)
    return KTeleBertRetrainer(model, data, strategy, seed=7,
                              batch_size=batch_size)


def _append_result(results_dir, text: str) -> None:
    path = results_dir / "train_step_throughput.txt"
    existing = path.read_text() if path.exists() else ""
    path.write_text(existing.rstrip("\n") + text + "\n")
    print(text)


def test_stage2_train_step_tokens_per_sec(results_dir, record_bench):
    # Each step is timed on its own and the median reported, so one slow
    # step (a scheduler hiccup, a neighbour's burst) cannot move it.
    batch_size = 8
    steps = 21
    retrainer = _build_retrainer(total_steps=steps + 1,
                                 batch_size=batch_size)
    model, data = retrainer.model, retrainer.data

    retrainer.train_step()  # warm-up: caches, first-touch allocations
    timings = []
    for _ in range(steps):
        start = time.perf_counter()
        retrainer.train_step()
        timings.append(time.perf_counter() - start)
    step_s = float(np.median(timings))

    from repro.tokenization.tokenizer import basic_tokenize
    avg_tokens = float(np.mean(
        [len(basic_tokenize(r.text)) + 2  # +2 for [CLS]/[SEP]
         for r in data.mask_rows]))
    tokens_per_step = avg_tokens * batch_size
    tokens_per_sec = tokens_per_step / step_s

    lines = [
        "",
        f"stage-2 train step (MLM + L_num + KE, d_model="
        f"{model.bert_config.d_model}, batch {batch_size})",
        f"  step latency:   {step_s * 1e3:9.2f} ms median of {steps} "
        f"steps (24.34 ms before the fused embedding/attention ops)",
        f"  throughput:     {tokens_per_sec:9.0f} tokens/sec "
        f"(~{avg_tokens:.1f} tokens/row)",
    ]
    _append_result(results_dir, "\n".join(lines))
    record_bench(BENCH_TRAIN_STEP, {
        "stage2_step_ms": step_s * 1e3,
        "stage2_tokens_per_sec": tokens_per_sec,
    }, config={"stage2": {"d_model": model.bert_config.d_model,
                          "batch_size": batch_size, "timed_steps": steps}})
    assert tokens_per_sec > 0
    assert all(np.isfinite(v) for v in retrainer.log.total)


def test_per_step_invariants_stay_hoisted():
    """Regression guard: the train loop must not redo per-run setup work.

    Pre-fix, every step rebuilt the extra-vocabulary list from
    ``Stage2Data`` and the special-token id set from the vocabulary.  Both
    are now computed once (model construction / first batch) and cached, so
    across a window of steps the loop must make zero ``vocabulary()`` calls
    and zero special-id set rebuilds.
    """
    from repro.training.stage2 import Stage2Data

    retrainer = _build_retrainer()
    retrainer.train_step()  # warm every cache the hot loop relies on

    calls = {"vocabulary": 0, "special_ids": 0}
    original_vocabulary = Stage2Data.vocabulary
    original_special_ids = Vocab.special_ids

    def counting_vocabulary(self):
        calls["vocabulary"] += 1
        return original_vocabulary(self)

    def counting_special_ids(self):
        calls["special_ids"] += 1
        return original_special_ids(self)

    Stage2Data.vocabulary = counting_vocabulary
    Vocab.special_ids = counting_special_ids
    try:
        for _ in range(4):
            retrainer.train_step()
    finally:
        Stage2Data.vocabulary = original_vocabulary
        Vocab.special_ids = original_special_ids

    assert calls["vocabulary"] == 0, (
        f"train_step rebuilt the Stage2Data vocabulary "
        f"{calls['vocabulary']} times — the hoist regressed")
    assert calls["special_ids"] == 0, (
        f"train_step rebuilt the special-id set {calls['special_ids']} "
        f"times — the masker cache regressed")


def test_data_parallel_step_speedup(results_dir, record_bench, tmp_path):
    """Serial vs 4-worker data-parallel train-step throughput.

    The ≥2x acceptance bar only binds on hosts with at least 4 CPUs — on
    smaller machines the processes time-share one core and the measurement
    is recorded without the assertion.
    """
    from repro.training.runtime import RuntimeConfig, TrainingRuntime

    workers = 4
    steps = 4
    cpus = os.cpu_count() or 1
    has_fork = "fork" in multiprocessing.get_all_start_methods()

    def timed_run(num_workers, run_dir):
        retrainer = _build_retrainer(total_steps=steps + 2)
        runtime = TrainingRuntime(retrainer, RuntimeConfig(
            run_dir=run_dir, workers=num_workers,
            checkpoint_every_steps=0))
        runtime.run(max_steps=1)  # warm-up (builds the pool, first-touch)
        start = time.perf_counter()
        runtime.run(max_steps=steps)
        elapsed = time.perf_counter() - start
        kinds = [e["kind"] for e in runtime.journal.events()]
        return elapsed, retrainer.log, kinds

    serial_s, serial_log, _ = timed_run(1, tmp_path / "serial")
    if not has_fork:
        _append_result(results_dir, "\ndata-parallel step: skipped "
                                    "(fork start method unavailable)")
        return
    parallel_s, parallel_log, kinds = timed_run(workers, tmp_path / "par")

    assert "fallback_serial" not in kinds, (
        "the worker pool degraded to serial; the parallel path was not "
        "actually measured")
    assert all(np.isfinite(v) for v in serial_log.total)
    assert all(np.isfinite(v) for v in parallel_log.total)

    speedup = serial_s / parallel_s
    lines = [
        "",
        f"data-parallel stage-2 step ({workers} fork workers, "
        f"{steps} timed steps, {cpus} CPUs visible)",
        f"  serial:   {serial_s / steps * 1e3:9.2f} ms/step",
        f"  parallel: {parallel_s / steps * 1e3:9.2f} ms/step",
        f"  speedup:  {speedup:9.2f}x  "
        f"(>= 2x required when cpus >= {workers})",
    ]
    if cpus < workers:
        lines.append(
            f"  NOTE: only {cpus} CPU(s) visible — the {workers} workers "
            f"time-share cores, so the >=2x bar is not binding on this "
            f"host; the measurement is recorded for reference only.")
    _append_result(results_dir, "\n".join(lines))
    record_bench(BENCH_TRAIN_STEP, {
        "data_parallel_serial_step_ms": serial_s / steps * 1e3,
        "data_parallel_parallel_step_ms": parallel_s / steps * 1e3,
        "data_parallel_speedup_x": speedup,
    }, config={"data_parallel": {"workers": workers, "timed_steps": steps,
                                 "cpus_visible": cpus,
                                 "speedup_bar_binding": cpus >= workers}})
    if cpus >= workers:
        assert speedup >= 2.0, (
            f"data-parallel speedup {speedup:.2f}x below the 2x bar with "
            f"{cpus} CPUs available")
