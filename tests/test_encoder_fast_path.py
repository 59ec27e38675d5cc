"""The encoder's inference fast path.

Covers :func:`repro.tensor.inference_mode` (per-call, per-thread serving
mode), the fused ``layer_norm``/``gelu``/``linear``/``dropout`` and head
split/merge nodes against the compositions they replaced (one node at a
time and over a whole stage-2 step), the ``[CLS]``-only last layer, the
train/eval mode race that ``KTeleBert.encode`` used to have, the training
step's token count, and served-equals-offline through the serving stack.
"""

import copy
import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import build_tele_corpus
from repro.index import VectorIndex
from repro.kg import build_tele_kg
from repro.models import KTeleBert, KTeleBertConfig, NumericRow, TeleBertTrainer, TextRow
from repro.nn import Adam, Dropout
from repro.service import KTeleBertProvider
from repro.serving import FaultAnalysisService, ServiceConfig
from repro.tensor import Tensor, inference_mode, is_grad_enabled, is_inference_mode, no_grad
from repro.tensor import functional as F
from repro.training import DynamicMasker
from repro.training.retrainer import compute_stage2_losses
from repro.training.stage2 import build_stage2_data
from repro.world import TelecomWorld


# ----------------------------------------------------------------------
# The compositions the fused nodes replaced, kept as references
# ----------------------------------------------------------------------
def _layer_norm_reference(x, weight, bias, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    variance = (centred * centred).mean(axis=-1, keepdims=True)
    normalised = centred / (variance + eps).sqrt()
    return normalised * weight + bias


def _gelu_reference(x):
    inner = (x + x * x * x * 0.044715) * math.sqrt(2.0 / math.pi)
    return x * 0.5 * (inner.tanh() + 1.0)


def _linear_reference(x, weight, bias=None):
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def _split_heads_reference(x, num_heads):
    batch, seq, width = x.shape
    return x.reshape(batch, seq, num_heads, width // num_heads).transpose(0, 2, 1, 3)


def _merge_heads_reference(x):
    batch, heads, seq, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)


def _dropout_reference(x, rate, rng, training=True):
    if not training or rate <= 0.0 or is_inference_mode():
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


def _grads(fn, arrays, upstream):
    """Gradients of ``sum(fn(*tensors) * upstream)`` w.r.t. each input."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    (fn(*tensors) * Tensor(upstream)).sum().backward()
    return [t.grad for t in tensors]


def _assert_grads_close(fused, reference):
    for got, want in zip(fused, reference):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale


shapes = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)


class TestFusedNodes:
    # Width >= 3: at width 2 the normalised pair is +-1 up to eps, so the
    # exact x-gradient is about eps / variance and the composition's own
    # rounding noise is larger than it.
    @settings(max_examples=30, deadline=None)
    @given(shapes, st.integers(3, 40), st.floats(1e-3, 1e3), st.integers(0, 2**31))
    def test_layer_norm_matches_composition(self, lead, width, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, scale, size=lead + (width,))
        weight = rng.normal(size=width)
        bias = rng.normal(size=width)
        fused = F.layer_norm(Tensor(x), Tensor(weight), Tensor(bias))
        reference = _layer_norm_reference(Tensor(x), Tensor(weight), Tensor(bias))
        np.testing.assert_array_equal(fused.data, reference.data)
        upstream = rng.normal(size=x.shape)
        _assert_grads_close(_grads(F.layer_norm, [x, weight, bias], upstream),
                            _grads(_layer_norm_reference, [x, weight, bias], upstream))

    @settings(max_examples=30, deadline=None)
    @given(shapes, st.floats(1e-3, 10.0), st.integers(0, 2**31))
    def test_gelu_matches_composition(self, shape, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, scale, size=shape)
        np.testing.assert_array_equal(F.gelu(Tensor(x)).data,
                                      _gelu_reference(Tensor(x)).data)
        upstream = rng.normal(size=shape)
        _assert_grads_close(_grads(F.gelu, [x], upstream),
                            _grads(_gelu_reference, [x], upstream))

    # These nodes run the very operations of their compositions, so values
    # and gradients must be equal, not merely close.
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
           st.integers(1, 6), st.integers(1, 6), st.booleans(), st.integers(0, 2**31))
    def test_linear_matches_composition(self, lead, fan_in, fan_out, with_bias, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=lead + (fan_in,)), rng.normal(size=(fan_in, fan_out))]
        if with_bias:
            arrays.append(rng.normal(size=fan_out))
        np.testing.assert_array_equal(F.linear(*map(Tensor, arrays)).data,
                                      _linear_reference(*map(Tensor, arrays)).data)
        upstream = rng.normal(size=lead + (fan_out,))
        for got, want in zip(_grads(F.linear, arrays, upstream),
                             _grads(_linear_reference, arrays, upstream)):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 2**31))
    def test_head_split_and_merge_match_compositions(self, batch, heads, rows, head_dim,
                                                     seed):
        rng = np.random.default_rng(seed)
        cases = [(lambda x: F.split_heads(x, heads), lambda x: _split_heads_reference(x, heads),
                  (batch, rows, heads * head_dim)),
                 (F.merge_heads, _merge_heads_reference, (batch, heads, rows, head_dim))]
        for fused, reference, shape in cases:
            x = rng.normal(size=shape)
            want = reference(Tensor(x)).data
            np.testing.assert_array_equal(fused(Tensor(x)).data, want)
            upstream = rng.normal(size=want.shape)
            np.testing.assert_array_equal(_grads(fused, [x], upstream)[0],
                                          _grads(reference, [x], upstream)[0])

    @settings(max_examples=30, deadline=None)
    @given(shapes, st.floats(0.01, 0.9), st.integers(0, 2**31))
    def test_dropout_matches_composition(self, shape, rate, seed):
        x = np.random.default_rng(seed).normal(size=shape)
        upstream = np.random.default_rng(seed + 1).normal(size=shape)
        results = []
        for fn in (F.dropout, _dropout_reference):
            rng = np.random.default_rng(seed)
            tensor = Tensor(x.copy(), requires_grad=True)
            out = fn(tensor, rate, rng)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, tensor.grad, rng.bit_generator.state))
        (fused_out, fused_grad, fused_state), (ref_out, ref_grad, ref_state) = results
        np.testing.assert_array_equal(fused_out, ref_out)
        np.testing.assert_array_equal(fused_grad, ref_grad)
        assert fused_state == ref_state

    def test_fused_nodes_are_single_graph_nodes(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        assert F.gelu(x)._parents == (x,)
        assert F.layer_norm(x, w, b)._parents == (x, w, b)
        weight = Tensor(np.ones((3, 4)), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        assert F.linear(x, weight, bias)._parents == (x, weight, bias)
        assert F.linear(x, weight)._parents == (x, weight)
        assert F.dropout(x, 0.5, np.random.default_rng(0))._parents == (x,)
        x3 = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        assert F.split_heads(x3, 2)._parents == (x3,)
        x4 = Tensor(np.ones((2, 2, 3, 2)), requires_grad=True)
        assert F.merge_heads(x4)._parents == (x4,)

    def test_layer_norm_weight_only_gradient(self):
        """Inputs that need no gradient still let the others get theirs."""
        x = Tensor(np.arange(6.0).reshape(2, 3))
        w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.zeros(3))
        (F.layer_norm(x, w, b) * Tensor(np.arange(6.0).reshape(2, 3))).sum().backward()
        assert w.grad.shape == (3,) and np.abs(w.grad).sum() > 0
        assert x.grad is None and b.grad is None


class TestFusedStepMatchesCompositions:
    """A whole stage-2 step through the fused nodes and through the compositions.

    The per-node tests cannot see the order in which the backward pass sums
    the gradients of a tensor with several consumers; a fused node that
    changed it would still pass them.  Here the model is built (two stage-1
    steps included) and one stage-2 step run from the same seeds, with a
    mask batch holding numeric rows and a KE batch, once as shipped and
    once with the reference compositions patched into ``functional``.
    """

    @staticmethod
    def _step():
        model, data = _tiny_ktelebert()
        model.train()
        optimizer = Adam(model.parameters(), lr=1e-3)
        numeric = [r for r in data.mask_rows if isinstance(r, NumericRow)][:3]
        text = [r for r in data.mask_rows if not isinstance(r, NumericRow)][:3]
        assert numeric and text and data.triple_rows
        masker = DynamicMasker(model.tokenizer.vocab, np.random.default_rng(3),
                               masking_rate=0.4)
        optimizer.zero_grad()
        losses = compute_stage2_losses(model, masker, numeric + text,
                                       data.triple_rows[:4])
        losses.total.backward()
        return losses, optimizer.grad.copy()

    def test_loss_and_gradient_buffer_are_bit_identical(self, monkeypatch):
        fused_losses, fused_grad = self._step()
        calls = []

        def counted(name, reference):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return reference(*args, **kwargs)
            return wrapper

        for name, reference in [("linear", _linear_reference),
                                ("split_heads", _split_heads_reference),
                                ("merge_heads", _merge_heads_reference),
                                ("dropout", _dropout_reference)]:
            monkeypatch.setattr(F, name, counted(name, reference))
        reference_losses, reference_grad = self._step()
        assert set(calls) == {"linear", "split_heads", "merge_heads", "dropout"}
        for field in ("mask", "ke", "numeric_regression", "tokens"):
            assert getattr(fused_losses, field) == getattr(reference_losses, field)
        assert fused_losses.total.data.tobytes() == reference_losses.total.data.tobytes()
        assert fused_grad.tobytes() == reference_grad.tobytes()


# ----------------------------------------------------------------------
# inference_mode() itself
# ----------------------------------------------------------------------
class TestInferenceMode:
    @pytest.mark.parametrize("context", [no_grad, inference_mode])
    def test_records_no_graph_and_builds_bare_results(self, context):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with context():
            assert not is_grad_enabled()
            assert is_inference_mode() == (context is inference_mode)
            y = F.gelu(x * 2.0 + 1.0)
            z = y.sum()
        assert not y.requires_grad and y._parents == () and y._backward is None
        assert y.grad is None and y.name is None and y.data.dtype == np.float64
        assert isinstance(z.data, np.ndarray)  # numpy scalars become arrays
        assert not is_inference_mode() and is_grad_enabled()
        assert (x * 2.0).requires_grad  # recording is back on outside

    def test_matches_no_grad_values(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 5)))
        w, b = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
        with no_grad():
            expected = F.layer_norm(F.gelu(x), w, b).data
        with inference_mode():
            got = F.layer_norm(F.gelu(x), w, b).data
        np.testing.assert_array_equal(got, expected)

    def test_dropout_is_identity_even_in_training_mode(self):
        rng = np.random.default_rng(0)
        layer = Dropout(0.5, rng).train()
        state = copy.deepcopy(rng.bit_generator.state)
        x = Tensor(np.ones((4, 4)))
        with inference_mode():
            assert layer(x) is x
        assert rng.bit_generator.state == state
        assert not np.array_equal(layer(x).data, x.data)  # on again outside

    def test_nesting_restores_both_switches(self):
        with no_grad():
            with inference_mode():
                assert is_inference_mode()
            assert not is_inference_mode() and not is_grad_enabled()
        with inference_mode():
            with no_grad():
                assert is_inference_mode()
            assert is_inference_mode() and not is_grad_enabled()
        assert is_grad_enabled() and not is_inference_mode()

    @pytest.mark.timeout(30)
    def test_is_thread_local(self):
        inside, other = threading.Event(), []

        def probe():
            inside.wait(10)
            x = Tensor(np.ones(2), requires_grad=True)
            other.append((is_inference_mode(), (x * 2.0).requires_grad))

        thread = threading.Thread(target=probe)
        thread.start()
        with inference_mode():
            inside.set()
            thread.join(10)
        assert not thread.is_alive()
        assert other == [(False, True)]


# ----------------------------------------------------------------------
# A tiny two-layer KTeleBERT
# ----------------------------------------------------------------------
def _tiny_ktelebert():
    """The model (after two stage-1 steps) and its stage-2 data, seed 47."""
    world = TelecomWorld.generate(seed=47, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=6)
    corpus = build_tele_corpus(world, seed=47)
    trainer = TeleBertTrainer(corpus.sentences, seed=47, d_model=16,
                              num_layers=2, num_heads=2, d_ff=32, max_len=20)
    trainer.train(steps=2)
    data = build_stage2_data(corpus, world.simulate_episodes(3),
                             build_tele_kg(world), seed=47, ke_negatives=2)
    model = KTeleBert.from_telebert(
        trainer, KTeleBertConfig(anenc_layers=1, anenc_meta=2, lora_rank=2),
        tag_names=data.tag_names, normalizer=data.normalizer,
        extra_vocabulary=data.vocabulary(), seed=47)
    return model, data


@pytest.fixture(scope="module")
def model():
    return _tiny_ktelebert()[0]


row_strategy = st.one_of(
    st.lists(st.sampled_from(["link", "failure", "board", "alarm", "rate",
                              "unseen", "power", "cell"]),
             min_size=0, max_size=14).map(lambda w: TextRow(" ".join(w))),
    st.tuples(st.lists(st.sampled_from(["rate", "loss", "power", "delay"]),
                       min_size=0, max_size=12),
              st.sampled_from(["rate", "loss", "unseen tag"]),
              st.floats(-50.0, 50.0)).map(
        lambda t: NumericRow(text=f"[KPI] {' '.join(t[0])} | [NUM] {t[2]:.2f}",
                             tag=t[1], value=t[2])),
)


class TestClsOnlyLastLayer:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(row_strategy, min_size=1, max_size=6), st.integers(0, 6))
    def test_equals_full_forward(self, model, rows, extra_padding):
        bert = model.mlm_model.bert
        prep = model.prepare(rows)
        pad = min(extra_padding, bert.config.max_len - prep["ids"].shape[1])
        ids = np.pad(prep["ids"], ((0, 0), (0, pad)),
                     constant_values=model.tokenizer.vocab.pad_id)
        mask = np.pad(prep["mask"], ((0, 0), (0, pad)))
        with inference_mode():
            overrides, _ = model._numeric_overrides(prep)
            fast = bert.cls_embeddings(ids, mask, embedding_overrides=overrides)
            full = bert(ids, attention_mask=mask, embedding_overrides=overrides)
        assert fast.shape == (len(rows), bert.config.d_model)
        np.testing.assert_allclose(fast.data, full.data[:, 0], rtol=0, atol=1e-12)

    def test_only_inference_mode_restricts_the_last_layer(self, model):
        """Training (and plain no_grad) keeps the full last layer."""
        bert = model.mlm_model.bert
        layer = bert.encoder.layers[-1]
        original = layer.forward
        outputs = []

        def recording_forward(x, **kwargs):
            out = original(x, **kwargs)
            outputs.append(out.shape)
            return out

        layer.forward = recording_forward
        try:
            ids, mask = model.tokenizer.encode_batch(["link failure alarm"])
            bert.cls_embeddings(ids, mask)
            with no_grad():
                bert.cls_embeddings(ids, mask)
            with inference_mode():
                bert.cls_embeddings(ids, mask)
        finally:
            del layer.forward
        full = (1, ids.shape[1], bert.config.d_model)
        assert outputs == [full, full, (1, 1, bert.config.d_model)]


# ----------------------------------------------------------------------
# The train/eval mode race and the token-count state
# ----------------------------------------------------------------------
class TestEncodeSharesNoModuleState:
    @pytest.mark.timeout(60)
    def test_concurrent_encodes_match_serial(self, model):
        """One encode stalls between the layers while another runs whole.

        The old encode() called eval() ... train(): the second call's
        train() switched dropout on under the stalled first call, whose last
        layer then drew from the dropout generator.
        """
        rows_a = [TextRow("[ALM] link failure on board"), TextRow("[DOC] rate")]
        rows_b = [TextRow("[KPI] power delay loss"),
                  NumericRow(text="[KPI] rate | [NUM] 0.5", tag="rate", value=0.5)]
        model.train()
        serial_a, serial_b = model.encode(rows_a), model.encode(rows_b)
        rng_state = copy.deepcopy(model.rng.bit_generator.state)

        layer = model.mlm_model.bert.encoder.layers[1]
        original = layer.forward
        stalled, resume, claim = threading.Event(), threading.Event(), threading.Lock()
        calls = []

        def stalling_forward(*args, **kwargs):
            with claim:
                first = not calls
                calls.append(threading.get_ident())
            if first:
                stalled.set()
                resume.wait(10)
            return original(*args, **kwargs)

        results = {}

        def run(key, rows):
            results[key] = model.encode(rows)

        layer.forward = stalling_forward
        try:
            first = threading.Thread(target=run, args=("a", rows_a))
            first.start()
            assert stalled.wait(10)
            second = threading.Thread(target=run, args=("b", rows_b))
            second.start()
            second.join(10)
            assert not second.is_alive()
            resume.set()
            first.join(10)
            assert not first.is_alive()
        finally:
            resume.set()
            del layer.forward
        assert len(set(calls)) == 2  # both encodes crossed the stall point
        np.testing.assert_array_equal(results["a"], serial_a)
        np.testing.assert_array_equal(results["b"], serial_b)
        assert model.rng.bit_generator.state == rng_state

    def test_encode_keeps_the_mode_it_found(self, model):
        rows = [TextRow("[DOC] mode check")]
        try:
            model.eval()
            evaluated = model.encode(rows)
            assert not any(m.training for m in model.mlm_model.modules())
            model.train()
            trained = model.encode(rows)
            assert all(m.training for m in model.mlm_model.modules())
        finally:
            model.train()
        np.testing.assert_array_equal(evaluated, trained)

    def test_stage1_encode_and_probe_keep_the_mode(self):
        world = TelecomWorld.generate(seed=5, alarms_per_theme=2,
                                      kpis_per_theme=2, topology_nodes=6)
        corpus = build_tele_corpus(world, seed=5)
        trainer = TeleBertTrainer(corpus.sentences[:40], seed=5, d_model=16,
                                  num_layers=2, num_heads=2, d_ff=32,
                                  max_len=20)
        state = copy.deepcopy(trainer.rng.bit_generator.state)
        trainer.pretrainer.eval()
        a = trainer.encode_sentences(corpus.sentences[:3])
        trainer.evaluate_mlm_accuracy(corpus.sentences[:5])
        assert not trainer.pretrainer.training
        trainer.pretrainer.train()
        b = trainer.encode_sentences(corpus.sentences[:3])
        trainer.evaluate_mlm_accuracy(corpus.sentences[:5])
        assert all(m.training for m in trainer.pretrainer.modules())
        np.testing.assert_array_equal(a, b)
        assert trainer.rng.bit_generator.state == state

    def test_encode_mid_step_keeps_the_step_token_count(self, model):
        """A served encode between the step's forward and its token read.

        The count used to live on the model (``last_batch_tokens``), so the
        encode overwrote it before ``compute_stage2_losses`` read it.
        """
        rows = [TextRow("[DOC] link failure"), TextRow("[ALM] board power loss")]
        expected = int(model.tokenizer.encode_batch([r.text for r in rows])[1].sum())
        served = [TextRow(" ".join(["rate"] * 12))] * 5
        masker = DynamicMasker(model.tokenizer.vocab, np.random.default_rng(0),
                               masking_rate=0.4)
        original = model.masked_lm_loss

        def loss_then_served_encode(*args, **kwargs):
            out = original(*args, **kwargs)
            model.encode(served)
            return out

        model.masked_lm_loss = loss_then_served_encode
        try:
            losses = compute_stage2_losses(model, masker, rows, None)
        finally:
            del model.masked_lm_loss
        assert losses.tokens == expected
        assert not hasattr(model, "last_batch_tokens")


# ----------------------------------------------------------------------
# Served equals offline
# ----------------------------------------------------------------------
def _service_config(max_batch_size=32, lru_capacity=4096):
    return ServiceConfig(max_batch_size=max_batch_size, max_wait_ms=2,
                         timeout_s=10.0, max_retries=1, backoff_s=0.001,
                         lru_capacity=lru_capacity)


_FINGERPRINT = "served-equals-offline"


@pytest.fixture(scope="module", params=[
    ("memory", 1), ("memory", 32), ("disk", 1), ("disk", 32),
    ("index", 1), ("index", 32)],
    ids=["batch1", "batch32", "disk-batch1", "disk-batch32",
         "index-batch1", "index-batch32"])
def served(request, model, tmp_path_factory):
    """A service over one of three stacks, at batcher size 1 or 32.

    Plain ids are the memory-only store.  ``disk`` is a log-backed store
    whose LRU holds 8 names, so most repeats are read back from the log;
    ``index`` mirrors every encode into a :class:`VectorIndex`.
    """
    stack, batch_size = request.param
    provider = KTeleBertProvider(model, mode="name")
    tmp = tmp_path_factory.mktemp(stack)
    options = {}
    if stack == "disk":
        options = dict(store_dir=tmp, fingerprint=_FINGERPRINT)
    elif stack == "index":
        options = dict(index=VectorIndex(tmp, fingerprint=_FINGERPRINT),
                       fingerprint=_FINGERPRINT)
    config = _service_config(batch_size,
                             lru_capacity=8 if stack == "disk" else 4096)
    with FaultAnalysisService(provider, config=config, **options) as service:
        yield service, provider


name_strategy = st.lists(
    st.sampled_from(["link", "failure", "board", "alarm", "rate", "power",
                     "cell", "loss", "delay", "zzz", "#7"]),
    min_size=1, max_size=10).map(" ".join)


class TestServedEqualsOffline:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(name_strategy, min_size=1, max_size=40))
    def test_embed_matches_single_name_encode(self, served, names):
        service, provider = served
        vectors = service.embed(names)
        assert vectors.shape == (len(names), provider.dim)
        for name, vector in zip(names, vectors):
            offline = provider.encode_names([name])[0]
            np.testing.assert_allclose(vector, offline, rtol=0, atol=1e-6)

    def test_reopened_disk_store_serves_the_same_bits(self, model, tmp_path):
        """A second service on the same log starts with an empty LRU."""
        provider = KTeleBertProvider(model, mode="name")
        names = ["link failure", "board power loss", "cell delay #7",
                 "link failure"]
        with FaultAnalysisService(provider, config=_service_config(),
                                  store_dir=tmp_path,
                                  fingerprint=_FINGERPRINT) as first:
            written = first.embed(names)
        with FaultAnalysisService(provider, config=_service_config(),
                                  store_dir=tmp_path,
                                  fingerprint=_FINGERPRINT) as second:
            assert second.store.stats()["memory_entries"] == 0
            read_back = second.embed(names)
            assert second.stats()["cache"] == {"hits": 3, "misses": 0,
                                               "hit_rate": 1.0}
        assert read_back.tobytes() == written.tobytes()
        for name, vector in zip(names, read_back):
            np.testing.assert_allclose(vector, provider.encode_names([name])[0],
                                       rtol=0, atol=1e-6)
