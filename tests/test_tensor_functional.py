"""Tests for composite differentiable ops (softmax, layer norm, losses...)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnostics.gradcheck import assert_gradcheck
from repro.tensor import Tensor, functional as F

RNG = np.random.default_rng(11)


def _t(shape, scale=1.0):
    return Tensor(RNG.normal(0, scale, size=shape), requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = F.softmax(_t((4, 7)))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_invariant_to_shift(self):
        x = _t((3, 5))
        shifted = Tensor(x.data + 100.0)
        assert np.allclose(F.softmax(x).data, F.softmax(shifted).data)

    def test_gradient(self):
        a = _t((3, 4))
        assert_gradcheck(lambda: (F.softmax(a) ** 2).sum(), {"a": a})

    def test_log_softmax_matches_log_of_softmax(self):
        x = _t((3, 5))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))

    def test_log_softmax_gradient(self):
        a = _t((2, 6))
        assert_gradcheck(lambda: F.log_softmax(a).sum(), {"a": a})

    def test_extreme_logits_stable(self):
        x = Tensor(np.array([[1000.0, -1000.0, 0.0]]))
        out = F.softmax(x).data
        assert np.isfinite(out).all()
        assert np.allclose(out.sum(), 1.0)


class TestActivations:
    def test_gelu_gradient(self):
        a = _t((3, 4))
        assert_gradcheck(lambda: F.gelu(a).sum(), {"a": a})

    def test_gelu_known_values(self):
        # gelu(0) = 0, gelu(x) ~ x for large x, ~0 for very negative x.
        x = Tensor(np.array([0.0, 10.0, -10.0]))
        out = F.gelu(x).data
        assert abs(out[0]) < 1e-12
        assert abs(out[1] - 10.0) < 1e-3
        assert abs(out[2]) < 1e-3

    def test_sigmoid_range(self):
        out = F.sigmoid(_t((10,), scale=5.0)).data
        assert ((out > 0) & (out < 1)).all()


class TestLayerNorm:
    def test_output_standardised(self):
        x = _t((4, 8), scale=3.0)
        w = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = F.layer_norm(x, w, b).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-8)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gradient_all_inputs(self):
        x = _t((2, 5))
        w = Tensor(RNG.normal(1.0, 0.1, 5), requires_grad=True)
        b = Tensor(RNG.normal(0.0, 0.1, 5), requires_grad=True)
        assert_gradcheck(lambda: (F.layer_norm(x, w, b) ** 2).sum(),
                         {"x": x, "w": w, "b": b})


class TestDropout:
    def test_identity_when_eval(self):
        x = _t((5, 5))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_identity_when_rate_zero(self):
        x = _t((5, 5))
        out = F.dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert out is x

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, np.random.default_rng(0), training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            F.dropout(_t((2,)), 1.0, np.random.default_rng(0))


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = _t((4, 5))
        targets = np.array([0, 1, 2, 3])
        loss = F.cross_entropy(logits, targets)
        probs = F.softmax(logits).data
        manual = -np.log(probs[np.arange(4), targets]).mean()
        assert np.allclose(loss.data, manual)

    def test_cross_entropy_gradient(self):
        targets = np.array([1, 0, 3])
        a = _t((3, 4))
        assert_gradcheck(lambda: F.cross_entropy(a, targets), {"a": a})

    def test_cross_entropy_ignore_index(self):
        logits = _t((4, 5))
        targets = np.array([0, -100, 2, -100])
        loss_masked = F.cross_entropy(logits, targets, ignore_index=-100)
        kept = Tensor(logits.data[[0, 2]], requires_grad=False)
        loss_manual = F.cross_entropy(kept, np.array([0, 2]))
        assert np.allclose(loss_masked.data, loss_manual.data)

    def test_cross_entropy_all_ignored_returns_zero(self):
        logits = _t((2, 3))
        loss = F.cross_entropy(logits, np.array([-100, -100]), ignore_index=-100)
        assert loss.data == 0.0

    def test_cross_entropy_3d_logits(self):
        logits = _t((2, 3, 5))
        targets = RNG.integers(0, 5, size=(2, 3))
        loss = F.cross_entropy(logits, targets)
        assert np.isfinite(loss.data)

    def test_bce_matches_naive(self):
        logits = _t((6,))
        targets = RNG.integers(0, 2, 6).astype(float)
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        p = 1 / (1 + np.exp(-logits.data))
        manual = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert np.allclose(loss.data, manual)

    def test_bce_gradient(self):
        targets = np.array([1.0, 0.0, 1.0])
        a = _t((3,))
        assert_gradcheck(lambda: F.binary_cross_entropy_with_logits(a, targets),
                         {"a": a})

    def test_bce_stable_for_large_logits(self):
        logits = Tensor(np.array([500.0, -500.0]), requires_grad=True)
        loss = F.binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.data)
        assert loss.data < 1e-6

    def test_mse_gradient(self):
        target = RNG.normal(size=(3, 2))
        a = _t((3, 2))
        assert_gradcheck(lambda: F.mse_loss(a, target), {"a": a})


class TestSimilarityAndPooling:
    def test_cosine_similarity_self_is_one(self):
        x = _t((4, 8))
        sim = F.cosine_similarity(x, x)
        assert np.allclose(sim.data, 1.0, atol=1e-6)

    def test_cosine_similarity_orthogonal(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        b = Tensor(np.array([[0.0, 1.0]]))
        assert np.allclose(F.cosine_similarity(a, b).data, 0.0, atol=1e-7)

    def test_cosine_similarity_gradient(self):
        a, b = _t((2, 4)), _t((2, 4))
        assert_gradcheck(lambda: F.cosine_similarity(a, b).sum(),
                         {"a": a, "b": b})

    def test_masked_mean_ignores_padding(self):
        x = Tensor(np.arange(12, dtype=float).reshape(1, 4, 3), requires_grad=True)
        mask = np.array([[1, 1, 0, 0]])
        out = F.masked_mean(x, mask)
        expected = x.data[0, :2].mean(axis=0)
        assert np.allclose(out.data[0], expected)

    def test_masked_mean_gradient(self):
        mask = np.array([[1, 1, 1, 0]])
        a = _t((1, 4, 3))
        assert_gradcheck(lambda: (F.masked_mean(a, mask) ** 2).sum(), {"a": a})

    def test_attention_mask_bias(self):
        mask = np.array([[1, 1, 0]])
        bias = F.attention_scores_mask(mask)
        assert bias.shape == (1, 1, 1, 3)
        assert bias[0, 0, 0, 0] == 0.0
        assert bias[0, 0, 0, 2] < -1e8


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=9))
def test_softmax_always_a_distribution(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    x = Tensor(rng.normal(0, 10, size=(rows, cols)))
    out = F.softmax(x).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=-1), 1.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
def test_logsumexp_consistency(values):
    x = Tensor(np.array([values]))
    log_probs = F.log_softmax(x).data
    assert np.allclose(np.exp(log_probs).sum(), 1.0, atol=1e-8)
