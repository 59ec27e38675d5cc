"""Tests for optimizers, schedules, and KTeleBERT-specific losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.diagnostics.gradcheck import assert_gradcheck
from repro.nn.losses import numeric_contrastive_loss
from repro.tensor import Tensor


def _quadratic_param(start=5.0):
    return nn.Parameter(np.array([start]))


def _minimise(optimizer, param, steps=200):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (param * param).sum()
        loss.backward()
        optimizer.step()
    return float(param.data[0])


class TestOptimizers:
    def test_sgd_minimises_quadratic(self):
        p = _quadratic_param()
        assert abs(_minimise(nn.SGD([p], lr=0.1), p)) < 1e-3

    def test_sgd_momentum_minimises(self):
        p = _quadratic_param()
        assert abs(_minimise(nn.SGD([p], lr=0.05, momentum=0.9), p)) < 1e-3

    def test_adam_minimises_quadratic(self):
        p = _quadratic_param()
        assert abs(_minimise(nn.Adam([p], lr=0.1), p, steps=300)) < 1e-2

    def test_adamw_decays_weights(self):
        # With zero gradient signal, AdamW should still shrink the weight.
        p = nn.Parameter(np.array([1.0]))
        opt = nn.AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        for _ in range(10):
            opt.step()
        assert abs(p.data[0]) < 1.0

    def test_adam_skips_none_grads(self):
        p1, p2 = _quadratic_param(), _quadratic_param()
        opt = nn.Adam([p1, p2], lr=0.1)
        (p1 * p1).sum().backward()
        before = p2.data.copy()
        opt.step()
        assert np.array_equal(p2.data, before)

    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_clip_grad_norm(self):
        p = nn.Parameter(np.array([3.0, 4.0]))
        p.grad = np.array([3.0, 4.0])
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert abs(norm - 5.0) < 1e-9
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-6

    def test_clip_noop_below_threshold(self):
        p = nn.Parameter(np.array([0.3]))
        p.grad = np.array([0.3])
        nn.clip_grad_norm([p], max_norm=1.0)
        assert np.allclose(p.grad, [0.3])


class TestSchedule:
    def test_warmup_then_decay(self):
        p = _quadratic_param()
        opt = nn.SGD([p], lr=0.0)
        sched = nn.LinearWarmupSchedule(opt, peak_lr=1.0, warmup_steps=10,
                                        total_steps=100)
        lrs = [sched.step() for _ in range(100)]
        assert lrs[4] < lrs[9]                    # rising during warmup
        assert abs(max(lrs) - 1.0) < 0.11         # reaches peak
        assert lrs[-1] < 0.02                     # decays to ~0
        assert opt.lr == lrs[-1]

    def test_invalid_args(self):
        p = _quadratic_param()
        opt = nn.SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            nn.LinearWarmupSchedule(opt, 1.0, warmup_steps=-1, total_steps=10)


class TestMarginRanking:
    def test_zero_when_separated(self):
        pos = Tensor(np.array([0.0, 0.0]))
        neg = Tensor(np.array([5.0, 6.0]))
        assert nn.margin_ranking_loss(pos, neg, margin=1.0).data == 0.0

    def test_positive_when_violated(self):
        pos = Tensor(np.array([2.0]))
        neg = Tensor(np.array([1.0]))
        assert np.allclose(nn.margin_ranking_loss(pos, neg, margin=1.0).data, 2.0)

    def test_gradient(self):
        rng = np.random.default_rng(0)
        pos = Tensor(rng.normal(size=4), requires_grad=True)
        neg = Tensor(rng.normal(size=4) + 0.3, requires_grad=True)
        assert_gradcheck(lambda: nn.margin_ranking_loss(pos, neg),
                         {"pos": pos, "neg": neg})


class TestInfoNCE:
    def test_aligned_pairs_have_low_loss(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 16)))
        loss_same = nn.info_nce(x, x, temperature=0.05)
        y = Tensor(rng.normal(size=(8, 16)))
        loss_rand = nn.info_nce(x, y, temperature=0.05)
        assert loss_same.data < loss_rand.data

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nn.info_nce(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))))

    def test_gradient(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        assert_gradcheck(lambda: nn.info_nce(a, b, temperature=0.5),
                         {"a": a, "b": b})


class TestNumericContrastive:
    def test_small_batch_returns_zero(self):
        emb = Tensor(np.zeros((2, 4)))
        assert numeric_contrastive_loss(emb, np.array([0.1, 0.9])).data == 0.0

    def test_value_ordered_embeddings_score_better(self):
        # Embeddings laid out along a line in value order should have lower
        # loss than shuffled embeddings.
        values = np.linspace(0, 1, 16)
        line = np.stack([values * 10, np.zeros(16)], axis=1)
        ordered = numeric_contrastive_loss(Tensor(line), values)
        rng = np.random.default_rng(0)
        shuffled = numeric_contrastive_loss(
            Tensor(rng.permutation(line)), values)
        assert ordered.data < shuffled.data

    def test_gradient(self):
        rng = np.random.default_rng(2)
        emb = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        values = rng.random(5)
        assert_gradcheck(
            lambda: numeric_contrastive_loss(emb, values, temperature=0.5),
            {"emb": emb})


class TestAutomaticWeightedLoss:
    def test_initial_weighting_is_half(self):
        awl = nn.AutomaticWeightedLoss(3)
        assert np.allclose(awl.weights(), 0.5)

    def test_combines_losses(self):
        awl = nn.AutomaticWeightedLoss(2)
        out = awl([Tensor(2.0), Tensor(4.0)])
        # 0.5*(2+4) + 2*log(2)
        assert np.allclose(out.data, 3.0 + 2 * np.log(2.0))

    def test_wrong_count_raises(self):
        awl = nn.AutomaticWeightedLoss(2)
        with pytest.raises(ValueError):
            awl([Tensor(1.0)])

    def test_mu_grows_for_noisy_task(self):
        """Training should raise mu (lower weight) for a large constant loss."""
        awl = nn.AutomaticWeightedLoss(2)
        opt = nn.Adam(awl.parameters(), lr=0.05)
        for _ in range(100):
            opt.zero_grad()
            total = awl([Tensor(100.0), Tensor(0.01)])
            total.backward()
            opt.step()
        assert awl.mu.data[0] > awl.mu.data[1]

    def test_invalid_num_tasks(self):
        with pytest.raises(ValueError):
            nn.AutomaticWeightedLoss(0)


class TestOrthogonalRegularizer:
    def test_zero_for_orthogonal_matrix(self):
        eye = Tensor(np.eye(4))
        assert np.allclose(nn.orthogonal_regularizer([eye]).data, 0.0)

    def test_positive_for_non_orthogonal(self):
        w = Tensor(np.ones((3, 3)))
        assert nn.orthogonal_regularizer([w]).data > 0

    def test_empty_returns_zero(self):
        assert nn.orthogonal_regularizer([]).data == 0.0

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            nn.orthogonal_regularizer([Tensor(np.ones((2, 3)))])

    def test_gradient_pushes_towards_orthogonality(self):
        rng = np.random.default_rng(0)
        w = nn.Parameter(rng.normal(0, 0.5, size=(4, 4)) + np.eye(4))
        opt = nn.Adam([w], lr=0.01)
        initial = float(nn.orthogonal_regularizer([w]).data)
        for _ in range(200):
            opt.zero_grad()
            loss = nn.orthogonal_regularizer([w])
            loss.backward()
            opt.step()
        assert float(nn.orthogonal_regularizer([w]).data) < initial * 0.01


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.01, max_value=10.0))
def test_awl_finite_for_positive_losses(l1, l2):
    awl = nn.AutomaticWeightedLoss(2)
    out = awl([Tensor(l1), Tensor(l2)])
    assert np.isfinite(out.data)
