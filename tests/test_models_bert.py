"""Tests for the BERT backbone, MLM head, and embedding overrides."""

import numpy as np
import pytest

from repro.models import BertConfig, BertEncoder, BertForMaskedLM
from repro.tensor import Tensor


def _config(vocab=50, max_len=12):
    return BertConfig(vocab_size=vocab, d_model=16, num_layers=2,
                      num_heads=2, d_ff=32, max_len=max_len, dropout=0.0)


def rng():
    return np.random.default_rng(33)


class TestBertConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BertConfig(vocab_size=3)
        with pytest.raises(ValueError):
            BertConfig(vocab_size=50, d_model=10, num_heads=4)


class TestBertEncoder:
    def test_forward_shape(self):
        enc = BertEncoder(_config(), rng())
        ids = np.zeros((2, 8), dtype=np.int64)
        out = enc(ids)
        assert out.shape == (2, 8, 16)

    def test_sequence_too_long_raises(self):
        enc = BertEncoder(_config(max_len=4), rng())
        with pytest.raises(ValueError):
            enc(np.zeros((1, 5), dtype=np.int64))

    def test_cls_embeddings(self):
        enc = BertEncoder(_config(), rng())
        out = enc.cls_embeddings(np.zeros((3, 6), dtype=np.int64))
        assert out.shape == (3, 16)

    def test_position_sensitivity(self):
        enc = BertEncoder(_config(), rng()).eval()
        a = enc(np.array([[7, 8, 9]])).data
        b = enc(np.array([[9, 8, 7]])).data
        assert not np.allclose(a, b)

    def test_override_replaces_embedding(self):
        enc = BertEncoder(_config(), rng()).eval()
        ids = np.array([[5, 6, 7]])
        positions = np.array([[0, 1]])
        vectors = Tensor(np.full((1, 16), 2.5))
        plain = enc.embed(ids).data
        overridden = enc.embed(ids, embedding_overrides=(positions, vectors)).data
        assert not np.allclose(plain[0, 1], overridden[0, 1])
        assert np.allclose(plain[0, 0], overridden[0, 0])
        assert np.allclose(plain[0, 2], overridden[0, 2])

    def test_empty_override_is_noop(self):
        enc = BertEncoder(_config(), rng()).eval()
        ids = np.array([[5, 6, 7]])
        plain = enc.embed(ids).data
        same = enc.embed(ids, embedding_overrides=(
            np.zeros((0, 2), dtype=np.int64), Tensor(np.zeros((0, 16))))).data
        assert np.allclose(plain, same)

    def test_override_shape_validation(self):
        enc = BertEncoder(_config(), rng())
        with pytest.raises(ValueError):
            enc.embed(np.zeros((1, 3), dtype=np.int64),
                      embedding_overrides=(np.array([[0, 1, 2]]),
                                           Tensor(np.zeros((1, 16)))))

    def test_gradient_flows_through_override(self):
        enc = BertEncoder(_config(), rng())
        ids = np.array([[5, 6, 7]])
        vectors = Tensor(np.ones((1, 16)), requires_grad=True)
        out = enc(ids, embedding_overrides=(np.array([[0, 1]]), vectors))
        # A plain sum would be a degenerate probe: the last LayerNorm
        # (weight 1, bias 0) sums to the constant 0 per row, so its exact
        # gradient is zero.  Project onto fixed random weights instead.
        probe = Tensor(np.random.default_rng(0).normal(size=out.shape))
        (out * probe).sum().backward()
        assert vectors.grad is not None
        assert np.abs(vectors.grad).sum() > 0


class TestMaskedLM:
    def test_logits_shape(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        logits = model(np.zeros((2, 5), dtype=np.int64))
        assert logits.shape == (2, 5, 30)

    def test_loss_ignores_unmasked(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        ids = np.array([[2, 7, 8, 3]])
        labels = np.full_like(ids, model.IGNORE_INDEX)
        loss = model.mlm_loss(ids, labels)
        assert loss.data == 0.0

    def test_loss_positive_when_masked(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        ids = np.array([[2, 4, 8, 3]])
        labels = np.full_like(ids, model.IGNORE_INDEX)
        labels[0, 1] = 7
        loss = model.mlm_loss(ids, labels)
        assert loss.data > 0

    def test_training_learns_simple_pattern(self):
        """The model must learn to fill a fixed masked position."""
        from repro import nn
        config = _config(vocab=20, max_len=6)
        model = BertForMaskedLM(config, rng())
        # Pattern: sentence [2, 10, MASK(4), 12, 3] with answer always 11.
        ids = np.array([[2, 10, 4, 12, 3]] * 4)
        labels = np.full_like(ids, model.IGNORE_INDEX)
        labels[:, 2] = 11
        opt = nn.Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(40):
            opt.zero_grad()
            loss = model.mlm_loss(ids, labels)
            if first is None:
                first = float(loss.data)
            loss.backward()
            opt.step()
        assert float(loss.data) < first * 0.2
        pred = model(ids[:1]).data[0, 2].argmax()
        assert pred == 11

    def test_grow_vocab(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        model.grow_vocab(5, rng())
        assert model.config.vocab_size == 35
        logits = model(np.zeros((1, 4), dtype=np.int64))
        assert logits.shape[-1] == 35

    def test_grow_vocab_zero_noop(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        model.grow_vocab(0, rng())
        assert model.config.vocab_size == 30
