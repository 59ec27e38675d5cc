"""Tests for nn modules: registration, layers, attention, transformer."""

import numpy as np
import pytest

from repro import nn
from repro.diagnostics.gradcheck import assert_gradcheck
from repro.tensor import Tensor


def rng():
    return np.random.default_rng(3)


class TestModule:
    def test_parameter_registration(self):
        layer = nn.Linear(4, 3, rng())
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_registration(self):
        block = nn.TransformerEncoderLayer(8, 2, 16, rng())
        names = [n for n, _ in block.named_parameters()]
        assert "attention.query.weight" in names
        assert "ffn_norm.bias" in names

    def test_num_parameters(self):
        layer = nn.Linear(4, 3, rng())
        assert layer.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self):
        encoder = nn.TransformerEncoder(2, 8, 2, 16, rng(), dropout=0.1)
        encoder.eval()
        assert all(not m.training for m in encoder.modules())
        encoder.train()
        assert all(m.training for m in encoder.modules())

    def test_zero_grad(self):
        layer = nn.Linear(3, 2, rng())
        out = layer(Tensor(np.ones((1, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = nn.Linear(4, 3, np.random.default_rng(1))
        b = nn.Linear(4, 3, np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_strict_mismatch(self):
        layer = nn.Linear(4, 3, rng())
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": layer.weight.data})

    def test_load_state_dict_shape_mismatch(self):
        layer = nn.Linear(4, 3, rng())
        bad = {"weight": np.zeros((2, 2)), "bias": np.zeros(3)}
        with pytest.raises(ValueError):
            layer.load_state_dict(bad)

    def test_module_list(self):
        layers = nn.ModuleList([nn.Linear(2, 2, rng()) for _ in range(3)])
        assert len(layers) == 3
        assert len(list(layers.named_parameters())) == 6


class TestLinear:
    def test_forward_shape(self):
        layer = nn.Linear(5, 7, rng())
        out = layer(Tensor(np.zeros((2, 3, 5))))
        assert out.shape == (2, 3, 7)

    def test_no_bias(self):
        layer = nn.Linear(5, 7, rng(), bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow(self):
        layer = nn.Linear(3, 2, rng())
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        assert_gradcheck(lambda: (layer(x) ** 2).sum(), {"x": x})


class TestEmbedding:
    def test_lookup(self):
        emb = nn.Embedding(10, 4, rng())
        out = emb(np.array([[1, 2], [3, 3]]))
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data[1, 0], out.data[1, 1])

    def test_out_of_range_raises(self):
        emb = nn.Embedding(10, 4, rng())
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_gradient_accumulates_for_repeated_tokens(self):
        emb = nn.Embedding(5, 3, rng())
        out = emb(np.array([2, 2, 2])).sum()
        out.backward()
        assert np.allclose(emb.weight.grad[2], 3.0)
        assert np.allclose(emb.weight.grad[0], 0.0)

    def test_grow_appends_rows(self):
        emb = nn.Embedding(5, 3, rng())
        old = emb.weight.data.copy()
        emb.grow(2, rng())
        assert emb.num_embeddings == 7
        assert emb.weight.data.shape == (7, 3)
        assert np.allclose(emb.weight.data[:5], old)

    def test_grow_zero_is_noop(self):
        emb = nn.Embedding(5, 3, rng())
        emb.grow(0, rng())
        assert emb.num_embeddings == 5


class TestAttention:
    def test_output_shape(self):
        attn = nn.MultiHeadSelfAttention(8, 2, rng())
        out = attn(Tensor(np.random.default_rng(0).normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_weights_are_distributions(self):
        attn = nn.MultiHeadSelfAttention(8, 2, rng())
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 8)))
        _, weights = attn(x, return_weights=True)
        assert weights.shape == (2, 2, 5, 5)
        assert np.allclose(weights.data.sum(axis=-1), 1.0)

    def test_mask_blocks_padding(self):
        attn = nn.MultiHeadSelfAttention(8, 2, rng())
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 8)))
        mask = np.array([[1, 1, 0, 0]])
        _, weights = attn(x, attention_mask=mask, return_weights=True)
        assert np.allclose(weights.data[..., 2:], 0.0, atol=1e-8)

    def test_indivisible_heads_raises(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(7, 2, rng())

    def test_gradients_flow_to_all_projections(self):
        attn = nn.MultiHeadSelfAttention(4, 2, rng())
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4)))
        attn(x).sum().backward()
        for name, param in attn.named_parameters():
            assert param.grad is not None, name


class TestTransformer:
    def test_encoder_shape(self):
        enc = nn.TransformerEncoder(2, 8, 2, 16, rng())
        out = enc(Tensor(np.random.default_rng(0).normal(size=(3, 6, 8))))
        assert out.shape == (3, 6, 8)

    def test_return_all_layers(self):
        enc = nn.TransformerEncoder(3, 8, 2, 16, rng())
        out, layers = enc(Tensor(np.zeros((1, 4, 8))), return_all_layers=True)
        assert len(layers) == 3
        assert layers[-1] is out

    def test_padding_invariance(self):
        """Valid positions should be unaffected by what sits in padding."""
        enc = nn.TransformerEncoder(1, 8, 2, 16, rng()).eval()
        rng0 = np.random.default_rng(0)
        x = rng0.normal(size=(1, 5, 8))
        mask = np.array([[1, 1, 1, 0, 0]])
        out1 = enc(Tensor(x), attention_mask=mask).data
        x2 = x.copy()
        x2[0, 3:] = rng0.normal(size=(2, 8))
        out2 = enc(Tensor(x2), attention_mask=mask).data
        assert np.allclose(out1[0, :3], out2[0, :3])

    def test_gradients_reach_first_layer(self):
        enc = nn.TransformerEncoder(2, 8, 2, 16, rng())
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 8)))
        enc(x).sum().backward()
        first = enc.layers[0]
        assert first.attention.query.weight.grad is not None


class TestSequential:
    def test_chained_forward(self):
        model = nn.Sequential(nn.Linear(4, 8, rng()), nn.ReLU(),
                              nn.Linear(8, 2, rng()))
        out = model(Tensor(np.zeros((3, 4))))
        assert out.shape == (3, 2)
        assert len(model) == 3

    def test_indexing(self):
        inner = nn.Linear(4, 4, rng())
        model = nn.Sequential(inner)
        assert model[0] is inner
