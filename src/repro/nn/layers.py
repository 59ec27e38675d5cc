"""Basic layers: Linear, Embedding, LayerNorm, Dropout, Sequential."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


def _xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                    shape: tuple[int, ...]) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """Affine map ``y = x W + b`` over the last axis.

    Weights use Xavier-uniform initialisation; pass ``bias=False`` for a pure
    projection (used by the attention Q/K/V maps).
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _xavier_uniform(rng, in_features, out_features,
                            (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table of ``num_embeddings`` rows of size ``embedding_dim``."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator, scale: float = 0.02):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(num_embeddings, embedding_dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})")
        return self.weight.take_rows(indices)

    def grow(self, extra_rows: int, rng: np.random.Generator,
             scale: float = 0.02) -> None:
        """Append ``extra_rows`` freshly initialised rows.

        Used when tele special tokens are inserted into an already-trained
        vocabulary (Sec. IV-A3 of the paper: new learnable token embeddings
        are added for prompt and tele tokens).
        """
        if extra_rows <= 0:
            return
        new_rows = rng.normal(0.0, scale, size=(extra_rows, self.embedding_dim))
        self.weight.data = np.concatenate([self.weight.data, new_rows], axis=0)
        self.weight.grad = None
        self.num_embeddings += extra_rows


class LayerNorm(Module):
    """Layer normalisation over the last axis with learnable gain/offset."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout driven by an explicit generator for reproducibility."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.rng, training=self.training)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._seq: list[Module] = []
        for i, module in enumerate(modules):
            self._modules[str(i)] = module
            self._seq.append(module)

    def forward(self, x):
        for module in self._seq:
            x = module(x)
        return x

    def __len__(self):
        return len(self._seq)

    def __getitem__(self, index: int) -> Module:
        return self._seq[index]


class GELU(Module):
    """GELU activation as a module (for Sequential)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class ReLU(Module):
    """ReLU activation as a module (for Sequential)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Tanh activation as a module (for Sequential)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()
