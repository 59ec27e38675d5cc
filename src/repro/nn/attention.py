"""Multi-head self-attention (Vaswani et al.) for the BERT-style encoders."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads.

    Input/output shape is ``(batch, seq, d_model)``.  ``attention_mask`` is a
    ``(batch, seq)`` 0/1 validity mask; masked (0) key positions receive a
    large negative bias before the softmax.  Callers that already hold the
    additive ``(batch, 1, 1, seq)`` bias (the encoder stack builds it once
    per forward) can pass it via ``mask_bias`` instead.

    ``return_weights=True`` returns the *pre-dropout* attention
    distributions — rows always sum to one, which is what the Fig. 10
    numeric-attention visualisations plot.

    ``queries=n`` computes the output for the first ``n`` positions only,
    shape ``(batch, n, d_model)``; keys and values still come from every
    position.  The encoder's ``[CLS]``-only last layer uses ``queries=1``.
    """

    def __init__(self, d_model: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.query = Linear(d_model, d_model, rng)
        self.key = Linear(d_model, d_model, rng)
        self.value = Linear(d_model, d_model, rng)
        self.output = Linear(d_model, d_model, rng)
        self.dropout = Dropout(dropout, rng)
        # Scratch buffers for the fused attention-weight op, keyed by
        # score shape; holds no graph-captured arrays, so reuse across
        # (even concurrent) forwards is safe.
        self._workspace: dict = {}

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None,
                mask_bias: np.ndarray | None = None,
                return_weights: bool = False, queries: int | None = None):
        q_in = x if queries is None else x[:, :queries]
        q = F.split_heads(self.query(q_in), self.num_heads)
        k = F.split_heads(self.key(x), self.num_heads)
        v = F.split_heads(self.value(x), self.num_heads)

        if mask_bias is None and attention_mask is not None:
            mask_bias = F.attention_scores_mask(attention_mask,
                                                dtype=q.dtype)
        weights = F.attention_weights(
            q, k, 1.0 / math.sqrt(self.head_dim), mask_bias=mask_bias,
            workspace=self._workspace)
        dropped = self.dropout(weights)

        out = self.output(F.merge_heads(dropped @ v))
        if return_weights:
            return out, weights
        return out
