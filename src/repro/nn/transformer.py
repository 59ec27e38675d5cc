"""Transformer encoder blocks (post-norm, as in the original BERT)."""

from __future__ import annotations

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module, ModuleList
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class TransformerEncoderLayer(Module):
    """One encoder block: self-attention + FFN, each with residual + LayerNorm.

    ``queries=n`` returns the block's output for the first ``n`` positions
    only, ``(B, n, D)``: attention reads keys and values from every
    position, while the attention, FFN and both LayerNorms work on ``n``
    rows instead of ``T``.
    """

    def __init__(self, d_model: int, num_heads: int, d_ff: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.attention = MultiHeadSelfAttention(d_model, num_heads, rng,
                                                dropout=dropout)
        self.attention_norm = LayerNorm(d_model)
        self.ffn_in = Linear(d_model, d_ff, rng)
        self.ffn_out = Linear(d_ff, d_model, rng)
        self.ffn_norm = LayerNorm(d_model)
        self.dropout = Dropout(dropout, rng)

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None,
                mask_bias: np.ndarray | None = None,
                queries: int | None = None) -> Tensor:
        attended = self.attention(x, attention_mask=attention_mask,
                                  mask_bias=mask_bias, queries=queries)
        if queries is not None:
            x = x[:, :queries]
        x = self.attention_norm(x + self.dropout(attended))
        hidden = self.ffn_out(F.gelu(self.ffn_in(x)))
        return self.ffn_norm(x + self.dropout(hidden))


class TransformerEncoder(Module):
    """Stack of :class:`TransformerEncoderLayer`.

    ``forward`` returns the final hidden states ``(B, T, D)``; pass
    ``return_all_layers=True`` to also receive every intermediate layer (the
    NDec numeric decoder consumes multi-layer interactions, Sec. IV-B1).
    ``cls_only=True`` runs the last layer for position 0 only, so the final
    hidden states are ``(B, 1, D)``.
    """

    def __init__(self, num_layers: int, d_model: int, num_heads: int,
                 d_ff: int, rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.layers = ModuleList([
            TransformerEncoderLayer(d_model, num_heads, d_ff, rng, dropout=dropout)
            for _ in range(num_layers)
        ])

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None,
                return_all_layers: bool = False, cls_only: bool = False):
        # Build the additive attention bias once for the whole stack rather
        # than once per layer.
        mask_bias = (F.attention_scores_mask(attention_mask, dtype=x.dtype)
                     if attention_mask is not None else None)
        all_layers = []
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            queries = 1 if cls_only and index == last else None
            x = layer(x, mask_bias=mask_bias, queries=queries)
            if return_all_layers:
                all_layers.append(x)
        if return_all_layers:
            return x, all_layers
        return x
