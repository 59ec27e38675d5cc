"""BERT-style encoder backbone with an MLM head.

This is the architecture shared by the MacBERT stand-in, TeleBERT, and
KTeleBERT (the paper keeps MacBERT's architecture and re-trains weights).
The encoder supports *embedding overrides*: external embeddings (the ANEnc
output) can replace the token embedding at chosen positions — how KTeleBERT
injects numeric embeddings at the ``[NUM]`` slots (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module
from repro.nn.transformer import TransformerEncoder
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, is_inference_mode


@dataclass
class BertConfig:
    """Hyper-parameters of the encoder.

    The defaults are the scaled-down geometry used throughout this
    reproduction (the paper uses MacBERT-base: 12 layers, d=768).
    """

    vocab_size: int
    d_model: int = 32
    num_layers: int = 2
    num_heads: int = 2
    d_ff: int = 64
    max_len: int = 48
    dropout: float = 0.1

    def __post_init__(self):
        if self.vocab_size < 6:
            raise ValueError("vocab_size must cover the core special tokens")
        if self.d_model % self.num_heads:
            raise ValueError("d_model must be divisible by num_heads")


class BertEncoder(Module):
    """Token + position embeddings -> transformer stack."""

    def __init__(self, config: BertConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng)
        self.position_embedding = Embedding(config.max_len, config.d_model, rng)
        self.embedding_norm = LayerNorm(config.d_model)
        self.embedding_dropout = Dropout(config.dropout, rng)
        self.encoder = TransformerEncoder(
            config.num_layers, config.d_model, config.num_heads,
            config.d_ff, rng, dropout=config.dropout)

    # ------------------------------------------------------------------
    def embed(self, ids: np.ndarray,
              embedding_overrides: tuple[np.ndarray, Tensor] | None = None) -> Tensor:
        """Compute input embeddings, optionally overriding marked positions.

        ``embedding_overrides`` is ``(positions, vectors)`` where ``positions``
        is an (M, 2) array of (row, column) indices into the batch and
        ``vectors`` is an (M, d) Tensor whose rows replace the token
        embeddings there (position embeddings still apply).
        """
        ids = np.asarray(ids)
        seq = ids.shape[1]
        if seq > self.config.max_len:
            raise ValueError(
                f"sequence length {seq} exceeds max_len {self.config.max_len}")
        # One fused gather+scatter node instead of the former five-op
        # keep-mask composition (see functional.fused_embedding).
        embedded = F.fused_embedding(
            self.token_embedding.weight, self.position_embedding.weight,
            ids, overrides=embedding_overrides)
        return self.embedding_dropout(self.embedding_norm(embedded))

    def forward(self, ids: np.ndarray, attention_mask: np.ndarray | None = None,
                embedding_overrides: tuple[np.ndarray, Tensor] | None = None,
                return_all_layers: bool = False):
        """Encode a padded id batch to hidden states (B, T, D)."""
        embedded = self.embed(ids, embedding_overrides=embedding_overrides)
        return self.encoder(embedded, attention_mask=attention_mask,
                            return_all_layers=return_all_layers)

    def cls_embeddings(self, ids: np.ndarray,
                       attention_mask: np.ndarray | None = None,
                       embedding_overrides=None) -> Tensor:
        """The ``[CLS]`` (position 0) output embeddings — the service vectors.

        Under :func:`~repro.tensor.inference_mode` the last layer runs for
        the ``[CLS]`` row only (keys and values still span every position).
        Training keeps the full forward: with dropout on, computing fewer
        rows would change the dropout draws and so the trained model.
        """
        embedded = self.embed(ids, embedding_overrides=embedding_overrides)
        hidden = self.encoder(embedded, attention_mask=attention_mask,
                              cls_only=is_inference_mode())
        return hidden[:, 0, :]


class MlmHead(Module):
    """Masked-language-model prediction head (transform + vocab projection)."""

    def __init__(self, config: BertConfig, rng: np.random.Generator):
        super().__init__()
        self.transform = Linear(config.d_model, config.d_model, rng)
        self.norm = LayerNorm(config.d_model)
        self.decoder = Linear(config.d_model, config.vocab_size, rng)

    def forward(self, hidden: Tensor) -> Tensor:
        return self.decoder(self.norm(F.gelu(self.transform(hidden))))


class BertForMaskedLM(Module):
    """Encoder + MLM head with the standard masked cross-entropy loss."""

    IGNORE_INDEX = -100

    def __init__(self, config: BertConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.bert = BertEncoder(config, rng)
        self.mlm_head = MlmHead(config, rng)

    def forward(self, ids: np.ndarray,
                attention_mask: np.ndarray | None = None,
                embedding_overrides=None) -> Tensor:
        hidden = self.bert(ids, attention_mask=attention_mask,
                           embedding_overrides=embedding_overrides)
        return self.mlm_head(hidden)

    def mlm_loss(self, ids: np.ndarray, labels: np.ndarray,
                 attention_mask: np.ndarray | None = None,
                 embedding_overrides=None) -> Tensor:
        """Cross-entropy over positions where ``labels != IGNORE_INDEX``."""
        logits = self(ids, attention_mask=attention_mask,
                      embedding_overrides=embedding_overrides)
        return F.cross_entropy(logits, labels, ignore_index=self.IGNORE_INDEX)

    def grow_vocab(self, extra_tokens: int, rng: np.random.Generator) -> None:
        """Extend the vocabulary (Sec. IV-A3: new special-token embeddings).

        Grows both the token-embedding table and the MLM decoder output.
        """
        if extra_tokens <= 0:
            return
        self.bert.token_embedding.grow(extra_tokens, rng)
        old_w = self.mlm_head.decoder.weight.data
        old_b = self.mlm_head.decoder.bias.data
        extra_w = rng.normal(0.0, 0.02, size=(old_w.shape[0], extra_tokens))
        self.mlm_head.decoder.weight.data = np.concatenate([old_w, extra_w], axis=1)
        self.mlm_head.decoder.weight.grad = None
        self.mlm_head.decoder.bias.data = np.concatenate(
            [old_b, np.zeros(extra_tokens)])
        self.mlm_head.decoder.bias.grad = None
        self.config.vocab_size += extra_tokens
