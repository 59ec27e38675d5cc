"""EAP model (Fig. 8, Eqs. 17–21).

``s_ij = W₂ [E_i; E_j; n_i; n_j; d_ij]`` where ``E`` are fixed PLM service
embeddings of the literal names, ``n`` are learnable NE embeddings pooled
over one-hop topology neighbourhoods (Eq. 18), and ``d_ij = W₁ (t_i − t_j)``
encodes the occurrence-time difference (Eq. 19).  Trained with the softmax
binary cross-entropy of Eq. 21.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module
from repro.tasks.eap.data import EapDataset, EventPair
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, concat


class EapModel(Module):
    """Pairwise trigger classifier over mixed text/topology/time features."""

    def __init__(self, dataset: EapDataset, text_dim: int,
                 rng: np.random.Generator, node_dim: int = 8,
                 time_dim: int = 2, time_scale: float = 100.0):
        super().__init__()
        self.node_index = {n: i for i, n in enumerate(dataset.node_names)}
        self.neighbor_lists = dataset.neighbor_lists
        self.node_embeddings = Embedding(len(dataset.node_names), node_dim,
                                         rng, scale=0.1)
        self.time_proj = Linear(1, time_dim, rng)          # W1 (Eq. 19)
        concat_dim = 2 * text_dim + 2 * node_dim + time_dim
        self.scorer = Linear(concat_dim, 2, rng)           # W2 (Eq. 20)
        self.time_scale = time_scale

    def _neighbourhood(self, nodes: list[str]) -> Tensor:
        """Eq. 18: mean of one-hop neighbour embeddings (incl. self)."""
        indices = []
        lengths = []
        for node in nodes:
            neighbours = self.neighbor_lists[node]
            indices.append([self.node_index[n] for n in neighbours])
            lengths.append(len(neighbours))
        max_len = max(lengths)
        padded = np.zeros((len(nodes), max_len), dtype=np.int64)
        mask = np.zeros((len(nodes), max_len))
        for row, idx in enumerate(indices):
            padded[row, :len(idx)] = idx
            mask[row, :len(idx)] = 1.0
        embedded = self.node_embeddings(padded)            # (B, L, d)
        return F.masked_mean(embedded, mask, axis=1)

    def forward(self, pairs: list[EventPair], text_i: np.ndarray,
                text_j: np.ndarray) -> Tensor:
        """Logits (B, 2) for a batch of pairs.

        ``text_i`` / ``text_j`` are the provider embeddings of the literal
        names, aligned with ``pairs``.
        """
        n_i = self._neighbourhood([p.node_i for p in pairs])
        n_j = self._neighbourhood([p.node_j for p in pairs])
        deltas = np.array([[(p.time_i - p.time_j) / self.time_scale]
                           for p in pairs])
        d_ij = self.time_proj(Tensor(deltas))
        features = concat([Tensor(text_i), Tensor(text_j), n_i, n_j, d_ij],
                          axis=1)
        return self.scorer(features)

    def loss(self, pairs: list[EventPair], text_i: np.ndarray,
             text_j: np.ndarray) -> Tensor:
        """Eq. 21: softmax binary cross-entropy."""
        logits = self(pairs, text_i, text_j)
        labels = np.array([p.label for p in pairs])
        return F.cross_entropy(logits, labels)
