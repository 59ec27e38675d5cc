"""RCA model: KTeleBERT node initialisation → GCN → MLP scorer (Fig. 7)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.tasks.rca.data import RcaState
from repro.tensor.tensor import Tensor, stack


def root_logistic_loss(scores: Tensor, state: RcaState) -> Tensor:
    """Eq. 16: ``Σ_j log(1 + exp(−y_j s_j))`` with y=+1 for the root.

    The one loss of both RCA heads (:class:`RcaModel` and the GAT
    ablation); ``scores`` is the head's (V,) node scores for ``state``.
    """
    y = -np.ones(state.num_nodes)
    y[state.root_index] = 1.0
    margins = scores * Tensor(-y)
    # log(1 + exp(m)) computed stably: max(m,0) + log(1+exp(-|m|))
    zeros = Tensor(np.zeros(state.num_nodes))
    positive_part = stack([margins, zeros], axis=0).max(axis=0)
    log_term = ((-(margins.abs())).exp() + 1.0).log()
    return (positive_part + log_term).sum()


class GcnLayer(Module):
    """One graph convolution: ``σ(D̃^{-1/2} Ã D̃^{-1/2} H Ω)`` (Eq. 14)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: bool = True):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng)
        self.activation = activation

    def forward(self, hidden: Tensor, normalized_adjacency: np.ndarray) -> Tensor:
        out = Tensor(normalized_adjacency) @ self.linear(hidden)
        return out.relu() if self.activation else out


class RcaModel(Module):
    """GCN stack + 2-layer MLP node scorer, trained with logistic loss (Eq. 16).

    Event representations come from a service-embedding provider and stay
    fixed; the GCN/MLP parameters are learned.
    """

    def __init__(self, feature_dim: int, rng: np.random.Generator,
                 gcn_hidden: int = 32, gcn_out: int = 16, mlp_hidden: int = 8):
        super().__init__()
        self.gcn1 = GcnLayer(feature_dim, gcn_hidden, rng)
        self.gcn2 = GcnLayer(gcn_hidden, gcn_out, rng)
        self.mlp_in = Linear(gcn_out, mlp_hidden, rng)
        self.mlp_out = Linear(mlp_hidden, 1, rng)

    @staticmethod
    def node_initialisation(state: RcaState,
                            event_embeddings: np.ndarray) -> np.ndarray:
        """Eq. 13: ``H_j = x_j E / Σ x_j`` (zero rows stay zero)."""
        totals = state.features.sum(axis=1, keepdims=True)
        safe = np.maximum(totals, 1.0)
        return (state.features @ event_embeddings) / safe

    def forward(self, state: RcaState,
                event_embeddings: np.ndarray) -> Tensor:
        """Score every node of one state; (V,) tensor, higher = more likely root."""
        h0 = Tensor(self.node_initialisation(state, event_embeddings))
        norm_adj = state.normalized_adjacency()
        h1 = self.gcn1(h0, norm_adj)
        h2 = self.gcn2(h1, norm_adj)
        scores = self.mlp_out(self.mlp_in(h2).relu())
        return scores.reshape(state.num_nodes)

    def loss(self, state: RcaState, event_embeddings: np.ndarray) -> Tensor:
        """Eq. 16 over this model's scores (:func:`root_logistic_loss`)."""
        return root_logistic_loss(self(state, event_embeddings), state)
