"""Graph attention layer (Veličković et al.) — RCA architecture ablation.

The paper's RCA model uses GCN (Eq. 14); GAT is the canonical attention-based
alternative, implemented here so the ablation bench can ask whether the
aggregation scheme matters at this scale.  Single-head additive attention on
the adjacency (with self-loops), matching the GCN layer's interface so
:class:`RcaModel`-style stacks can swap layers.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.tasks.rca.model import RcaModel, root_logistic_loss
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class GraphAttentionLayer(Module):
    """One GAT layer: ``h'_i = σ( Σ_j α_ij W h_j )`` over graph neighbours."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 activation: bool = True, leaky_slope: float = 0.2):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng, bias=False)
        self.attn_source = Parameter(rng.normal(0, 0.1, size=(out_dim, 1)))
        self.attn_target = Parameter(rng.normal(0, 0.1, size=(out_dim, 1)))
        self.activation = activation
        self.leaky_slope = leaky_slope

    def _leaky_relu(self, x: Tensor) -> Tensor:
        positive = x.relu()
        negative = (-((-x).relu())) * self.leaky_slope
        return positive + negative

    def forward(self, hidden: Tensor, adjacency: np.ndarray) -> Tensor:
        """``hidden`` is (V, in_dim); ``adjacency`` a 0/1 matrix (V, V)."""
        adjacency = np.asarray(adjacency)
        num_nodes = adjacency.shape[0]
        transformed = self.linear(hidden)                       # (V, D)
        source_score = transformed @ self.attn_source            # (V, 1)
        target_score = transformed @ self.attn_target            # (V, 1)
        # e_ij = leaky_relu(a_s·Wh_i + a_t·Wh_j), masked to edges + self.
        scores = self._leaky_relu(source_score + target_score.transpose())
        mask = adjacency + np.eye(num_nodes)
        bias = np.where(mask > 0, 0.0, -1e9)
        attention = F.softmax(scores + Tensor(bias), axis=-1)    # (V, V)
        out = attention @ transformed
        return out.relu() if self.activation else out


class GatRcaModel(Module):
    """RCA scorer with GAT aggregation (drop-in ablation for RcaModel)."""

    def __init__(self, feature_dim: int, rng: np.random.Generator,
                 hidden: int = 32, out: int = 16, mlp_hidden: int = 8):
        super().__init__()
        self.gat1 = GraphAttentionLayer(feature_dim, hidden, rng)
        self.gat2 = GraphAttentionLayer(hidden, out, rng)
        self.mlp_in = Linear(out, mlp_hidden, rng)
        self.mlp_out = Linear(mlp_hidden, 1, rng)

    def forward(self, state, event_embeddings: np.ndarray) -> Tensor:
        h0 = Tensor(RcaModel.node_initialisation(state, event_embeddings))
        h1 = self.gat1(h0, state.adjacency)
        h2 = self.gat2(h1, state.adjacency)
        scores = self.mlp_out(self.mlp_in(h2).relu())
        return scores.reshape(state.num_nodes)

    def loss(self, state, event_embeddings: np.ndarray) -> Tensor:
        """Eq. 16 over this model's scores (:func:`root_logistic_loss`)."""
        return root_logistic_loss(self(state, event_embeddings), state)
