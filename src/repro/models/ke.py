"""Text-enhanced knowledge-embedding objective (Sec. IV-D, Eqs. 10–11).

Following KEPLER, entities and relations are wrapped into prompt sentences and
encoded by the language model itself; the TransE distance
``d_r(h, t) = ||e_h + e_r − e_t||`` scores triples, trained with the
margin-sigmoid negative-sampling loss of Eq. 10 (negatives corrupt the head
with the tail fixed, and vice versa).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


def transe_distance(head: Tensor, relation: Tensor, tail: Tensor) -> Tensor:
    """``||e_h + e_r − e_t||₂`` row-wise (Eq. 11)."""
    diff = head + relation - tail
    return F.l2_norm(diff, axis=-1, eps=1e-12)


class KnowledgeEmbeddingObjective:
    """Computes ``L_ke`` from already-encoded embeddings.

    Parameters
    ----------
    gamma:
        Margin γ (the paper uses 1.0).
    adversarial_temperature:
        When > 0, negative samples are weighted by the softmax of their
        scores (RotatE-style self-adversarial weighting); 0 gives the uniform
        ``p = 1/n`` weighting.
    """

    def __init__(self, gamma: float = 1.0,
                 adversarial_temperature: float = 0.0):
        self.gamma = gamma
        self.adversarial_temperature = adversarial_temperature

    def loss(self, head: Tensor, relation: Tensor, tail: Tensor,
             neg_heads: Tensor, neg_relations: Tensor,
             neg_tails: Tensor) -> Tensor:
        """Eq. 10 for one batch.

        Positive embeddings are (B, d); negative embeddings are (B, n, d)
        with ``n`` corruptions per positive.
        """
        positive_distance = transe_distance(head, relation, tail)     # (B,)
        positive_term = -(F.sigmoid(
            Tensor(np.full(positive_distance.shape, self.gamma))
            - positive_distance) + 1e-12).log()

        negative_distance = transe_distance(neg_heads, neg_relations,
                                            neg_tails)                # (B, n)
        negative_scores = F.sigmoid(
            negative_distance - self.gamma)                           # (B, n)
        log_negative = -(negative_scores + 1e-12).log()
        if self.adversarial_temperature > 0:
            weights = F.softmax(
                Tensor(-negative_distance.data / self.adversarial_temperature),
                axis=-1)
            negative_term = (weights * log_negative).sum(axis=-1)
        else:
            negative_term = log_negative.mean(axis=-1)

        return (positive_term + negative_term).mean()
