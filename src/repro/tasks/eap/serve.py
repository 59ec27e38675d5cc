"""Thin EAP serving adapter: train once, score alarm-propagation pairs.

Mirrors :mod:`repro.tasks.rca.serve` for event association prediction —
fit the pairwise trigger classifier on every labelled pair, then answer
``propagate_alarms`` requests (does event *i* trigger event *j*?) with a
softmax confidence per queried pair.
"""

from __future__ import annotations

import numpy as np

from repro.nn.optim import Adam
from repro.tasks.eap.data import EapDataset, EventPair
from repro.tasks.eap.model import EapModel
from repro.tasks.retrieval import RetrievalCandidateMixin
from repro.tensor import no_grad


class EapAdapter(RetrievalCandidateMixin):
    """Fit the trigger classifier on all labelled pairs, serve predictions.

    With a retriever attached (:meth:`attach_retriever`),
    :meth:`candidate_events` proposes catalog events near a query surface
    — the hook callers use to build candidate pairs when the pair list is
    not handed to them.
    """

    def __init__(self, dataset: EapDataset, seed: int = 0, epochs: int = 6,
                 batch_size: int = 32, learning_rate: float = 0.01,
                 node_dim: int = 8):
        self.dataset = dataset
        self.seed = seed
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.node_dim = node_dim
        self._model: EapModel | None = None
        self._lookup: dict[str, np.ndarray] = {}

    @property
    def event_names(self) -> list[str]:
        """Distinct literal names the façade must embed before :meth:`fit`."""
        pairs = self.dataset.pairs
        return sorted({p.name_i for p in pairs} | {p.name_j for p in pairs})

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._model is not None

    def fit(self, name_embeddings: np.ndarray) -> "EapAdapter":
        """Train on every labelled pair; ``name_embeddings`` aligns with
        :attr:`event_names`.  Returns ``self``."""
        names = self.event_names
        vectors = name_embeddings / np.maximum(
            np.linalg.norm(name_embeddings, axis=1, keepdims=True), 1e-12)
        self._lookup = {n: vectors[i] for i, n in enumerate(names)}
        pairs = self.dataset.pairs
        text_i = np.stack([self._lookup[p.name_i] for p in pairs])
        text_j = np.stack([self._lookup[p.name_j] for p in pairs])
        rng = np.random.default_rng(self.seed + 300)
        model = EapModel(self.dataset, text_i.shape[1], rng,
                         node_dim=self.node_dim)
        optimizer = Adam(model.parameters(), lr=self.learning_rate)
        for _ in range(self.epochs):
            order = rng.permutation(len(pairs))
            for start in range(0, len(order), self.batch_size):
                index = order[start:start + self.batch_size]
                batch = [pairs[i] for i in index]
                optimizer.zero_grad()
                loss = model.loss(batch, text_i[index], text_j[index])
                loss.backward()
                optimizer.step()
        self._model = model
        self._keep_fitted_vectors(names, name_embeddings)
        return self

    def predict(self, pairs: list[EventPair]) -> list[dict]:
        """Per-pair verdicts: ``{"triggers": bool, "confidence": float}``.

        Pairs must reference names seen at fit time (the adapter serves
        the closed event catalog; unknown names raise ``KeyError``).
        """
        if self._model is None:
            raise RuntimeError("EapAdapter.fit has not been called")
        text_i = np.stack([self._lookup[p.name_i] for p in pairs])
        text_j = np.stack([self._lookup[p.name_j] for p in pairs])
        with no_grad():
            logits = self._model(pairs, text_i, text_j).data
        shifted = logits - logits.max(axis=1, keepdims=True)
        probabilities = np.exp(shifted)
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        return [{"triggers": bool(row.argmax() == 1),
                 "confidence": float(row[1])}
                for row in probabilities]
