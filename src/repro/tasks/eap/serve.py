"""EAP adapter: the only code that trains the trigger classifier.

:class:`EapAdapter` fits the pairwise trigger classifier on labelled
pairs and answers "does event *i* trigger event *j*?" with a softmax
confidence per pair.  The serving façade
(:class:`repro.serving.FaultAnalysisService`) fits it once on every
labelled pair for ``propagate_alarms``; the Table VI harness
(:mod:`repro.tasks.eap.experiment`) fits one per fold and scores the
held-out pairs with :meth:`EapAdapter.predict`, so the table measures the
served head.
"""

from __future__ import annotations

import numpy as np

from repro.nn.optim import Adam
from repro.tasks.eap.data import EapDataset, EventPair
from repro.tasks.eap.model import EapModel
from repro.tensor import no_grad

#: Mini-batch size, Adam learning rate and width of the learnable NE
#: embeddings of the classifier.
BATCH_SIZE = 32
LEARNING_RATE = 0.01
NODE_DIM = 8


class EapAdapter:
    """Trains the trigger classifier and scores candidate pairs with it.

    ``seed`` fixes the classifier's initialisation and the batch order;
    ``epochs`` is the number of passes over the training pairs.
    """

    def __init__(self, dataset: EapDataset, seed: int = 0, epochs: int = 6):
        self.dataset = dataset
        self.seed = seed
        self.epochs = epochs
        self._model: EapModel | None = None
        self._lookup: dict[str, np.ndarray] = {}
        self._nodes: frozenset[str] = frozenset()

    @property
    def event_names(self) -> list[str]:
        """Distinct literal names the façade must embed before :meth:`fit`."""
        return self.dataset.event_names

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._model is not None

    def fit(self, name_embeddings: np.ndarray,
            train: np.ndarray | None = None) -> "EapAdapter":
        """Train on the pairs indexed by ``train`` (default: every
        labelled pair); returns ``self``.

        ``name_embeddings`` aligns with :attr:`event_names`; its rows are
        normalised to unit length, which levels the feature scale across
        providers.
        """
        vectors = name_embeddings / np.maximum(
            np.linalg.norm(name_embeddings, axis=1, keepdims=True), 1e-12)
        self._lookup = {n: vectors[i] for i, n in enumerate(self.event_names)}
        pairs = self.dataset.pairs
        if train is None:
            train = np.arange(len(pairs))
        text_i = np.stack([self._lookup[p.name_i] for p in pairs])
        text_j = np.stack([self._lookup[p.name_j] for p in pairs])
        rng = np.random.default_rng(self.seed + 300)
        model = EapModel(self.dataset, text_i.shape[1], rng,
                         node_dim=NODE_DIM)
        optimizer = Adam(model.parameters(), lr=LEARNING_RATE)
        for _ in range(self.epochs):
            order = rng.permutation(train)
            for start in range(0, len(order), BATCH_SIZE):
                index = order[start:start + BATCH_SIZE]
                batch = [pairs[i] for i in index]
                optimizer.zero_grad()
                loss = model.loss(batch, text_i[index], text_j[index])
                loss.backward()
                optimizer.step()
        self._model = model
        self._nodes = frozenset(self.dataset.node_names)
        return self

    def knows(self, name: str) -> bool:
        """Whether ``name`` is an event name the adapter was fitted on."""
        return name in self._lookup

    def knows_node(self, node: str) -> bool:
        """Whether ``node`` is a network element of the fitted topology."""
        return node in self._nodes

    def predict(self, pairs: list[EventPair]) -> list[dict]:
        """Per-pair verdicts: ``{"triggers": bool, "confidence": float}``.

        Pairs must reference names and network elements seen at fit time
        (the adapter serves the closed event catalog; an unknown name
        raises ``KeyError``).  No pairs get no verdicts.
        """
        if self._model is None:
            raise RuntimeError("EapAdapter.fit has not been called")
        if not pairs:
            return []
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
