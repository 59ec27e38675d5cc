"""Thin RCA serving adapter: train once, rank root causes online.

The experiment harness (:mod:`repro.tasks.rca.experiment`) exists to fill
Table IV — 5-fold CV, metrics over held-out folds.  A *serving* deployment
wants the opposite shape: fit one scorer on every labelled state, then
answer ``rank_root_causes`` requests for new states with a single forward
pass.  :class:`RcaAdapter` is that shape, consumed by
:class:`repro.serving.FaultAnalysisService`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.optim import Adam
from repro.tasks.rca.data import RcaDataset, RcaState
from repro.tasks.rca.model import RcaModel
from repro.tasks.retrieval import RetrievalCandidateMixin
from repro.tensor import no_grad


def state_for_inference(node_names: list[str], adjacency: np.ndarray,
                        features: np.ndarray) -> RcaState:
    """Build an :class:`RcaState` for an *unlabelled* online request.

    ``RcaState`` carries a ground-truth ``root_index`` for training; at
    inference time there is none, so a placeholder of 0 is stored and
    never read by :meth:`RcaAdapter.rank`.
    """
    return RcaState(node_names=node_names,
                    adjacency=np.asarray(adjacency, dtype=float),
                    features=np.asarray(features, dtype=float),
                    root_index=0)


class RcaAdapter(RetrievalCandidateMixin):
    """Fit a GCN root-cause scorer on all labelled states, serve rankings.

    With a retriever attached (:meth:`attach_retriever`),
    :meth:`candidate_events` proposes catalog events near an arbitrary
    query surface — the hook callers use to assemble an inference state
    when the alarm set is not handed to them.
    """

    def __init__(self, dataset: RcaDataset, seed: int = 0, epochs: int = 8,
                 learning_rate: float = 5e-3):
        self.dataset = dataset
        self.seed = seed
        self.epochs = epochs
        self.learning_rate = learning_rate
        self._model: RcaModel | None = None
        self._embeddings: np.ndarray | None = None

    @property
    def event_names(self) -> list[str]:
        """Names the façade must embed before :meth:`fit`."""
        return self.dataset.event_names

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._model is not None

    def fit(self, event_embeddings: np.ndarray) -> "RcaAdapter":
        """Train the scorer on every labelled state; returns ``self``."""
        embeddings = _unit_rows(event_embeddings)
        rng = np.random.default_rng(self.seed + 100)
        model = RcaModel(embeddings.shape[1], rng)
        optimizer = Adam(model.parameters(), lr=self.learning_rate)
        for _ in range(self.epochs):
            for index in rng.permutation(len(self.dataset.states)):
                state = self.dataset.states[index]
                optimizer.zero_grad()
                loss = model.loss(state, embeddings)
                loss.backward()
                optimizer.step()
        self._model = model
        self._embeddings = embeddings
        self._keep_fitted_vectors(self.event_names, event_embeddings)
        return self

    def rank(self, state: RcaState) -> list[tuple[str, float]]:
        """Nodes of ``state`` sorted by root-cause score, best first."""
        if self._model is None:
            raise RuntimeError("RcaAdapter.fit has not been called")
        with no_grad():
            scores = self._model(state, self._embeddings).data
        order = np.argsort(-scores)
        return [(state.node_names[i], float(scores[i])) for i in order]


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalise provider embeddings (levels scale across providers)."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)
