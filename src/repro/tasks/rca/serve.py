"""RCA adapter: the only code that trains the root-cause scorer.

:class:`RcaAdapter` fits the GCN scorer on labelled states and scores
new ones.  The serving façade (:class:`repro.serving.FaultAnalysisService`)
fits it once on every labelled state and answers ``rank_root_causes``
with :meth:`RcaAdapter.rank`; the Table IV harness
(:mod:`repro.tasks.rca.experiment`) fits one per fold on that fold's
training states and scores the held-out ones with
:meth:`RcaAdapter.scores`, so the table measures the served head.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.ranking import rank_of
from repro.nn.optim import Adam
from repro.tasks.rca.data import RcaDataset, RcaState
from repro.tasks.rca.model import RcaModel
from repro.tensor import no_grad

#: Adam learning rate of the scorer.
LEARNING_RATE = 5e-3


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


class RcaAdapter:
    """Trains the GCN root-cause scorer and scores states with it.

    ``seed`` fixes the scorer's initialisation and the training order;
    ``epochs`` is the number of passes over the training states.
    """

    def __init__(self, dataset: RcaDataset, seed: int = 0, epochs: int = 8):
        self.dataset = dataset
        self.seed = seed
        self.epochs = epochs
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

    def fit(self, event_embeddings: np.ndarray,
            train: np.ndarray | None = None,
            valid: np.ndarray | None = None) -> "RcaAdapter":
        """Train the scorer on the states indexed by ``train`` (default:
        every labelled state); returns ``self``.

        ``event_embeddings`` aligns with :attr:`event_names`; its rows are
        normalised to unit length, which levels the feature scale across
        providers.  With ``valid``, the weights kept are those of the
        epoch with the lowest mean rank of the root over those states.
        """
        embeddings = _unit_rows(event_embeddings)
        states = self.dataset.states
        if train is None:
            train = np.arange(len(states))
        rng = np.random.default_rng(self.seed + 100)
        model = RcaModel(embeddings.shape[1], rng)
        optimizer = Adam(model.parameters(), lr=LEARNING_RATE)
        best_state = model.state_dict()
        best_valid = np.inf
        for _ in range(self.epochs):
            for index in rng.permutation(train):
                optimizer.zero_grad()
                loss = model.loss(states[index], embeddings)
                loss.backward()
                optimizer.step()
            if valid is not None:
                with no_grad():
                    valid_mr = np.mean([
                        rank_of(model(states[i], embeddings).data,
                                states[i].root_index, higher_is_better=True)
                        for i in valid])
                if valid_mr < best_valid:
                    best_valid = valid_mr
                    best_state = model.state_dict()
        if valid is not None:
            model.load_state_dict(best_state)
        self._model = model
        self._embeddings = embeddings
        return self

    def scores(self, state: RcaState) -> np.ndarray:
        """Root-cause score of every node of ``state``, higher = likelier."""
        if self._model is None:
            raise RuntimeError("RcaAdapter.fit has not been called")
        with no_grad():
            return self._model(state, self._embeddings).data

    def rank(self, state: RcaState) -> list[tuple[str, float]]:
        """Nodes of ``state`` sorted by root-cause score, best first."""
        scores = self.scores(state)
        order = np.argsort(-scores)
        return [(state.node_names[i], float(scores[i])) for i in order]


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalise provider embeddings (levels scale across providers)."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)
