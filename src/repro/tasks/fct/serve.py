"""Thin FCT serving adapter: train GTransE once, trace fault chains online.

Serving shape of fault chain tracing: fit the uncertain-KG model on every
observed propagation hop (entities initialised from the provider's service
embeddings, as in Sec. V-D3), then answer ``classify_fault`` requests —
"given this alarm, which alarms does the fault propagate to next?" — by
scoring ``(alarm, r, *)`` over the alarm catalog and every relation.
"""

from __future__ import annotations

import numpy as np

from repro.kge.gtranse import GTransE, UncertainTriple
from repro.kge.trainer import KgeTrainer
from repro.tasks.fct.data import FctDataset
from repro.tasks.retrieval import RetrievalCandidateMixin


class FctAdapter(RetrievalCandidateMixin):
    """Fit GTransE on the alarm-propagation graph, serve next-hop rankings."""

    def __init__(self, dataset: FctDataset, seed: int = 0, epochs: int = 30,
                 batch_size: int = 32, learning_rate: float = 0.02,
                 margin: float = 2.0, alpha: float = 1.0,
                 negatives_per_positive: int = 4):
        if not dataset.quadruples:
            raise ValueError("FCT dataset has no training facts")
        self.dataset = dataset
        self.seed = seed
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.margin = margin
        self.alpha = alpha
        self.negatives_per_positive = negatives_per_positive
        self._model: GTransE | None = None
        self._entity_index = {name: i
                              for i, name in enumerate(dataset.entity_names)}

    @property
    def event_names(self) -> list[str]:
        """Alarm surfaces the façade must embed before :meth:`fit`."""
        return self.dataset.entity_names

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._model is not None

    def fit(self, entity_embeddings: np.ndarray) -> "FctAdapter":
        """Train on every known hop with provider-initialised entities."""
        rng = np.random.default_rng(self.seed + 700)
        norms = np.linalg.norm(entity_embeddings, axis=1, keepdims=True)
        entity_init = entity_embeddings / np.maximum(norms, 1e-9)
        model = GTransE(self.dataset.num_entities,
                        self.dataset.num_relations,
                        dim=entity_init.shape[1], rng=rng,
                        margin=self.margin, alpha=self.alpha,
                        entity_init=entity_init)
        # Serving fits on *all* facts: the masked-hop hold-out protocol
        # belongs to the evaluation harness, not the service.  Training
        # hops already live in ``quadruples``; only the masked valid/test
        # hops need restoring (no hop-count evidence → full confidence).
        facts = self.dataset.quadruples + [
            UncertainTriple(head=h, relation=r, tail=t, confidence=1.0)
            for h, r, t in self.dataset.valid + self.dataset.test]
        trainer = KgeTrainer(
            model, facts, self.dataset.num_entities, rng=rng,
            learning_rate=self.learning_rate, batch_size=self.batch_size,
            margin=self.margin,
            negatives_per_positive=self.negatives_per_positive)
        trainer.fit(self.epochs)
        self._model = model
        self._keep_fitted_vectors(self.event_names, entity_embeddings)
        return self

    def trace(self, alarm_name: str, top_k: int = 5,
              candidates: list[str] | None = None) -> list[dict]:
        """Most plausible next-hop alarms for ``alarm_name``.

        Scores (relation, tail) completions and keeps each tail's best
        relation; returns up to ``top_k`` entries of the form ``{"alarm",
        "relation", "score"}`` with higher score = more plausible (the
        negated TransE distance).

        ``candidates`` restricts the tails considered.  When omitted and
        a retriever is attached (:meth:`attach_retriever`), candidates
        come from the ANN index (the catalog neighbours of the vector the
        alarm was fitted on, so no encoder call); otherwise every catalog
        alarm is scored.
        """
        if self._model is None:
            raise RuntimeError("FctAdapter.fit has not been called")
        head = self._entity_index.get(alarm_name)
        if head is None:
            raise KeyError(f"unknown alarm: {alarm_name!r}")
        if candidates is None and self.retriever is not None:
            candidates = self.candidate_events(alarm_name,
                                               k=max(4 * top_k, 16))
        allowed: set[int] | None = None
        if candidates:
            allowed = {self._entity_index[name] for name in candidates
                       if name in self._entity_index}
            allowed.discard(head)
            if not allowed:  # nothing retrievable — full scan, not empty
                allowed = None
        best: dict[int, tuple[float, int]] = {}
        for relation in range(self.dataset.num_relations):
            distances = self._model.score_all_tails(head, relation)
            for tail, distance in enumerate(distances):
                if tail == head:
                    continue
                if allowed is not None and tail not in allowed:
                    continue
                score = -float(distance)
                if tail not in best or score > best[tail][0]:
                    best[tail] = (score, relation)
        ranked = sorted(best.items(), key=lambda item: -item[1][0])[:top_k]
        return [{"alarm": self.dataset.entity_names[tail],
                 "relation": self.dataset.relation_names[relation],
                 "score": score}
                for tail, (score, relation) in ranked]
