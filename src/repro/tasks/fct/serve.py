"""FCT adapter: the only code that trains the fault-chain GTransE.

:class:`FctAdapter` fits the uncertain-KG model on propagation hops,
entities initialised from the provider's service embeddings as in
Sec. V-D3, and answers "given this alarm, which alarms does the fault
propagate to next?" by scoring ``(alarm, r, *)`` over the alarm catalog
and every relation.  The serving façade
(:class:`repro.serving.FaultAnalysisService`) fits it once on every
observed hop for ``classify_fault``; the Table VIII harness
(:mod:`repro.tasks.fct.experiment`) fits it on the training graph and
ranks the masked hops with :attr:`FctAdapter.model`, so the table
measures the served model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kge.gtranse import GTransE, UncertainTriple
from repro.kge.trainer import KgeTrainer
from repro.tasks.fct.data import FctDataset

#: Mini-batch size of the GTransE trainer.
BATCH_SIZE = 32
# Learning rate 0.02: higher rates wash out the provider initialisation
# (measured: at 0.05 the KTeleBERT advantage over Random disappears;
# the paper's dim-2000 setting is likewise init-dominated).
LEARNING_RATE = 0.02
#: GTransE margin and confidence weight (Eq. 24), and the corrupted
#: facts drawn per positive.
MARGIN = 2.0
ALPHA = 1.0
NEGATIVES_PER_POSITIVE = 4


class FctAdapter:
    """Trains GTransE on the alarm-propagation graph, ranks next hops.

    ``seed`` fixes the entity initialisation draws, the negative
    sampling and the batch order; ``epochs`` is the number of passes
    over the training facts.
    """

    def __init__(self, dataset: FctDataset, seed: int = 0, epochs: int = 30):
        if not dataset.quadruples:
            raise ValueError("FCT dataset has no training facts")
        self.dataset = dataset
        self.seed = seed
        self.epochs = epochs
        #: the fitted GTransE, ``None`` before :meth:`fit`
        self.model: GTransE | None = None
        #: the :class:`~repro.index.VectorIndex` candidates come from
        self.index = None
        self._fitted_vectors: dict[str, np.ndarray] = {}
        self._entity_index = {name: i
                              for i, name in enumerate(dataset.entity_names)}

    @property
    def event_names(self) -> list[str]:
        """Alarm surfaces the façade must embed before :meth:`fit`."""
        return self.dataset.entity_names

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self.model is not None

    def attach_index(self, index) -> None:
        """Draw :meth:`trace`'s candidate tails from ``index``."""
        self.index = index

    def fit(self, entity_embeddings: np.ndarray,
            facts: list[UncertainTriple] | None = None,
            valid: Sequence[tuple[int, int, int]] = (),
            known: set | None = None) -> "FctAdapter":
        """Train on ``facts`` with provider-initialised entities; returns
        ``self``.

        ``entity_embeddings`` aligns with :attr:`event_names`; its rows
        are scaled to the unit ball expected by TransE.  ``facts``
        defaults to every observed hop: the training graph plus the
        masked valid/test hops, restored with full confidence (no
        hop-count evidence).  With ``valid`` triples, the weights kept are
        those of the checkpoint with the best filtered tail MRR on them,
        filtered by ``known``.
        """
        rng = np.random.default_rng(self.seed + 700)
        norms = np.linalg.norm(entity_embeddings, axis=1, keepdims=True)
        entity_init = entity_embeddings / np.maximum(norms, 1e-9)
        model = GTransE(self.dataset.num_entities,
                        self.dataset.num_relations,
                        dim=entity_init.shape[1], rng=rng,
                        margin=MARGIN, alpha=ALPHA,
                        entity_init=entity_init)
        if facts is None:
            facts = self.dataset.quadruples + [
                UncertainTriple(head=h, relation=r, tail=t, confidence=1.0)
                for h, r, t in self.dataset.valid + self.dataset.test]
        trainer = KgeTrainer(
            model, facts, self.dataset.num_entities, rng=rng,
            learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
            margin=MARGIN, negatives_per_positive=NEGATIVES_PER_POSITIVE)
        trainer.fit(self.epochs, valid_triples=valid, known=known)
        self.model = model
        self._fitted_vectors = dict(zip(self.event_names, entity_embeddings))
        return self

    def knows(self, name: str) -> bool:
        """Whether ``name`` is a catalog alarm the adapter was fitted on."""
        return name in self._fitted_vectors

    def trace(self, alarm_name: str, top_k: int = 5,
              candidates: list[str] | None = None) -> list[dict]:
        """Most plausible next-hop alarms for ``alarm_name``.

        Scores (relation, tail) completions and keeps each tail's best
        relation; returns up to ``top_k`` entries of the form ``{"alarm",
        "relation", "score"}`` with higher score = more plausible (the
        negated TransE distance).

        ``candidates`` restricts the tails considered; names outside the
        catalog, and the alarm itself, are dropped.  When omitted and an
        index is attached (:meth:`attach_index`), candidates are the
        index's nearest neighbours of the vector the alarm was fitted on,
        so no encoder call; otherwise, or when no candidate is left,
        every catalog alarm is scored.
        """
        if self.model is None:
            raise RuntimeError("FctAdapter.fit has not been called")
        head = self._entity_index.get(alarm_name)
        if head is None:
            raise KeyError(f"unknown alarm: {alarm_name!r}")
        if candidates is None and self.index is not None:
            query = self._fitted_vectors[alarm_name][None, :]
            [hits] = self.index.query(query, k=max(4 * top_k, 16))
            candidates = [name for name, _ in hits]
        allowed: set[int] | None = None
        if candidates:
            allowed = {self._entity_index[name] for name in candidates
                       if name in self._entity_index}
            allowed.discard(head)
            if not allowed:  # nothing retrievable — full scan, not empty
                allowed = None
        best: dict[int, tuple[float, int]] = {}
        for relation in range(self.dataset.num_relations):
            distances = self.model.score_all_tails(head, relation)
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
