"""EAP experiment harness: 5-fold CV, Accuracy/P/R/F1 (Table VI protocol)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation.classification import (
    ClassificationMetrics,
    classification_metrics,
)
from repro.evaluation.kfold import k_fold_splits
from repro.service.providers import EmbeddingProvider
from repro.tasks.eap.data import EapDataset
from repro.tasks.eap.serve import EapAdapter

#: Cross-validation folds of the Table VI protocol.
NUM_FOLDS = 5


@dataclass
class EapResult:
    """Averaged cross-validation result for one method."""

    label: str
    metrics: ClassificationMetrics

    def as_table_row(self) -> dict[str, float]:
        return {
            "Accuracy": 100.0 * self.metrics.accuracy,
            "Precision": 100.0 * self.metrics.precision,
            "Recall": 100.0 * self.metrics.recall,
            "F1-score": 100.0 * self.metrics.f1,
        }


class EapExperiment:
    """Runs the Table VI protocol for one embedding provider.

    Each fold fits an :class:`~repro.tasks.eap.EapAdapter` — the
    classifier the serving façade deploys — on the fold's training and
    validation pairs, and takes its verdict on every held-out pair.
    """

    def __init__(self, dataset: EapDataset, seed: int = 0, epochs: int = 8):
        self.dataset = dataset
        self.seed = seed
        self.epochs = epochs

    def run(self, provider: EmbeddingProvider) -> EapResult:
        """5-fold CV over pairs; metrics pooled over all test folds."""
        pairs = self.dataset.pairs
        # Encode every distinct literal name once.
        vectors = provider.encode_names(self.dataset.event_names)
        splits = k_fold_splits(len(pairs), NUM_FOLDS,
                               rng=np.random.default_rng(self.seed))
        predictions = np.zeros(len(pairs), dtype=int)
        evaluated = np.zeros(len(pairs), dtype=bool)
        for fold_number, split in enumerate(splits):
            adapter = EapAdapter(self.dataset, seed=self.seed + fold_number,
                                 epochs=self.epochs)
            adapter.fit(vectors,
                        train=np.concatenate([split.train, split.valid]))
            verdicts = adapter.predict([pairs[i] for i in split.test])
            predictions[split.test] = [v["triggers"] for v in verdicts]
            evaluated[split.test] = True

        labels = np.array([p.label for p in pairs])
        metrics = classification_metrics(predictions[evaluated],
                                         labels[evaluated])
        return EapResult(label=provider.label, metrics=metrics)
