"""RCA experiment harness: 5-fold CV, MR / Hits@{1,3,5} (Table IV protocol)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation.kfold import k_fold_splits
from repro.evaluation.ranking import RankingMetrics, rank_of, ranking_metrics
from repro.service.providers import EmbeddingProvider
from repro.tasks.rca.data import RcaDataset
from repro.tasks.rca.serve import RcaAdapter

#: Cross-validation folds of the Table IV protocol.
NUM_FOLDS = 5


@dataclass
class RcaResult:
    """Averaged cross-validation result for one method."""

    label: str
    metrics: RankingMetrics

    def as_table_row(self) -> dict[str, float]:
        return {
            "MR": self.metrics.mean_rank,
            "Hits@1": 100.0 * self.metrics.hits[1],
            "Hits@3": 100.0 * self.metrics.hits[3],
            "Hits@5": 100.0 * self.metrics.hits[5],
        }


class RcaExperiment:
    """Runs the Table IV protocol for one embedding provider.

    Each fold fits an :class:`~repro.tasks.rca.RcaAdapter` — the scorer
    the serving façade deploys — on the fold's training states, selecting
    its weights on the validation states, and ranks the root of every
    held-out state with it.
    """

    def __init__(self, dataset: RcaDataset, seed: int = 0, epochs: int = 15):
        self.dataset = dataset
        self.seed = seed
        self.epochs = epochs

    def run(self, provider: EmbeddingProvider) -> RcaResult:
        """5-fold CV; returns metrics averaged over all test folds."""
        embeddings = provider.encode_names(self.dataset.event_names)
        splits = k_fold_splits(len(self.dataset.states), NUM_FOLDS,
                               rng=np.random.default_rng(self.seed))
        all_ranks: list[int] = []
        for fold_number, split in enumerate(splits):
            adapter = RcaAdapter(self.dataset, seed=self.seed + fold_number,
                                 epochs=self.epochs)
            adapter.fit(embeddings, train=split.train, valid=split.valid)
            for index in split.test:
                state = self.dataset.states[index]
                all_ranks.append(rank_of(adapter.scores(state),
                                         state.root_index,
                                         higher_is_better=True))
        return RcaResult(label=provider.label,
                         metrics=ranking_metrics(all_ranks,
                                                 hit_levels=(1, 3, 5)))
