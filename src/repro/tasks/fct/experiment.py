"""FCT experiment harness: GTransE training + MRR / Hits@{1,3,10} (Table VIII)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.evaluation.ranking import RankingMetrics, ranking_metrics
from repro.kge.ranking import link_prediction_ranks
from repro.service.providers import EmbeddingProvider
from repro.tasks.fct.data import FctDataset
from repro.tasks.fct.serve import FctAdapter


@dataclass
class FctResult:
    """Link-prediction result for one method."""

    label: str
    metrics: RankingMetrics

    def as_table_row(self) -> dict[str, float]:
        return {
            "MRR": 100.0 * self.metrics.mrr,
            "Hits@1": 100.0 * self.metrics.hits[1],
            "Hits@3": 100.0 * self.metrics.hits[3],
            "Hits@10": 100.0 * self.metrics.hits[10],
        }


class FctExperiment:
    """Runs the Table VIII protocol for one embedding provider.

    The provider initialises the alarm-entity embeddings
    ("Initialization of Pre-training Knowledge", Sec. V-D3) of an
    :class:`~repro.tasks.fct.FctAdapter` — the model the serving façade
    deploys — fitted on the uncertain fact set with the masked valid hops
    selecting its weights; its model is evaluated by recovering the
    masked test hops.
    """

    def __init__(self, dataset: FctDataset, seed: int = 0, epochs: int = 60):
        self.dataset = dataset
        self.seed = seed
        self.epochs = epochs

    def run(self, provider: EmbeddingProvider) -> FctResult:
        """Train GTransE with provider-initialised entities, rank test hops."""
        known = self.dataset.all_known()
        adapter = FctAdapter(self.dataset, seed=self.seed, epochs=self.epochs)
        adapter.fit(provider.encode_names(self.dataset.entity_names),
                    facts=self.dataset.quadruples, valid=self.dataset.valid,
                    known=known)
        # Tail prediction, as in the paper's completion protocol (the chain
        # is traced forward; head prediction is ill-posed for root alarms).
        ranks = link_prediction_ranks(adapter.model, self.dataset.test,
                                      known_triples=known,
                                      predict="tail")
        return FctResult(label=provider.label,
                         metrics=ranking_metrics(ranks,
                                                 hit_levels=(1, 3, 10)))
