"""Method comparison with uncertainty: bootstrap CIs and significance tests.

The paper reports point estimates; at reproduction scale sampling error is
material, so this example runs the FCT task for two methods on the *same*
held-out hops and reports bootstrap confidence intervals plus a paired
permutation test on the reciprocal ranks.

    python examples/method_comparison.py    (~2 minutes on CPU)
"""

import numpy as np

from repro.evaluation import compare_rank_lists, rank_metric_cis
from repro.experiments import ExperimentPipeline, PipelineConfig
from repro.kge import GTransE, KgeTrainer, link_prediction_ranks
from repro.service import KTeleBertProvider, RandomProvider
from repro.tasks.fct import build_fct_dataset


def _ranks_for(provider, dataset, seed: int) -> list[int]:
    """Train GTransE from the provider's initialisation; rank test hops."""
    rng = np.random.default_rng(seed)
    init = provider.encode_names(dataset.entity_names)
    init = init / np.maximum(np.linalg.norm(init, axis=1, keepdims=True),
                             1e-9)
    model = GTransE(dataset.num_entities, dataset.num_relations,
                    dim=init.shape[1], rng=rng, margin=2.0,
                    entity_init=init)
    trainer = KgeTrainer(model, dataset.quadruples, dataset.num_entities,
                         rng=rng, learning_rate=0.05)
    trainer.fit(40, valid_triples=dataset.valid, known=dataset.all_known())
    return link_prediction_ranks(model, dataset.test,
                                 known_triples=dataset.all_known())


def main() -> None:
    config = PipelineConfig(seed=3, num_episodes=80, stage1_steps=150,
                            stage2_steps=120, generic_sentences=200)
    pipeline = ExperimentPipeline(config)
    dataset = build_fct_dataset(pipeline.world, pipeline.episodes,
                                seed=config.seed)
    print(f"FCT dataset: {dataset.describe()}")

    methods = {
        "Random": RandomProvider(dim=config.d_model, seed=0),
        "KTeleBERT-PMTL": KTeleBertProvider(pipeline.ktelebert_pmtl,
                                            pipeline.kg, mode="entity"),
    }
    ranks = {name: _ranks_for(provider, dataset, seed=11)
             for name, provider in methods.items()}

    print("\nmetrics with 95% bootstrap confidence intervals:")
    for name, method_ranks in ranks.items():
        cis = rank_metric_cis(method_ranks, hit_levels=(1, 3),
                              rng=np.random.default_rng(0))
        rendered = "  ".join(f"{metric}={ci}" for metric, ci in cis.items())
        print(f"  {name:<16} {rendered}")

    comparison = compare_rank_lists(ranks["KTeleBERT-PMTL"], ranks["Random"],
                                    rng=np.random.default_rng(1))
    print(f"\npaired permutation test on reciprocal ranks "
          f"(KTeleBERT − Random):")
    print(f"  mean difference = {comparison.mean_difference:+.4f}, "
          f"p = {comparison.p_value:.3f}, n = {comparison.num_items}")
    if comparison.significant():
        print("  -> significant at α = 0.05")
    else:
        print("  -> not significant at this scale (the paper's gap needs "
              "more held-out chains)")


if __name__ == "__main__":
    main()
