"""The full two-stage pipeline: TeleBERT → KTeleBERT → fault-analysis tasks.

Reproduces the paper's workflow (Fig. 1) end to end at demo scale: stage-1
pre-training on the Tele-Corpus, stage-2 re-training on causal sentences +
machine logs + Tele-KG triples with the PMTL strategy, then all three tasks
(RCA / EAP / FCT) consuming the service embeddings.

    python examples/fault_analysis_pipeline.py       (~2-3 minutes on CPU)
"""

from repro.experiments import ExperimentPipeline, PipelineConfig
from repro.service import KTeleBertProvider, RandomProvider
from repro.tasks.eap import EapExperiment, build_eap_dataset
from repro.tasks.fct import FctExperiment, build_fct_dataset
from repro.tasks.rca import RcaExperiment, build_rca_dataset


def main() -> None:
    # Demo scale: smaller than the bench defaults so this finishes quickly.
    config = PipelineConfig(seed=7, num_episodes=60, stage1_steps=120,
                            stage2_steps=60, generic_sentences=400,
                            task_epochs_rca=5, task_epochs_eap=5,
                            task_epochs_fct=30)
    pipeline = ExperimentPipeline(config)

    print("== stage 1: TeleBERT ==")
    telebert = pipeline.telebert
    print(f"  trained {config.stage1_steps} steps; "
          f"loss {telebert.log.total[0]:.2f} -> {telebert.log.total[-1]:.2f}")

    print("== stage 2: KTeleBERT (PMTL) ==")
    ktelebert = pipeline.ktelebert_pmtl
    print(f"  vocabulary grew to {len(ktelebert.tokenizer.vocab)} tokens "
          f"(prompt + mined tele specials)")

    providers = [
        RandomProvider(dim=config.d_model, seed=config.seed),
        KTeleBertProvider(ktelebert, pipeline.kg, mode="entity",
                          label="KTeleBERT-PMTL"),
    ]

    print("\n== task 1: root-cause analysis ==")
    rca_data = build_rca_dataset(pipeline.world, pipeline.episodes)
    rca = RcaExperiment(rca_data, seed=config.seed,
                        epochs=config.task_epochs_rca)
    for provider in providers:
        row = rca.run(provider).as_table_row()
        print(f"  {provider.label:<16} MR={row['MR']:.2f} "
              f"Hits@1={row['Hits@1']:.1f}%")

    print("\n== task 2: event association prediction ==")
    eap_data = build_eap_dataset(pipeline.world, pipeline.episodes,
                                 seed=config.seed)
    eap = EapExperiment(eap_data, seed=config.seed,
                        epochs=config.task_epochs_eap)
    for provider in providers:
        row = eap.run(provider).as_table_row()
        print(f"  {provider.label:<16} Acc={row['Accuracy']:.1f}% "
              f"F1={row['F1-score']:.1f}%")

    print("\n== task 3: fault chain tracing ==")
    fct_data = build_fct_dataset(pipeline.world, pipeline.episodes,
                                 seed=config.seed)
    fct = FctExperiment(fct_data, seed=config.seed,
                        epochs=config.task_epochs_fct)
    for provider in providers:
        row = fct.run(provider).as_table_row()
        print(f"  {provider.label:<16} MRR={row['MRR']:.1f}% "
              f"Hits@10={row['Hits@10']:.1f}%")


if __name__ == "__main__":
    main()
