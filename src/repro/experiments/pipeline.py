"""The full experiment pipeline, built once and shared by all tables.

Construction order mirrors the paper's workflow (Fig. 1):

1. synthetic world (substitutes the proprietary platform data);
2. Tele-Corpus + generic corpus + Tele-KG + fault episodes;
3. the MacBERT stand-in (same architecture, generic corpus) and TeleBERT
   (stage 1 on the Tele-Corpus, with WWM phrases and SimCSE);
4. stage-2 data and the four KTeleBERT variants of the ablation:
   STL, STL w/o ANEnc, PMTL, IMTL;
5. embedding providers for every method row of Tables IV / VI / VIII.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.corpus.generic import generate_generic_corpus
from repro.corpus.telecorpus import TeleCorpus, build_tele_corpus
from repro.kg.builder import build_tele_kg
from repro.kg.graph import TeleKG
from repro.models.ktelebert import KTeleBert, KTeleBertConfig
from repro.models.telebert import TeleBertTrainer
from repro.service.providers import (
    EmbeddingProvider,
    KTeleBertProvider,
    PlmProvider,
    RandomProvider,
    WordEmbeddingProvider,
)
from repro.tokenization.bpe import mine_special_tokens
from repro.tokenization.tokenizer import basic_tokenize
from repro.training.mtl import build_strategy
from repro.training.retrainer import KTeleBertRetrainer
from repro.training.stage2 import Stage2Data, build_stage2_data
from repro.world.episodes import FaultEpisode
from repro.world.world import TelecomWorld


@dataclass
class PipelineConfig:
    """Scale knobs for one full reproduction run.

    The defaults are the "bench" scale: minutes on a laptop CPU, large enough
    for the comparative shapes of the tables to emerge.
    """

    seed: int = 0
    # world
    alarms_per_theme: int = 5
    kpis_per_theme: int = 3
    topology_nodes: int = 14
    num_episodes: int = 160
    # model geometry
    d_model: int = 32
    num_layers: int = 2
    num_heads: int = 2
    d_ff: int = 64
    max_len: int = 32
    # stage 1
    stage1_steps: int = 400
    stage1_batch: int = 16
    generic_sentences: int = 1500
    # stage 2
    stage2_steps: int = 300
    stage2_batch: int = 8
    ke_batch: int = 8
    ke_negatives: int = 4
    # tasks
    task_epochs_rca: int = 10
    task_epochs_eap: int = 8
    task_epochs_fct: int = 50
    # future-work data sources (signaling flow + configuration data) in the
    # stage-2 masking stream — an extension beyond the paper's evaluation.
    include_future_sources: bool = False


class ExperimentPipeline:
    """Lazily builds and caches every artifact of the reproduction."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()

    # ------------------------------------------------------------------
    # Data artifacts
    # ------------------------------------------------------------------
    @cached_property
    def world(self) -> TelecomWorld:
        return TelecomWorld.generate(
            seed=self.config.seed,
            alarms_per_theme=self.config.alarms_per_theme,
            kpis_per_theme=self.config.kpis_per_theme,
            topology_nodes=self.config.topology_nodes)

    @cached_property
    def corpus(self) -> TeleCorpus:
        return build_tele_corpus(self.world, seed=self.config.seed)

    @cached_property
    def kg(self) -> TeleKG:
        return build_tele_kg(self.world)

    @cached_property
    def episodes(self) -> list[FaultEpisode]:
        return self.world.simulate_episodes(self.config.num_episodes)

    @cached_property
    def stage2_data(self) -> Stage2Data:
        signaling_flows = None
        config_records = None
        if self.config.include_future_sources:
            from repro.world.configuration import ConfigurationGenerator
            from repro.world.signaling import SignalingSimulator

            rng = np.random.default_rng(self.config.seed + 71)
            simulator = SignalingSimulator(self.world.ontology, rng)
            signaling_flows = [flow for episode in self.episodes[:20]
                               for flow in simulator.simulate_episode(episode)]
            generator = ConfigurationGenerator(self.world.topology, rng)
            config_records = generator.snapshot_for_episode(self.episodes[0])
        return build_stage2_data(self.corpus, self.episodes, self.kg,
                                 seed=self.config.seed,
                                 ke_negatives=self.config.ke_negatives,
                                 signaling_flows=signaling_flows,
                                 config_records=config_records)

    @cached_property
    def wwm_phrases(self) -> list[str]:
        """Multi-word event surfaces act as the tele phrase vocabulary."""
        return [e.name for e in self.world.ontology.events]

    @cached_property
    def tele_special_tokens(self) -> list[str]:
        tokenised = [basic_tokenize(s) for s in self.corpus.sentences]
        base = {t for sentence in tokenised for t in sentence}
        # Mine against an empty base so NE abbreviations qualify; keep top 30.
        mined = mine_special_tokens(tokenised, base_vocabulary=set(),
                                    min_frequency=20, num_merges=400)
        return mined[:30]

    # ------------------------------------------------------------------
    # Stage-1 models
    # ------------------------------------------------------------------
    def _stage1_kwargs(self) -> dict:
        c = self.config
        return dict(d_model=c.d_model, num_layers=c.num_layers,
                    num_heads=c.num_heads, d_ff=c.d_ff, max_len=c.max_len,
                    batch_size=c.stage1_batch)

    @cached_property
    def macbert(self) -> TeleBertTrainer:
        """The MacBERT stand-in: same recipe, generic (non-tele) corpus.

        The vocabulary is built over the union of the generic corpus and the
        Tele-Corpus so tele names do not all collapse to [UNK] at service
        time — mirroring how the real MacBERT's wordpieces cover tele text
        without having *learned* tele semantics.
        """
        generic = generate_generic_corpus(self.config.generic_sentences,
                                          seed=self.config.seed)
        trainer = TeleBertTrainer(generic + self.corpus.sentences,
                                  seed=self.config.seed + 1,
                                  **self._stage1_kwargs())
        # Train only on generic sentences: restrict the batch iterator.
        from repro.training.batching import BatchIterator
        trainer.batches = BatchIterator(generic, self.config.stage1_batch,
                                        trainer.rng)
        trainer.train(self.config.stage1_steps)
        return trainer

    @cached_property
    def telebert(self) -> TeleBertTrainer:
        trainer = TeleBertTrainer(self.corpus.sentences,
                                  seed=self.config.seed + 2,
                                  wwm_phrases=self.wwm_phrases,
                                  **self._stage1_kwargs())
        trainer.train(self.config.stage1_steps)
        return trainer

    # ------------------------------------------------------------------
    # Stage-2 variants
    # ------------------------------------------------------------------
    def _retrain(self, strategy_name: str, use_anenc: bool = True,
                 use_contrastive: bool = True) -> KTeleBert:
        config = KTeleBertConfig(
            use_anenc=use_anenc, use_contrastive=use_contrastive,
            anenc_layers=2, anenc_meta=4, lora_rank=4,
            ke_negatives=self.config.ke_negatives)
        model = KTeleBert.from_telebert(
            self.telebert, config,
            tag_names=self.stage2_data.tag_names,
            normalizer=self.stage2_data.normalizer,
            tele_special_tokens=self.tele_special_tokens,
            extra_vocabulary=self.stage2_data.vocabulary(),
            seed=self.config.seed + 3)
        strategy = build_strategy(strategy_name, self.config.stage2_steps)
        retrainer = KTeleBertRetrainer(
            model, self.stage2_data, strategy, seed=self.config.seed + 4,
            batch_size=self.config.stage2_batch,
            ke_batch_size=self.config.ke_batch)
        retrainer.train()
        return model

    @cached_property
    def ktelebert_stl(self) -> KTeleBert:
        return self._retrain("stl")

    @cached_property
    def ktelebert_stl_no_anenc(self) -> KTeleBert:
        return self._retrain("stl", use_anenc=False)

    @cached_property
    def ktelebert_stl_no_nc(self) -> KTeleBert:
        """STL variant without the numerical contrastive loss (Fig. 10)."""
        return self._retrain("stl", use_contrastive=False)

    @cached_property
    def ktelebert_pmtl(self) -> KTeleBert:
        return self._retrain("pmtl")

    @cached_property
    def ktelebert_imtl(self) -> KTeleBert:
        return self._retrain("imtl")

    # ------------------------------------------------------------------
    # Providers (the method rows of the result tables)
    # ------------------------------------------------------------------
    def providers(self, include_word_embeddings: bool = False,
                  mode: str = "entity") -> list[EmbeddingProvider]:
        """All method rows in table order."""
        rows: list[EmbeddingProvider] = []
        if include_word_embeddings:
            rows.append(WordEmbeddingProvider(dim=self.config.d_model,
                                              seed=self.config.seed))
        else:
            rows.append(RandomProvider(dim=self.config.d_model,
                                       seed=self.config.seed))
        rows.append(PlmProvider(self.macbert, label="MacBERT"))
        rows.append(PlmProvider(self.telebert, label="TeleBERT"))
        rows.append(KTeleBertProvider(self.ktelebert_stl, self.kg, mode=mode,
                                      label="KTeleBERT-STL"))
        rows.append(KTeleBertProvider(self.ktelebert_stl_no_anenc, self.kg,
                                      mode=mode, label="w/o ANEnc"))
        rows.append(KTeleBertProvider(self.ktelebert_pmtl, self.kg, mode=mode,
                                      label="KTeleBERT-PMTL"))
        rows.append(KTeleBertProvider(self.ktelebert_imtl, self.kg, mode=mode,
                                      label="KTeleBERT-IMTL"))
        return rows
