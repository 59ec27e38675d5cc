"""End-to-end determinism: identical seeds must give identical results.

Reproducibility is a design requirement (DESIGN.md §6): every stochastic
component takes an explicit generator or seed, so rebuilding any pipeline
stage with the same seed must produce bit-identical artifacts.
"""

import numpy as np

from repro.corpus import build_tele_corpus
from repro.experiments import ExperimentPipeline, PipelineConfig
from repro.kg import build_tele_kg, serialize_kg
from repro.models import TeleBertTrainer
from repro.training.stage2 import build_stage2_data
from repro.world import TelecomWorld


def _micro_config(seed=0):
    return PipelineConfig(seed=seed, num_episodes=10, stage1_steps=3,
                          stage2_steps=3, generic_sentences=50,
                          alarms_per_theme=2, kpis_per_theme=2,
                          topology_nodes=6)


class TestWorldDeterminism:
    def test_episodes_identical(self):
        a = TelecomWorld.generate(seed=5).simulate_episodes(5)
        b = TelecomWorld.generate(seed=5).simulate_episodes(5)
        for left, right in zip(a, b):
            assert left.root_uid == right.root_uid
            assert left.chain == right.chain
            assert [(r.timestamp, r.event_uid, r.value) for r in left.records] == \
                [(r.timestamp, r.event_uid, r.value) for r in right.records]

    def test_kg_serialisation_identical(self):
        a = serialize_kg(build_tele_kg(TelecomWorld.generate(seed=5)))
        b = serialize_kg(build_tele_kg(TelecomWorld.generate(seed=5)))
        assert a == b

    def test_corpus_identical(self):
        world = TelecomWorld.generate(seed=5)
        assert build_tele_corpus(world, seed=2).sentences == \
            build_tele_corpus(world, seed=2).sentences


class TestTrainingDeterminism:
    def test_telebert_training_identical(self):
        world = TelecomWorld.generate(seed=7, alarms_per_theme=2,
                                      kpis_per_theme=2, topology_nodes=6)
        corpus = build_tele_corpus(world, seed=7)

        def train():
            trainer = TeleBertTrainer(corpus.sentences, seed=3, d_model=16,
                                      num_layers=1, num_heads=2, d_ff=32,
                                      max_len=24, batch_size=8)
            trainer.train(steps=5)
            return trainer

        a, b = train(), train()
        assert a.log.total == b.log.total
        assert np.array_equal(
            a.encoder.token_embedding.weight.data,
            b.encoder.token_embedding.weight.data)

    def test_stage2_data_identical(self):
        world = TelecomWorld.generate(seed=7, alarms_per_theme=2,
                                      kpis_per_theme=2, topology_nodes=6)
        corpus = build_tele_corpus(world, seed=7)
        kg = build_tele_kg(world)
        episodes = world.simulate_episodes(4)
        a = build_stage2_data(corpus, episodes, kg, seed=1, ke_negatives=2)
        b = build_stage2_data(corpus, episodes, kg, seed=1, ke_negatives=2)
        assert [r.text for r in a.mask_rows] == [r.text for r in b.mask_rows]
        assert a.triple_rows == b.triple_rows
        assert a.normalizer.ranges == b.normalizer.ranges


class TestPipelineDeterminism:
    def test_ktelebert_service_embeddings_identical(self):
        texts = ["[ALM] The link is down", "[DOC] check complete"]

        def build():
            pipeline = ExperimentPipeline(_micro_config(seed=4))
            return pipeline.ktelebert_stl.encode_texts(texts)

        assert np.array_equal(build(), build())

    def test_different_seeds_differ(self):
        a = ExperimentPipeline(_micro_config(seed=1))
        b = ExperimentPipeline(_micro_config(seed=2))
        va = a.ktelebert_stl.encode_texts(["[ALM] The link is down"])
        vb = b.ktelebert_stl.encode_texts(["[ALM] The link is down"])
        assert va.shape == vb.shape
        assert not np.allclose(va, vb)


class TestGlobalRngIsolation:
    """RL005's runtime counterpart: library code must not draw from (or
    reseed) the process-global RNG streams — hidden global state is
    exactly what breaks the bit-exact resume guarantee of
    :mod:`repro.training.runtime`."""

    def test_pipeline_leaves_global_numpy_rng_untouched(self):
        np.random.seed(1234)
        before = np.random.get_state()
        world = TelecomWorld.generate(seed=5)
        corpus = build_tele_corpus(world, seed=5)
        build_tele_kg(world)
        world.simulate_episodes(3)
        trainer = TeleBertTrainer(corpus.sentences, seed=5, d_model=16,
                                  num_layers=1, num_heads=2, d_ff=32,
                                  max_len=16)
        trainer.train(steps=2)
        after = np.random.get_state()
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_pipeline_leaves_global_stdlib_rng_untouched(self):
        import random

        random.seed(1234)
        before = random.getstate()
        world = TelecomWorld.generate(seed=5)
        build_stage2_data(build_tele_corpus(world, seed=5),
                          world.simulate_episodes(3),
                          build_tele_kg(world), seed=5, ke_negatives=2)
        assert random.getstate() == before
