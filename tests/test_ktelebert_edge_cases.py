"""Edge-case tests for KTeleBERT input handling."""

import numpy as np
import pytest

from repro.corpus import build_tele_corpus
from repro.kg import build_tele_kg
from repro.models import KTeleBert, KTeleBertConfig, NumericRow, TeleBertTrainer, TextRow
from repro.training import DynamicMasker
from repro.training.stage2 import build_stage2_data
from repro.world import TelecomWorld


@pytest.fixture(scope="module")
def model():
    world = TelecomWorld.generate(seed=47, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=6)
    corpus = build_tele_corpus(world, seed=47)
    kg = build_tele_kg(world)
    episodes = world.simulate_episodes(3)
    trainer = TeleBertTrainer(corpus.sentences, seed=47, d_model=16,
                              num_layers=1, num_heads=2, d_ff=32, max_len=20)
    trainer.train(steps=2)
    data = build_stage2_data(corpus, episodes, kg, seed=47, ke_negatives=2)
    return KTeleBert.from_telebert(
        trainer, KTeleBertConfig(anenc_layers=1, anenc_meta=2, lora_rank=2),
        tag_names=data.tag_names, normalizer=data.normalizer,
        extra_vocabulary=data.vocabulary(), seed=47)


class TestPrepareEdgeCases:
    def test_numeric_row_with_truncated_num_token(self, model):
        """[NUM] pushed past max_length degrades to plain text, no crash."""
        long_prefix = " ".join(["word"] * 50)
        row = NumericRow(text=f"[KPI] {long_prefix} | [NUM] 5.0",
                         tag="some tag", value=5.0)
        prep = model.prepare([row])
        assert len(prep["numeric_positions"]) == 0
        out = model.encode([row])
        assert out.shape == (1, 16)

    def test_unseen_tag_uses_global_normalisation(self, model):
        row = NumericRow(text="[KPI] brand new indicator | [NUM] 3.0",
                         tag="brand new indicator", value=3.0)
        out = model.encode([row])
        assert np.isfinite(out).all()

    def test_mixed_batch_text_and_numeric(self, model):
        rows = [TextRow("[DOC] plain sentence"),
                NumericRow(text="[KPI] rate | [NUM] 0.5", tag="rate",
                           value=0.5),
                TextRow("[ALM] another alarm")]
        prep = model.prepare(rows)
        assert prep["numeric_rows"] == [1]
        out = model.encode(rows)
        assert out.shape == (3, 16)

    def test_value_token_excluded_from_masking(self, model):
        row = NumericRow(text="[KPI] rate | [NUM] 0.5", tag="rate", value=0.5)
        prep = model.prepare([row])
        position = int(prep["numeric_positions"][0, 1])
        assert position in prep["excluded"][0]
        assert position + 1 in prep["excluded"][0]

    def test_empty_text_row(self, model):
        out = model.encode([TextRow("")])
        assert out.shape == (1, 16)

    def test_masked_lm_loss_on_pure_text_batch(self, model):
        masker = DynamicMasker(model.tokenizer.vocab,
                               np.random.default_rng(0), masking_rate=0.4)
        loss, numeric = model.masked_lm_loss(
            model.prepare([TextRow("[DOC] the quick check"),
                           TextRow("[DOC] another")]),
            masker)
        assert numeric is None  # no numeric rows -> no L_num
        assert np.isfinite(loss.data)

    def test_anenc_disabled_skips_numeric_loss(self, model):
        masker = DynamicMasker(model.tokenizer.vocab,
                               np.random.default_rng(0), masking_rate=0.4)
        row = NumericRow(text="[KPI] rate | [NUM] 0.5", tag="rate", value=0.5)
        model.config.use_anenc = False
        try:
            loss, numeric = model.masked_lm_loss(model.prepare([row]), masker)
            assert numeric is None
        finally:
            model.config.use_anenc = True

    def test_encode_is_eval_mode(self, model):
        """encode() must be deterministic (dropout off) and restore training."""
        row = TextRow("[DOC] determinism check")
        a = model.encode([row])
        b = model.encode([row])
        assert np.allclose(a, b)
        assert model.mlm_model.bert.training  # training mode restored
