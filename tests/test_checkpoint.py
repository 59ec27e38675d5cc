"""Tests for KTeleBERT checkpoint save/load."""

import json

import numpy as np
import pytest

from repro.corpus import build_tele_corpus
from repro.kg import build_tele_kg
from repro.models import (
    KTeleBert,
    KTeleBertConfig,
    TeleBertTrainer,
    TextRow,
    load_ktelebert,
    load_train_state,
    save_ktelebert,
    save_train_state,
)
from repro.nn.optim import Adam
from repro.training.stage2 import build_stage2_data
from repro.world import TelecomWorld


@pytest.fixture(scope="module")
def model():
    world = TelecomWorld.generate(seed=41, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=6)
    corpus = build_tele_corpus(world, seed=41)
    kg = build_tele_kg(world)
    episodes = world.simulate_episodes(3)
    trainer = TeleBertTrainer(corpus.sentences, seed=41, d_model=16,
                              num_layers=1, num_heads=2, d_ff=32, max_len=24)
    trainer.train(steps=2)
    data = build_stage2_data(corpus, episodes, kg, seed=41, ke_negatives=2)
    return KTeleBert.from_telebert(
        trainer, KTeleBertConfig(anenc_layers=1, anenc_meta=2, lora_rank=2),
        tag_names=data.tag_names, normalizer=data.normalizer,
        extra_vocabulary=data.vocabulary(), seed=41)


SENTENCES = ["[ALM] The link is down", "[DOC] routine check completed"]


class TestRoundTrip:
    def test_embeddings_identical_after_reload(self, model, tmp_path):
        before = model.encode_texts(SENTENCES)
        save_ktelebert(model, tmp_path / "ckpt")
        restored = load_ktelebert(tmp_path / "ckpt")
        after = restored.encode_texts(SENTENCES)
        assert np.allclose(before, after)

    def test_vocab_preserved(self, model, tmp_path):
        save_ktelebert(model, tmp_path / "ckpt")
        restored = load_ktelebert(tmp_path / "ckpt")
        assert len(restored.tokenizer.vocab) == len(model.tokenizer.vocab)
        assert restored.tokenizer.vocab.is_special("[NUM]")

    def test_normalizer_preserved(self, model, tmp_path):
        save_ktelebert(model, tmp_path / "ckpt")
        restored = load_ktelebert(tmp_path / "ckpt")
        tag = model.tag_names[0]
        low, high = model.normalizer.ranges[tag]
        probe = (low + high) / 2
        assert restored.normalizer.transform_one(tag, probe) == \
            model.normalizer.transform_one(tag, probe)

    def test_config_preserved(self, model, tmp_path):
        save_ktelebert(model, tmp_path / "ckpt")
        restored = load_ktelebert(tmp_path / "ckpt")
        assert restored.config == model.config
        assert restored.bert_config.d_model == model.bert_config.d_model

    def test_directory_contents(self, model, tmp_path):
        path = save_ktelebert(model, tmp_path / "ckpt")
        assert (path / "meta.json").exists()
        assert (path / "vocab.json").exists()
        assert (path / "weights.npz").exists()

    def test_unsupported_format_rejected(self, model, tmp_path):
        path = save_ktelebert(model, tmp_path / "ckpt")
        meta = json.loads((path / "meta.json").read_text())
        meta["format_version"] = 999
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_ktelebert(path)

    def test_restored_model_can_train(self, model, tmp_path):
        """A reloaded model is trainable, not just servable."""
        from repro.training import DynamicMasker
        save_ktelebert(model, tmp_path / "ckpt")
        restored = load_ktelebert(tmp_path / "ckpt")
        masker = DynamicMasker(restored.tokenizer.vocab,
                               np.random.default_rng(0), masking_rate=0.3)
        loss, _ = restored.masked_lm_loss(
            restored.prepare([TextRow(s) for s in SENTENCES]), masker)
        loss.backward()
        grads = [p.grad is not None for p in restored.parameters()]
        assert any(grads)


class TestComponentTable:
    def test_components_cover_parameters_in_order(self, model):
        names = list(model.components())
        assert names == ["mlm_model", "anenc", "ndec", "awl", "tgc"]
        flat = [p for part in model.components().values()
                for p in part.parameters()]
        assert [id(p) for p in model.parameters()] == [id(p) for p in flat]

    def test_checkpoint_without_anenc_names_it(self, model, tmp_path):
        path = save_ktelebert(model, tmp_path / "ckpt")
        with np.load(path / "weights.npz") as archive:
            kept = {key: archive[key] for key in archive.files
                    if not key.startswith("anenc/")}
        np.savez(path / "weights.npz", **kept)
        with pytest.raises(ValueError, match="anenc"):
            load_ktelebert(path)

    def test_train_state_without_ndec_names_it(self, model, tmp_path):
        restored = load_ktelebert(save_ktelebert(model, tmp_path / "ckpt"))
        optimizer = Adam(restored.parameters())
        save_train_state(tmp_path / "state.npz", restored, optimizer, {},
                         step=0, loss=0.0)
        state = load_train_state(tmp_path / "state.npz")
        del state.model_arrays["ndec"]
        with pytest.raises(ValueError, match="ndec"):
            state.apply(restored, optimizer)
