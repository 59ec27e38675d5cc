"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reproduce_defaults(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.table == "all"
        assert args.seeds == [0]

    def test_seed_parsing(self):
        args = build_parser().parse_args(["reproduce", "--seeds", "1,2,3"])
        assert args.seeds == [1, 2, 3]

    def test_bad_seeds_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--seeds", ","])

    def test_pretrain_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pretrain"])


class TestTrainFlags:
    @pytest.mark.parametrize("flags", [
        ["--steps", "0"],
        ["--batch-size", "0"],
        ["--ke-batch-size", "-1"],
        ["--keep-last", "0"],
        ["--workers", "0"],
        ["--workers", "two"],
        ["--checkpoint-every", "-1"],
        ["--stop-after", "-2"],
        ["--learning-rate", "0"],
        ["--straggler-timeout", "-1"],
        ["--pool-retry-steps", "5"],
        ["--pool-max-failures", "3"],
    ])
    def test_invalid_train_flags_rejected(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--run-dir", "r", *flags])
        assert excinfo.value.code == 2

    def test_zero_means_off_for_cadence_and_pause(self):
        args = build_parser().parse_args(
            ["train", "--run-dir", "r", "--checkpoint-every", "0",
             "--stop-after", "0"])
        assert (args.checkpoint_every, args.stop_after) == (0, 0)

    def test_a_run_that_failed_to_build_pins_no_config(self, tmp_path,
                                                       monkeypatch):
        """``config.json`` pins a run directory's build, so it is written
        only once the retrainer is built: a failed build leaves nothing
        for the next invocation to reuse."""
        import repro.cli as cli

        def broken_build(config):
            raise ValueError("injected build failure")

        monkeypatch.setattr(cli, "_build_train_retrainer", broken_build)
        run_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="injected"):
            main(["train", "--run-dir", str(run_dir), "--size", "smoke"])
        assert not (run_dir / "config.json").exists()


class TestSimulate:
    def test_prints_json_stats(self, capsys):
        code = main(["simulate", "--seed", "3", "--episodes", "5"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["episodes"] == 5
        assert stats["alarms"] > 0
        assert stats["kg"]["triples"] > 0


class TestReproduce:
    def test_single_stats_table(self, capsys, tmp_path):
        code = main(["reproduce", "--table", "3",
                     "--out", str(tmp_path / "results")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert (tmp_path / "results" / "table_3.txt").exists()

    def test_unknown_table(self, capsys):
        assert main(["reproduce", "--table", "99"]) == 2


class TestEncodeRoundTrip:
    def test_pretrain_then_encode(self, capsys, tmp_path):
        """Tiny end-to-end CLI flow: pretrain -> checkpoint -> encode."""
        code = main(["pretrain", "--out", str(tmp_path / "ckpt"),
                     "--strategy", "stl",
                     "--stage1-steps", "2", "--stage2-steps", "2"])
        assert code == 0
        capsys.readouterr()
        code = main(["encode", "--checkpoint", str(tmp_path / "ckpt"),
                     "--text", "[ALM] The link is down"])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        payload = json.loads(line)
        assert payload["text"].startswith("[ALM]")
        assert len(payload["embedding"]) == 32

    def test_encode_rounds_like_the_serving_envelope(self, capsys, tmp_path):
        """``encode`` prints ``round(float(x), 6)`` of ``encode_texts``."""
        from repro.corpus import build_tele_corpus
        from repro.kg import build_tele_kg
        from repro.models import (
            KTeleBert,
            KTeleBertConfig,
            TeleBertTrainer,
            load_ktelebert,
            save_ktelebert,
        )
        from repro.training.stage2 import build_stage2_data
        from repro.world import TelecomWorld

        world = TelecomWorld.generate(seed=43, alarms_per_theme=2,
                                      kpis_per_theme=2, topology_nodes=6)
        corpus = build_tele_corpus(world, seed=43)
        trainer = TeleBertTrainer(corpus.sentences, seed=43, d_model=16,
                                  num_layers=1, num_heads=2, d_ff=32,
                                  max_len=24)
        data = build_stage2_data(corpus, world.simulate_episodes(2),
                                 build_tele_kg(world), seed=43,
                                 ke_negatives=2)
        model = KTeleBert.from_telebert(
            trainer, KTeleBertConfig(anenc_layers=1, anenc_meta=2,
                                     lora_rank=2),
            tag_names=data.tag_names, normalizer=data.normalizer,
            extra_vocabulary=data.vocabulary(), seed=43)
        checkpoint = save_ktelebert(model, tmp_path / "ckpt")
        texts = ["[ALM] The link is down", "[KPI] paging success rate 97.5",
                 "[DOC] routine check completed"]
        argv = ["encode", "--checkpoint", str(checkpoint)]
        for text in texts:
            argv += ["--text", text]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vectors = load_ktelebert(checkpoint).encode_texts(texts)
        assert lines == [
            json.dumps({"text": text,
                        "embedding": [round(float(x), 6) for x in vector]},
                       ensure_ascii=False)
            for text, vector in zip(texts, vectors)]


class TestLint:
    """``python -m repro lint`` forwards to the repro.lint driver."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_parser_has_lint_subcommand(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"

    def test_clean_tree_exits_zero(self, capsys):
        code = main(["lint", "--root", str(self.ROOT)])
        assert code == 0
        assert "repro-lint:" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RL001" in out and "RL007" in out

    def test_json_format(self, capsys):
        code = main(["lint", "--root", str(self.ROOT), "--format", "json",
                     str(self.ROOT / "src" / "repro" / "lint")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 0

    def test_unknown_rule_code_is_usage_error(self, capsys):
        code = main(["lint", "--root", str(self.ROOT), "--select", "RL998",
                     str(self.ROOT / "src" / "repro" / "lint")])
        assert code == 2
        assert "RL998" in capsys.readouterr().err
