"""Tests for :mod:`repro.bench` — schema, gate math, promote, and the
``python -m repro bench`` CLI.

Everything runs against temporary results/baselines directories; the
registry under test is the real one (``bench.train_step`` et al.), so
these tests also pin the registry's contract: gating metrics must be
emitted, absolute timings never gate, the data-parallel bar is
binding-key-guarded.
"""

import json
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_SERVING_THROUGHPUT,
    BENCH_TRAIN_STEP,
    HIGHER_IS_BETTER,
    IMPROVED,
    LOWER_IS_BETTER,
    MISSING,
    NEW,
    NON_BINDING,
    OK,
    REGISTRY,
    REGRESSED,
    TRACKED,
    UNSPECCED,
    BenchRun,
    MetricSpec,
    bench_main,
    check_benchmarks,
    compare_metric,
    compare_runs,
    get_spec,
    load_journal,
    load_run,
    promote,
    record_metrics,
    render_markdown,
    render_text,
    result_path,
    short_name,
    validate_payload,
)

NOW = datetime(2026, 8, 8, 12, 0, 0, tzinfo=timezone.utc)

#: All gating metrics of ``bench.train_step`` at healthy values, plus a
#: config that makes the data-parallel bar binding.
TRAIN_OK = {
    "mask_batch_speedup_x": 2.0,
    "fused_embedding_speedup_x": 1.8,
    "attention_weights_speedup_x": 1.6,
    "data_parallel_speedup_x": 2.5,
    "stage2_step_ms": 14.0,
}
TRAIN_CONFIG = {"data_parallel": {"speedup_bar_binding": True}}


def emit(results_dir, metrics=None, config=None, bench_id=BENCH_TRAIN_STEP):
    return record_metrics(Path(results_dir), bench_id,
                          dict(TRAIN_OK, **(metrics or {})),
                          config={**TRAIN_CONFIG, **(config or {})},
                          now=NOW)


def statuses(comparison):
    return {row.metric: row.status for row in comparison.rows}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_short_name_strips_namespace(self):
        assert short_name(BENCH_TRAIN_STEP) == "train_step"

    def test_short_name_rejects_unnamespaced(self):
        with pytest.raises(ValueError, match="bench."):
            short_name("train_step")

    def test_get_spec_unknown_lists_known_ids(self):
        with pytest.raises(KeyError, match="bench.train_step"):
            get_spec("bench.typo")

    def test_metric_spec_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            MetricSpec("x", direction="sideways")

    def test_metric_spec_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            MetricSpec("x", tolerance=-0.1)

    def test_gating_property(self):
        assert not MetricSpec("x").gating
        assert MetricSpec("x", tolerance=0.5).gating
        assert MetricSpec("x", abs_tolerance=0.0).gating

    def test_every_registered_benchmark_has_gating_metrics(self):
        for bench_id, spec in REGISTRY.items():
            assert any(m.gating for m in spec.metrics), \
                f"{bench_id} would never gate anything"
            assert spec.source, f"{bench_id} has no source module"


# ----------------------------------------------------------------------
# Schema + emitter
# ----------------------------------------------------------------------
class TestSchema:
    def test_validate_accepts_canonical_payload(self, tmp_path):
        run = emit(tmp_path)
        assert validate_payload(run.to_payload()) == []

    def test_validate_rejects_non_dict(self):
        assert validate_payload([1, 2]) != []

    def test_validate_rejects_mismatched_bench_id(self):
        payload = {"schema_version": 1, "name": "train_step",
                   "bench_id": "bench.other", "metrics": [], "host": {}}
        assert any("does not match" in p
                   for p in validate_payload(payload))

    def test_validate_rejects_duplicate_metric(self):
        payload = {"schema_version": 1, "name": "train_step",
                   "bench_id": BENCH_TRAIN_STEP, "host": {},
                   "metrics": [{"metric": "a", "value": 1},
                               {"metric": "a", "value": 2}]}
        assert any("duplicate" in p for p in validate_payload(payload))

    def test_validate_rejects_non_finite_and_bool_values(self):
        payload = {"schema_version": 1, "name": "train_step",
                   "bench_id": BENCH_TRAIN_STEP, "host": {},
                   "metrics": [{"metric": "a", "value": float("nan")},
                               {"metric": "b", "value": True}]}
        problems = validate_payload(payload)
        assert len([p for p in problems if "finite" in p]) == 2

    def test_legacy_payload_is_refused(self, tmp_path):
        legacy = {"name": "train_step",
                  "metrics": [{"metric": "stage2_step_ms", "value": 14.0}],
                  "git_sha": "abc1234"}
        path = tmp_path / "BENCH_train_step.json"
        path.write_text(json.dumps(legacy), encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_run(path)
        for field in ("bench_id", "schema_version", "host"):
            assert field in str(caught.value)

    def test_record_metrics_merges_across_calls(self, tmp_path):
        record_metrics(tmp_path, BENCH_TRAIN_STEP,
                       {"stage2_step_ms": 14.0}, now=NOW)
        record_metrics(tmp_path, BENCH_TRAIN_STEP,
                       {"mask_batch_speedup_x": 2.0},
                       config=TRAIN_CONFIG, now=NOW)
        run = load_run(result_path(tmp_path, BENCH_TRAIN_STEP))
        assert run.metrics == {"stage2_step_ms": 14.0,
                               "mask_batch_speedup_x": 2.0}
        assert run.config["data_parallel"]["speedup_bar_binding"] is True

    def test_record_metrics_rounds_to_three_decimals(self, tmp_path):
        run = record_metrics(tmp_path, BENCH_TRAIN_STEP,
                             {"stage2_step_ms": 14.00049}, now=NOW)
        assert run.metrics["stage2_step_ms"] == 14.0

    def test_record_metrics_rejects_unknown_benchmark(self, tmp_path):
        with pytest.raises(KeyError, match="unknown benchmark"):
            record_metrics(tmp_path, "bench.typo", {"x": 1.0})

    def test_record_metrics_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="not finite"):
            record_metrics(tmp_path, BENCH_TRAIN_STEP,
                           {"stage2_step_ms": float("inf")})

    def test_record_metrics_writes_only_the_result_file(self, tmp_path):
        emit(tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == \
            ["BENCH_train_step.json"]


# ----------------------------------------------------------------------
# Gate math (compare_metric)
# ----------------------------------------------------------------------
SPEEDUP = MetricSpec("speedup_x", HIGHER_IS_BETTER, tolerance=0.5)
LATENCY = MetricSpec("step_ms", LOWER_IS_BETTER, tolerance=0.2, unit="ms")
TRACKED_MS = MetricSpec("raw_ms", LOWER_IS_BETTER)
INVARIANT = MetricSpec("errors", LOWER_IS_BETTER, abs_tolerance=0.0)
GUARDED = MetricSpec("parallel_x", HIGHER_IS_BETTER, tolerance=0.5,
                     binding_key="parallel.binding")


class TestCompareMetric:
    def test_improvement_never_fails_higher(self):
        row = compare_metric(SPEEDUP, 2.0, 10.0, {})
        assert row.status == IMPROVED and not row.failed

    def test_improvement_never_fails_lower(self):
        row = compare_metric(LATENCY, 20.0, 1.0, {})
        assert row.status == IMPROVED and not row.failed

    def test_equal_is_ok(self):
        assert compare_metric(SPEEDUP, 2.0, 2.0, {}).status == OK

    def test_regression_within_tolerance_passes(self):
        # 2.0 -> 1.1: 45% worse, tolerance 50%.
        assert compare_metric(SPEEDUP, 2.0, 1.1, {}).status == OK

    def test_regression_past_tolerance_always_fails(self):
        row = compare_metric(SPEEDUP, 2.0, 0.9, {})
        assert row.status == REGRESSED and row.failed
        assert row.delta_pct == pytest.approx(-55.0)

    def test_lower_is_better_regression_direction(self):
        assert compare_metric(LATENCY, 10.0, 13.0, {}).status == REGRESSED
        assert compare_metric(LATENCY, 10.0, 11.5, {}).status == OK

    def test_tracked_metric_never_fails(self):
        row = compare_metric(TRACKED_MS, 10.0, 1000.0, {})
        assert row.status == TRACKED and not row.failed

    def test_zero_baseline_invariant_any_worsening_fails(self):
        assert compare_metric(INVARIANT, 0.0, 0.0, {}).status == OK
        assert compare_metric(INVARIANT, 0.0, 1.0, {}).status == REGRESSED

    def test_more_permissive_bound_wins(self):
        spec = MetricSpec("ms", LOWER_IS_BETTER, tolerance=0.1,
                          abs_tolerance=50.0)
        # +40 absolute on a baseline of 10 blows the 10% relative bound
        # but sits inside the 50 absolute allowance.
        assert compare_metric(spec, 10.0, 50.0, {}).status == OK
        assert compare_metric(spec, 10.0, 61.0, {}).status == REGRESSED

    def test_non_binding_skipped_with_note(self):
        row = compare_metric(GUARDED, 2.0, 0.2,
                             {"parallel": {"binding": False}})
        assert row.status == NON_BINDING and not row.failed
        assert "not binding" in row.note

    def test_missing_binding_key_means_non_binding(self):
        assert compare_metric(GUARDED, 2.0, 0.2, {}).status == NON_BINDING

    def test_binding_key_truthy_gates_normally(self):
        row = compare_metric(GUARDED, 2.0, 0.2,
                             {"parallel": {"binding": True}})
        assert row.status == REGRESSED

    def test_gating_metric_absent_from_run_fails(self):
        row = compare_metric(SPEEDUP, 2.0, None, {})
        assert row.status == MISSING and row.failed

    def test_tracked_metric_absent_is_fine(self):
        assert compare_metric(TRACKED_MS, 10.0, None, {}).status == TRACKED

    def test_no_baseline_yet_is_new(self):
        assert compare_metric(SPEEDUP, None, 2.0, {}).status == NEW


class TestCompareRuns:
    def test_unspecced_metric_reported(self):
        spec = get_spec(BENCH_TRAIN_STEP)
        current = BenchRun(BENCH_TRAIN_STEP,
                           metrics=dict(TRAIN_OK, surprise_ms=1.0),
                           config=TRAIN_CONFIG)
        baseline = BenchRun(BENCH_TRAIN_STEP, metrics=dict(TRAIN_OK),
                            config=TRAIN_CONFIG)
        comparison = compare_runs(spec, baseline, current)
        assert statuses(comparison)["surprise_ms"] == UNSPECCED
        assert not comparison.failed


# ----------------------------------------------------------------------
# check_benchmarks + rendering
# ----------------------------------------------------------------------
class TestCheck:
    def test_clean_run_passes(self, tmp_path):
        results, baselines = tmp_path / "r", tmp_path / "b"
        emit(results)
        promote(results, baselines, now=NOW)
        comparisons = check_benchmarks(results, baselines)
        assert [c.bench_id for c in comparisons] == [BENCH_TRAIN_STEP]
        assert not comparisons[0].failed

    def test_synthetic_regression_fails(self, tmp_path):
        results, baselines = tmp_path / "r", tmp_path / "b"
        emit(results)
        promote(results, baselines, now=NOW)
        emit(results, {"mask_batch_speedup_x": 0.5})   # -75%, tol 50%
        comparisons = check_benchmarks(results, baselines)
        assert comparisons[0].failed
        assert statuses(comparisons[0])["mask_batch_speedup_x"] == REGRESSED

    def test_result_without_baseline_is_error(self, tmp_path):
        emit(tmp_path / "r")
        comparisons = check_benchmarks(tmp_path / "r", tmp_path / "b")
        assert comparisons[0].failed
        assert "promote" in comparisons[0].error

    def test_named_benchmark_without_result_is_error(self, tmp_path):
        comparisons = check_benchmarks(tmp_path / "r", tmp_path / "b",
                                       [BENCH_TRAIN_STEP])
        assert comparisons[0].failed and "no current result" in \
            comparisons[0].error

    def test_unnamed_benchmarks_without_results_skipped(self, tmp_path):
        assert check_benchmarks(tmp_path / "r", tmp_path / "b") == []

    def test_corrupt_result_is_error(self, tmp_path):
        results = tmp_path / "r"
        results.mkdir()
        result_path(results, BENCH_TRAIN_STEP).write_text("{not json")
        comparisons = check_benchmarks(results, tmp_path / "b")
        assert comparisons[0].failed and "unreadable" in \
            comparisons[0].error

    def test_render_text_and_markdown(self, tmp_path):
        results, baselines = tmp_path / "r", tmp_path / "b"
        emit(results)
        promote(results, baselines, now=NOW)
        emit(results, {"mask_batch_speedup_x": 0.5})
        comparisons = check_benchmarks(results, baselines)
        text = render_text(comparisons)
        assert "FAIL" in text and "mask_batch_speedup_x" in text
        markdown = render_markdown(comparisons)
        assert "❌ FAIL" in markdown
        assert "| `mask_batch_speedup_x` |" in markdown


# ----------------------------------------------------------------------
# Promote
# ----------------------------------------------------------------------
class TestPromote:
    def test_baseline_is_byte_for_byte_copy(self, tmp_path):
        results, baselines = tmp_path / "r", tmp_path / "b"
        emit(results)
        promote(results, baselines, now=NOW)
        assert result_path(baselines, BENCH_TRAIN_STEP).read_bytes() == \
            result_path(results, BENCH_TRAIN_STEP).read_bytes()

    def test_journal_records_per_metric_deltas(self, tmp_path):
        results, baselines = tmp_path / "r", tmp_path / "b"
        emit(results)
        promote(results, baselines, now=NOW)
        emit(results, {"mask_batch_speedup_x": 1.0})
        promote(results, baselines, note="accepting slower mask", now=NOW)
        records = load_journal(baselines)
        assert len(records) == 2
        assert records[0]["previous_sha"] is None
        last = records[1]
        assert last["note"] == "accepting slower mask"
        (change,) = [c for c in last["changes"]
                     if c["metric"] == "mask_batch_speedup_x"]
        assert change["from"] == 2.0 and change["to"] == 1.0
        assert change["delta_pct"] == pytest.approx(-50.0)

    def test_second_promote_after_torn_journal_keeps_both(self, tmp_path):
        results, baselines = tmp_path / "r", tmp_path / "b"
        emit(results)
        promote(results, baselines, note="first", now=NOW)
        with open(baselines / "promotions.jsonl", "a",
                  encoding="utf-8") as journal:
            journal.write('{"bench_id": "bench.tr')   # killed mid-write
        promote(results, baselines, note="second", now=NOW)
        assert [r["note"] for r in load_journal(baselines)] == \
            ["first", "second"]

    def test_failed_journal_append_leaves_baseline_unmoved(self, tmp_path):
        results, baselines = tmp_path / "r", tmp_path / "b"
        emit(results)
        promote(results, baselines, now=NOW)
        before = result_path(baselines, BENCH_TRAIN_STEP).read_bytes()
        emit(results, {"mask_batch_speedup_x": 1.0})
        (baselines / "promotions.jsonl").unlink()
        (baselines / "promotions.jsonl").mkdir()   # every append fails
        with pytest.raises(OSError):
            promote(results, baselines, now=NOW)
        assert result_path(baselines, BENCH_TRAIN_STEP).read_bytes() == \
            before

    def test_named_benchmark_without_result_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nothing to promote"):
            promote(tmp_path / "r", tmp_path / "b", [BENCH_TRAIN_STEP])

    def test_unnamed_benchmarks_without_results_skipped(self, tmp_path):
        assert promote(tmp_path / "r", tmp_path / "b", now=NOW) == []


# ----------------------------------------------------------------------
# CLI (python -m repro bench ...)
# ----------------------------------------------------------------------
def bench(tmp_path, *argv):
    return bench_main(["--results-dir", str(tmp_path / "r"),
                       "--baselines-dir", str(tmp_path / "b"), *argv])


class TestCli:
    def test_check_exits_zero_on_clean_run(self, tmp_path, capsys):
        emit(tmp_path / "r")
        assert bench(tmp_path, "promote", "--note", "seed") == 0
        assert bench(tmp_path, "check") == 0
        assert "within tolerance" in capsys.readouterr().err

    def test_check_exits_nonzero_on_regression(self, tmp_path, capsys):
        emit(tmp_path / "r")
        assert bench(tmp_path, "promote", "--note", "seed") == 0
        emit(tmp_path / "r", {"mask_batch_speedup_x": 0.5})
        assert bench(tmp_path, "check") == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "FAIL" in captured.err

    def test_check_writes_github_step_summary(self, tmp_path, capsys,
                                              monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        emit(tmp_path / "r")
        bench(tmp_path, "promote")
        assert bench(tmp_path, "check") == 0
        assert "Benchmark regression gate" in summary.read_text()
        capsys.readouterr()
        summary.unlink()
        assert bench(tmp_path, "check", "--no-summary") == 0
        assert not summary.exists()

    def test_check_short_names_accepted(self, tmp_path, capsys):
        emit(tmp_path / "r")
        bench(tmp_path, "promote")
        assert bench(tmp_path, "check", "--names", "train_step") == 0

    def test_unknown_name_is_usage_error(self, tmp_path, capsys):
        assert bench(tmp_path, "check", "--names", "typo") == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_report_is_an_unknown_command(self, tmp_path, capsys):
        emit(tmp_path / "r")
        assert bench(tmp_path, "report") == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "report" in err

    def test_promote_named_without_result_exits_2(self, tmp_path, capsys):
        assert bench(tmp_path, "promote", "--names", "train_step") == 2

    def test_list_shows_registry(self, tmp_path, capsys):
        assert bench(tmp_path, "list") == 0
        out = capsys.readouterr().out
        assert BENCH_TRAIN_STEP in out
        assert BENCH_SERVING_THROUGHPUT in out
        assert "higher is better" in out

    def test_repro_entry_point_routes_bench(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["bench", "--results-dir", str(tmp_path / "r"),
                     "--baselines-dir", str(tmp_path / "b"), "list"])
        assert code == 0
        assert BENCH_TRAIN_STEP in capsys.readouterr().out
