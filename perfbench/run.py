"""Real-encoder end-to-end benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload serve_hot_mix --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout.  The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics, taken from a traced run next to an untraced one.  Exits 1 when a
correctness check fails, 2 when the benchmark cannot run at all.
See perfbench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

from accounting import CLOSES_AT
from common import (
    ROOT,
    BenchError,
    HostProbe,
    Pass,
    ensure_checkpoint,
    fresh_dir,
    median,
    percentile,
    require_source,
)

WORKLOADS = ("serve_cold_bulk", "serve_hot_mix", "train_stage2")


def spec() -> dict:
    """Metric names and units, from the benchmark's BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(passes: list[Pass], setups_s: list, rss_mb: list) -> dict:
    """End-to-end metrics over the passes (servers or processes) of a run.

    CPU per op pools every pass, each divided by the host's slowdown over
    it; set-up CPU (already divided) and memory are the medians over
    passes.
    """
    ops = sum(p.ops for p in passes)
    return {
        "cpu_ms_per_op": 1000.0 * sum(p.cpu_s / p.slowdown
                                      for p in passes) / ops,
        "setup_s": median(setups_s),
        "peak_rss_mb": median(rss_mb),
    }


def wall_summary(name: str, passes: list[Pass]) -> str:
    """Wall-clock figures of a run, for stderr only.

    They follow the host's speed, which on a shared host swings by up to
    2x for minutes, so they are not metrics of the benchmark.
    """
    ops = sum(p.ops for p in passes)
    window = sum(p.window_s for p in passes)
    latencies = [value for p in passes for value in p.latencies_ms]
    return (f"{name}: {ops} ops on {len(passes)} servers or processes, "
            f"wall {ops / window:.1f} ops/s, p50 {percentile(latencies, 50):.2f} ms, "
            f"p99 {percentile(latencies, 99):.2f} ms "
            f"({ops - math.ceil(0.99 * ops)} beyond p99); raw CPU "
            f"{1000.0 * sum(p.cpu_s for p in passes) / ops:.3f} ms/op at "
            f"host slowdown "
            f"{' '.join(f'{p.slowdown:.3f}' for p in passes)}")


def serve_workload(name: str, seed: int, seconds: int, trace: bool,
                   probe: HostProbe):
    """Returns ``(metrics, attempted, failed, problems)``."""
    import bench_serve

    checkpoint = ensure_checkpoint()
    runner = (bench_serve.run_cold if name == "serve_cold_bulk"
              else bench_serve.run_hot)
    if not trace:
        tally, _ = runner(checkpoint, seed, seconds, probe)
        metrics = end_to_end(tally.passes, tally.setups_s, tally.rss_mb)
        print(wall_summary(name, tally.passes), file=sys.stderr)
        print(f"{name}: error_rate {tally.failed / tally.ops:.4f}",
              file=sys.stderr)
        return metrics, tally.ops, tally.failed, tally.wrong

    from accounting import serve_layers

    plain, _ = runner(checkpoint, seed, seconds, probe, 1)
    spans_path = fresh_dir("spans") / "serve.json"
    traced, passes = runner(checkpoint, seed, seconds, probe, 1,
                            spans_out=spans_path)
    with open(spans_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    measured = passes[0]
    ops = {record[0]["id"]: (record[2], record[3])
           for record in measured["records"]}
    metrics = serve_layers(recorded["spans"], ops)
    before, after = measured["before"], measured["after"]
    batches = after["batches"] - before["batches"]
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    counters = recorded["counters"]
    metrics.update({
        "serving.batcher.batch_size_mean":
            (after["names"] - before["names"]) / batches if batches else 0.0,
        "serving.store.hit_ratio": hits / lookups if lookups else 0.0,
        "netserve.rejected": counters.get("netserve.rejections", 0),
        "serving.service.retries": counters.get("serving.retries", 0),
        "serving.service.timeouts": counters.get("serving.timeouts", 0),
        "serving.service.fallbacks": counters.get("serving.fallbacks", 0),
        "trace.overhead_ratio": traced.cpu_ms_per_op / plain.cpu_ms_per_op,
    })
    return (metrics, plain.ops + traced.ops, plain.failed + traced.failed,
            plain.wrong + traced.wrong)


def train_workload(seconds: int, trace: bool, probe: HostProbe):
    """Returns ``(metrics, attempted, failed, problems)``.

    Training keeps a fixed seed (see bench_train), so the benchmark seed
    does not reach it and every run's loss digest is comparable.
    """
    import bench_train

    steps = bench_train.STEPS_PER_S * seconds
    if not trace:
        runs = [bench_train.train_process(f"train-{i}", steps, probe)
                for i in range(bench_train.PROCESSES)]
        total = sum(run.steps for run in runs)
        metrics = end_to_end([run.as_pass() for run in runs],
                             [run.setup_s for run in runs],
                             [run.rss_mb for run in runs])
        problems = bench_train.loss_problems(runs, steps)
        print(wall_summary("train_stage2", [run.as_pass() for run in runs]),
              file=sys.stderr)
        return metrics, total, len(problems), problems

    from accounting import train_layers

    plain = bench_train.train_process("train-plain", steps, probe)
    spans_path = fresh_dir("spans") / "train.json"
    traced = bench_train.train_process("train-traced", steps, probe,
                                       spans_out=spans_path)
    with open(spans_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    metrics = train_layers(recorded["spans"])
    metrics.update({
        "serving.batcher.batch_size_mean": 0.0,
        "serving.store.hit_ratio": 0.0,
        "netserve.rejected": 0, "serving.service.retries": 0,
        "serving.service.timeouts": 0, "serving.service.fallbacks": 0,
        "trace.overhead_ratio": traced.cpu_ms_per_op / plain.cpu_ms_per_op,
    })
    problems = bench_train.loss_problems([plain, traced], steps)
    return (metrics, plain.steps + traced.steps, len(problems), problems)


def stop_on_sigterm(signum, frame) -> None:
    """Turn SIGTERM into an exception, so every child is stopped on the way
    out (servers and trainers are stopped in ``finally`` clauses)."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    require_source()
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    try:
        # A trainer keeps to one CPU (bench_train pins it to the probe's).
        cpu = (max(os.sched_getaffinity(0))
               if args.workload == "train_stage2" else None)
        with HostProbe(cpu) as probe:
            if args.workload == "train_stage2":
                measured, attempted, failed, problems = train_workload(
                    args.seconds, bool(args.trace), probe)
            else:
                measured, attempted, failed, problems = serve_workload(
                    args.workload, args.seed, args.seconds,
                    bool(args.trace), probe)
    except (BenchError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.trace:
        share = measured["trace.unattributed_share"]
        print(f"{args.workload}: named spans explain {1 - share:.1%} of op "
              f"time" + ("" if share <= 1 - CLOSES_AT else
                         " -- accounting does NOT close (below 90%)"),
              file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
