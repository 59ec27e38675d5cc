"""Command-line driver for :mod:`repro.bench`.

Subcommands (``python -m repro bench <cmd>``):

* ``check``   — compare current ``BENCH_*.json`` results against the
  committed baselines; exit ``1`` on any out-of-tolerance regression
  (per-metric table on stdout; markdown appended to
  ``$GITHUB_STEP_SUMMARY`` when CI sets it).
* ``report``  — render the trend history as markdown tables plus
  sparkline text charts.
* ``promote`` — intentionally move the baselines to the current results,
  journaling every per-metric delta to ``baselines/promotions.jsonl``.
* ``list``    — show the registry: benchmarks, metrics, directions,
  tolerances.

Exit codes (CI contract): ``0`` clean, ``1`` regression or check error,
``2`` usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.bench.check import (
    BASELINES_DIRNAME,
    check_benchmarks,
    render_markdown,
    render_text,
)
from repro.bench.history import HISTORY_DIRNAME
from repro.bench.promote import promote
from repro.bench.registry import NAMESPACE, REGISTRY, get_spec
from repro.bench.report import render_report
from repro.ioutil import find_repo_root


def _default_dirs(root: Path) -> tuple[Path, Path]:
    bench_root = root / "benchmarks"
    return bench_root / "results", bench_root / BASELINES_DIRNAME


def _resolve_names(raw: list[str] | None) -> list[str] | None:
    """Normalise ``--names`` values; short names gain the namespace."""
    if not raw:
        return None
    names: list[str] = []
    for chunk in raw:
        for name in chunk.split(","):
            name = name.strip()
            if not name:
                continue
            if not name.startswith(NAMESPACE):
                name = NAMESPACE + name
            get_spec(name)          # raises KeyError on typos
            names.append(name)
    return names or None


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` argument parser (check/report/promote/list)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark platform: structured results, trend "
                    "history, and the CI regression gate.")
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: auto-detected via pyproject.toml)")
    parser.add_argument(
        "--results-dir", default=None,
        help="directory holding BENCH_*.json (default: "
             "<root>/benchmarks/results)")
    parser.add_argument(
        "--baselines-dir", default=None,
        help="directory holding committed baselines (default: "
             "<root>/benchmarks/baselines)")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="fail on out-of-tolerance regressions vs baselines")
    check.add_argument("--names", action="append", default=None,
                       help="benchmark subset (repeatable or "
                            "comma-separated; short names ok)")
    check.add_argument("--format", choices=("text", "markdown"),
                       default="text", help="stdout format")
    check.add_argument("--output", default=None,
                       help="also write the markdown table here")
    check.add_argument("--no-summary", action="store_true",
                       help="do not append to $GITHUB_STEP_SUMMARY")

    report = sub.add_parser(
        "report", help="render trend tables + sparkline charts")
    report.add_argument("--names", action="append", default=None)
    report.add_argument("--last", type=int, default=20,
                        help="history entries per benchmark (default 20)")
    report.add_argument("--output", default=None,
                        help="write the markdown report here instead of "
                             "stdout")

    promote_cmd = sub.add_parser(
        "promote", help="move baselines to current results (journaled)")
    promote_cmd.add_argument("--names", action="append", default=None)
    promote_cmd.add_argument("--note", default="",
                             help="why the baseline moves; recorded in "
                                  "the promote journal")

    sub.add_parser("list", help="show the benchmark/metric registry")
    return parser


def _cmd_check(args, results_dir: Path, baselines_dir: Path) -> int:
    names = _resolve_names(args.names)
    comparisons = check_benchmarks(results_dir, baselines_dir, names)
    if not comparisons:
        print("bench check: no current results found under "
              f"{results_dir} — nothing to gate", file=sys.stderr)
        return 0
    text = render_text(comparisons)
    markdown = render_markdown(comparisons)
    print(markdown if args.format == "markdown" else text)
    if args.output:
        Path(args.output).write_text(markdown + "\n", encoding="utf-8")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path and not args.no_summary:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write(markdown + "\n")
    failed = [c.bench_id for c in comparisons if c.failed]
    if failed:
        print(f"bench check: FAIL ({', '.join(failed)})", file=sys.stderr)
        return 1
    print(f"bench check: ok ({len(comparisons)} benchmark(s) within "
          f"tolerance)", file=sys.stderr)
    return 0


def _cmd_report(args, results_dir: Path) -> int:
    names = _resolve_names(args.names)
    if args.last <= 0:
        print("bench report: --last must be positive", file=sys.stderr)
        return 2
    text = render_report(results_dir / HISTORY_DIRNAME, names,
                         last=args.last)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"bench report: wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_promote(args, results_dir: Path, baselines_dir: Path) -> int:
    names = _resolve_names(args.names)
    try:
        promotions = promote(results_dir, baselines_dir, names,
                             note=args.note)
    except FileNotFoundError as error:
        print(f"bench promote: {error}", file=sys.stderr)
        return 2
    if not promotions:
        print("bench promote: no current results to promote",
              file=sys.stderr)
        return 2
    for record in promotions:
        moved = len(record.changes)
        print(f"promoted {record.bench_id} -> baseline at "
              f"{record.git_sha} ({moved} metric(s) changed)")
    return 0


def _cmd_list() -> int:
    for bench_id in sorted(REGISTRY):
        spec = REGISTRY[bench_id]
        print(f"{bench_id}: {spec.title}")
        print(f"  source: {spec.source}")
        for metric in spec.metrics:
            bounds = []
            if metric.tolerance is not None:
                bounds.append(f"tol {metric.tolerance * 100:.0f}%")
            if metric.abs_tolerance is not None:
                bounds.append(f"abs {metric.abs_tolerance:g}")
            gate = " / ".join(bounds) or "tracked"
            if metric.binding_key:
                gate += f" (binding: config.{metric.binding_key})"
            direction = "higher" if metric.direction.startswith("higher") \
                else "lower"
            unit = f" [{metric.unit}]" if metric.unit else ""
            print(f"    {metric.name}{unit}: {direction} is better, "
                  f"{gate}")
    return 0


def bench_main(argv: Sequence[str] | None = None) -> int:
    """Run the bench driver; returns the process exit code (0/1/2)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:     # argparse exits 2 on usage errors
        return int(exit_.code or 0)
    root = Path(args.root).resolve() if args.root else find_repo_root()
    default_results, default_baselines = _default_dirs(root)
    results_dir = Path(args.results_dir) if args.results_dir \
        else default_results
    baselines_dir = Path(args.baselines_dir) if args.baselines_dir \
        else default_baselines
    try:
        if args.command == "check":
            return _cmd_check(args, results_dir, baselines_dir)
        if args.command == "report":
            return _cmd_report(args, results_dir)
        if args.command == "promote":
            return _cmd_promote(args, results_dir, baselines_dir)
        if args.command == "list":
            return _cmd_list()
    except KeyError as error:       # unknown benchmark in --names
        print(f"bench: {error.args[0]}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:                 # pragma: no cover - console entry
    """Console entry point: exits with :func:`bench_main`'s code."""
    raise SystemExit(bench_main())


__all__ = ["bench_main", "build_parser", "main"]
