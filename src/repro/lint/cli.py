"""Command-line driver for :mod:`repro.lint`.

Exit codes (CI contract):

* ``0`` — clean: every rule violation is fixed or carries a reasoned
  inline ``# repro-lint: allow[RL00x] reason`` suppression;
* ``1`` — at least one finding, or the ``--max-seconds`` wall-time
  budget was exceeded;
* ``2`` — usage error (unknown rule code).

Besides the plain lint run the driver exposes:

* ``--format json|sarif`` — machine-readable reports; SARIF 2.1.0 is
  what GitHub code scanning ingests for inline PR annotations;
* ``--graph`` — dump the resolved call graph and lock-acquisition
  graph as JSON (the inputs RL008/RL009 reason over) and exit; files
  are read, cached and summarised as in any other run;
* ``--cache`` / ``--no-cache`` — per-file summary cache
  (``tools/.lint_cache.json``), keyed by file SHA and invalidated
  wholesale when the analyzer's code, the rule set or the config
  changes; written only when the run stored or pruned an entry.

Used both by ``tools/run_lint.py`` (no-install entry point) and
``python -m repro lint``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.lint.core import RULES, Finding, LintConfig
from repro.lint.project import (
    SummaryCache,
    analyze_paths,
    cache_key,
    graph_paths,
)

#: Default lint targets relative to the repo root.  Tests, benchmarks,
#: and tools run a test-appropriate rule subset via
#: :attr:`~repro.lint.core.LintConfig.path_rule_exemptions`.
DEFAULT_PATHS = ("src/repro", "tools", "benchmarks", "tests")

#: Default on-disk summary cache, relative to the repo root.
DEFAULT_CACHE = "tools/.lint_cache.json"


def find_repo_root(start: Path | None = None) -> Path:
    """Walk up from ``start`` to the directory containing ``pyproject.toml``.

    Falls back to the current working directory so the linter still runs
    on a bare source tree.  The lint package imports nothing outside
    itself, so a copy of it runs on its own; the rest of the repo uses
    :func:`repro.ioutil.find_repo_root`.
    """
    cursor = (start or Path.cwd()).resolve()
    for candidate in (cursor, *cursor.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return cursor


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the lint driver (shared by tests and main)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repo-aware static analysis for the repro codebase "
                    "(concurrency, RNG discipline, atomic IO, literal "
                    "drift, and interprocedural lock/deadline/resource "
                    "flow).")
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=f"files or directories to lint (default: {DEFAULT_PATHS})")
    parser.add_argument(
        "--root", default=None,
        help="repository root for scoping and fingerprints "
             "(default: auto-detected via pyproject.toml)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text); sarif is the GitHub "
             "code-scanning upload format")
    parser.add_argument(
        "--select", action="append", default=None, metavar="RL00x",
        help="run only these rule codes (repeatable)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules with rationale and exit")
    parser.add_argument(
        "--graph", action="store_true",
        help="dump the resolved call graph and lock-acquisition graph "
             "as JSON and exit (no findings are reported)")
    parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help=f"summary cache file (default: <root>/{DEFAULT_CACHE}); "
             f"files whose SHA is cached skip the parse and module-rule "
             f"pass")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the summary cache for this run")
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="fail (exit 1) if the analysis itself takes longer than "
             "this — the CI wall-time regression gate")
    return parser


def _list_rules() -> str:
    blocks = []
    for code in sorted(RULES):
        meta = RULES[code]
        block = f"{code} [{meta.scope}] {meta.title}"
        if meta.rationale:
            indented = "\n".join("    " + line for line in
                                 meta.rationale.splitlines())
            block += "\n" + indented
        blocks.append(block)
    return "\n\n".join(blocks)


def _render_text(findings: list[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    lines.append(f"repro-lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def _render_json(findings: list[Finding], exit_code: int) -> str:
    return json.dumps({
        "version": 2,
        "findings": [f.to_dict() for f in findings],
        "summary": {"findings": len(findings), "exit_code": exit_code},
    }, indent=2)


def _sarif_result(finding: Finding) -> dict:
    return {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "SRCROOT",
                },
                "region": {
                    "startLine": max(1, finding.line),
                    # SARIF columns are 1-based; ours are 0-based.
                    "startColumn": finding.col + 1,
                },
            },
        }],
        # Matches one alert across commits as unrelated edits shift lines.
        "partialFingerprints": {
            "reproLint/v1": finding.fingerprint,
        },
    }


def _render_sarif(findings: list[Finding]) -> str:
    rules = []
    for code in sorted(RULES):
        meta = RULES[code]
        rule = {
            "id": code,
            "name": code,
            "shortDescription": {"text": meta.title},
            "defaultConfiguration": {"level": "error"},
        }
        if meta.rationale:
            rule["fullDescription"] = {
                "text": " ".join(meta.rationale.split()),
            }
        rules.append(rule)
    payload = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://example.invalid/repro-lint",
                    "rules": rules,
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": [_sarif_result(f) for f in findings],
        }],
    }
    return json.dumps(payload, indent=2)


def main(argv: Sequence[str] | None = None,
         stdout=None, stderr=None) -> int:
    """Run the lint driver; returns the CI exit code (see module doc).

    ``stdout``/``stderr`` are injectable for tests; they default to the
    process streams.
    """
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules(), file=stdout)
        return 0

    root = Path(args.root).resolve() if args.root else find_repo_root()
    paths = args.paths or [root / p for p in DEFAULT_PATHS]

    cache = None
    if not args.no_cache:
        cache_path = Path(args.cache) if args.cache \
            else root / DEFAULT_CACHE
        if not cache_path.is_absolute():
            cache_path = root / cache_path
        cache = SummaryCache(cache_path,
                             cache_key(LintConfig(), args.select))

    started = time.monotonic()
    try:
        if args.graph:
            graph = graph_paths(paths, root, select=args.select,
                                cache=cache)
        else:
            findings = analyze_paths(paths, root=root, select=args.select,
                                     cache=cache)
    except ValueError as error:  # unknown --select code
        print(f"repro-lint: {error}", file=stderr)
        return 2
    elapsed = time.monotonic() - started
    if cache is not None:
        cache.save()
    if args.graph:
        print(json.dumps(graph, indent=2), file=stdout)
        return 0

    over_budget = (args.max_seconds is not None
                   and elapsed > args.max_seconds)
    exit_code = 1 if findings or over_budget else 0

    if args.format == "json":
        print(_render_json(findings, exit_code), file=stdout)
    elif args.format == "sarif":
        print(_render_sarif(findings), file=stdout)
    else:
        print(_render_text(findings), file=stdout)

    if over_budget:
        print(f"repro-lint: analysis took {elapsed:.2f}s, over the "
              f"--max-seconds budget of {args.max_seconds:.2f}s — the "
              f"summary cache or the analyzer regressed", file=stderr)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
