"""repro.lint — repo-aware static analysis for the reproduction codebase.

PRs 2-4 each fixed a *class* of latent bug by hand: locks held across
blocking encodes, unbounded ``Event.wait()``s that deadlocked the serving
stack, non-atomic checkpoint writes, and global-RNG use that breaks the
bit-exact resume guarantee of :mod:`repro.training.runtime`.  This package
turns those invariants into enforced rules so regressions fail CI instead
of being rediscovered in production.

Framework (stdlib ``ast``/``tokenize`` only, no new dependencies):

* a pluggable checker registry (:data:`~repro.lint.core.RULES`, populated
  by the :func:`~repro.lint.core.rule` decorator);
* every finding fails the run; the one way to accept one is an inline
  suppression — ``# repro-lint: allow[RL00x] reason`` on the violating
  line or the line above (a reason is mandatory, else RL000 fires);
* text/JSON/SARIF reporting with CI-friendly exit codes via
  ``tools/run_lint.py`` and ``python -m repro lint``; SARIF results
  carry line-drift-tolerant fingerprints so code scanning matches an
  alert across commits;
* one path from source text to findings, ``--graph`` included: each
  file is read, parsed and walked once
  (:class:`~repro.lint.core.ModuleContext`), and the module rules and
  the summary extractor read that one walk;
* a whole-program layer (:mod:`repro.lint.project`): repo-wide symbol
  table, call graph, and per-function lock/deadline/resource summaries,
  cached per file SHA in ``tools/.lint_cache.json``, that the
  project-scope rules (:mod:`repro.lint.flowrules`) reason over.  The
  cache key includes a digest of this package's sources, so an edited
  analyzer never replays findings an older one wrote; an entry of the
  wrong shape is a miss, and an unchanged cache is not rewritten.

Shipped rules (see :mod:`repro.lint.rules` and
:mod:`repro.lint.flowrules` for the full rationale):

========  ============================================================
RL001     blocking call inside a ``with <lock>:`` block
RL002     unbounded ``.wait()``/``.get()``/``.result()``/``.acquire()``
          in the serving/training stack
RL003     ``threading.Thread`` without ``daemon=True`` in library code
RL004     checkpoint/store writes bypassing temp+fsync+rename
RL005     global-RNG calls (``random.*`` / ``np.random.*``) instead of a
          seeded ``Generator``
RL006     bare/over-broad ``except`` that swallows silently
RL007     metric-name / prompt-token string drift from the single source
          of truth
RL008     lock-order inversion — a cycle in the global
          lock-acquisition graph, including edges through callees
RL009     call chain from a critical section to an unbounded blocking
          sink (the interprocedural RL001)
RL010     ``deadline``/``timeout`` parameter accepted but not threaded
          to the wait it was meant to bound
RL011     resource handle (socket, mmap, ``SharedArray``, file, ...)
          not closed/unlinked on every exit path
========  ============================================================
"""

from repro.lint.cli import main as lint_main
from repro.lint.core import (
    RULES,
    Finding,
    LintConfig,
    Rule,
    analyze_paths,
    analyze_source,
    analyze_sources,
    iter_python_files,
    rule,
)
from repro.lint.project import ProjectContext, SummaryCache
from repro.lint import rules as _rules  # registers the module rules
from repro.lint import flowrules as _flowrules  # registers RL008-RL011

__all__ = [
    "Finding",
    "LintConfig",
    "ProjectContext",
    "RULES",
    "Rule",
    "SummaryCache",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "iter_python_files",
    "lint_main",
    "rule",
]
