#!/usr/bin/env python3
"""Run repro-lint without installing the package.

Usage (from anywhere inside the repo):

    python tools/run_lint.py --max-seconds 10
    python tools/run_lint.py --format json src/repro/serving
    python tools/run_lint.py --list-rules

Any finding exits 1; the one way to accept a finding is a reasoned
inline ``# repro-lint: allow[RL00x] reason`` on its line or the line
above.

The linter is stdlib-only (``ast`` + ``tokenize``).  ``repro/__init__.py``
imports the numeric stack, so instead of importing the package normally we
register a bare namespace stub for ``repro`` first; ``repro.lint`` then
resolves through the stub's ``__path__`` and the lint tier never needs
numpy installed.
"""

import sys
import types
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

if "repro" not in sys.modules:
    _stub = types.ModuleType("repro")
    _stub.__path__ = [str(REPO_ROOT / "src" / "repro")]
    sys.modules["repro"] = _stub

from repro.lint.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
