#!/usr/bin/env python3
"""Run repro-lint without installing the package.

Usage (from anywhere inside the repo):

    python tools/run_lint.py --max-seconds 10
    python tools/run_lint.py --format json src/repro/serving
    python tools/run_lint.py --list-rules

Any finding exits 1; the one way to accept a finding is a reasoned
inline ``# repro-lint: allow[RL00x] reason`` on its line or the line
above.

The linter is stdlib-only (``ast`` + ``tokenize``), and the ``repro``
package ``__init__`` imports nothing, so putting ``src`` on ``sys.path``
is all it takes: the lint tier never needs numpy installed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lint.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
