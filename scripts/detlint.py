#!/usr/bin/env python
"""Run the determinism lint from a checkout without installing the package.

Compatibility shim over the detlint pass only -- equivalent to
``PYTHONPATH=src python -m repro.analysis --pass detlint``.  The multi-pass
front end (detlint + lifelint) is ``python -m repro.analysis``;
see ``python scripts/detlint.py --list-rules`` for the detlint rule
catalogue and DESIGN.md §7 for the framework behind it.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis.detlint import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
