"""``python -m repro.analysis``: run the static-analysis passes.

Defaults to every registered pass (detlint, lifelint); select one
with ``--pass``.  See :mod:`repro.analysis.framework` for the shared
suppression/baseline machinery and DESIGN.md §7 for the model.
"""

import sys

from repro.analysis.framework import main

if __name__ == "__main__":
    sys.exit(main())
