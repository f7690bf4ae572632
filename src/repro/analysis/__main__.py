"""``python -m repro.analysis``: run detlint.

See :mod:`repro.analysis.framework` for the driver and DESIGN.md §7 for the
model.
"""

import sys

from repro.analysis.framework import main

if __name__ == "__main__":
    sys.exit(main())
