"""detlint: determinism checks for the bit-identity contract (DET1xx).

Run it as ``python -m repro.analysis [paths]``.  See
:mod:`repro.analysis.detlint.rules` for the rule catalogue,
:mod:`repro.analysis.framework` for the driver and DESIGN.md §7 for the
model.
"""

from repro.analysis.detlint.rules import (
    RULES,
    RULES_BY_ID,
    Finding,
    Rule,
    check_module,
)

__all__ = ["RULES", "RULES_BY_ID", "Finding", "Rule", "check_module"]
