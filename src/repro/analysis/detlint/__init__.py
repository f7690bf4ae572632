"""detlint: determinism checks for the bit-identity contract (DET1xx).

Registered as an analysis-framework pass; run it via ``repro analyze --pass
detlint`` (or ``python -m repro.analysis --pass detlint``).  See
:mod:`repro.analysis.detlint.rules` for the rule catalogue and DESIGN.md §7
for the framework.
"""

from repro.analysis.detlint.rules import (
    DETLINT_PASS,
    RULES,
    RULES_BY_ID,
    Finding,
    check_module,
)

__all__ = ["DETLINT_PASS", "RULES", "RULES_BY_ID", "Finding", "check_module"]
