"""detlint: determinism checks for the bit-identity contract (DET1xx).

Run it as ``python -m repro.analysis [paths]``.  See
:mod:`repro.analysis.detlint.rules` for the rule catalogue,
:mod:`repro.analysis.framework` for the driver and DESIGN.md §7 for the
model.
"""

from repro._lazy import lazy_exports

__all__ = ["RULES", "RULES_BY_ID", "Finding", "Rule", "check_module"]

__getattr__, __dir__ = lazy_exports(__name__, {".rules": __all__})
