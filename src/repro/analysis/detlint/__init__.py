"""detlint: determinism checks for the bit-identity contract (DET1xx).

Run it as ``python -m repro.analysis [paths]``.  See
:mod:`repro.analysis.detlint.rules` for the rule catalogue,
:mod:`repro.analysis.framework` for the driver and DESIGN.md §7 for the
model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {".rules": ("RULES", "RULES_BY_ID", "Finding", "Rule", "check_module")}
)
