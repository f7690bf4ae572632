"""Compiler analyses used by the compile-time partitioners.

* :mod:`repro.analysis.criticality` -- depth, height and criticality of every
  DDG node (Figure 2, step 1: "Computation of critical paths").
* :mod:`repro.analysis.slack` -- slack of nodes and edges, the weighting
  information used by RHOP's multilevel partitioner.
* :mod:`repro.analysis.detlint` (DET1xx) -- the repo-wide determinism
  lint that guards the bit-identity contract, driven by
  :mod:`repro.analysis.framework` (DESIGN.md §7).  Run it as
  ``python -m repro.analysis [paths]``.  Not imported eagerly here, so the
  numeric analyses stay side-effect free.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".criticality": ("CriticalityInfo", "compute_criticality"),
        ".slack": ("SlackInfo", "compute_slack"),
    },
)
